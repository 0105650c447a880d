package proxy

import (
	"encoding/binary"
	"testing"
)

// TestFrameTokensStaleAndForged pins the frame slab's token check: a
// released frame's token, a token with a live frame's index but another
// state word, and a token whose index is past the slab all reach no
// frame, while the live token reaches its own.
func TestFrameTokensStaleAndForged(t *testing.T) {
	var ft frameTable
	stale, _ := ft.acquire()
	ft.release(stale)
	token, fr := ft.acquire() // the same slot, live again
	if uint32(token) != uint32(stale) {
		t.Fatalf("slot not recycled: token %#x after %#x", token, stale)
	}
	if got := ft.get(token); got != fr {
		t.Fatalf("get(live %#x) = %p, want %p", token, got, fr)
	}
	for _, c := range []struct {
		name  string
		token uint64
	}{
		{"stale", stale},
		{"wrong state", token + 2<<32},
		{"even state", token + 1<<32},
		{"index past the slab", token>>32<<32 | 2},
		{"largest index", token | 0xffff_ffff},
		{"zero", 0},
	} {
		if got := ft.get(c.token); got != nil {
			t.Errorf("get(%s %#x) = %p, want nil", c.name, c.token, got)
		}
	}
	ft.release(token)
	if got := ft.get(token); got != nil {
		t.Fatalf("get(released %#x) = %p, want nil", token, got)
	}
}

// FuzzFrameTokens drives a frame slab with an arbitrary interleaving of
// acquire, release and get — the last with tokens that are live, stale,
// perturbed or arbitrary — against a model of which frame is live under
// which token. get must return nil or the frame live under exactly that
// token, never a released frame or one under another state word, and
// must not panic on any index. The seed corpus is in
// testdata/fuzz/FuzzFrameTokens.
func FuzzFrameTokens(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		var ft frameTable
		type liveFrame struct {
			token uint64
			fr    *callFrame
		}
		var live []liveFrame
		var stale []uint64
		owner := func(token uint64) *callFrame {
			for _, l := range live {
				if l.token == token {
					return l.fr
				}
			}
			return nil
		}
		check := func(token uint64) {
			got, want := ft.get(token), owner(token)
			if got != want {
				t.Fatalf("get(%#x) = %p, want %p (live %d, stale %d)", token, got, want, len(live), len(stale))
			}
		}
		for len(prog) >= 2 {
			op, arg := prog[0]%4, int(prog[1])
			prog = prog[2:]
			switch op {
			case 0: // acquire
				if len(live) >= 64 {
					continue
				}
				token, fr := ft.acquire()
				if token == 0 || fr == nil {
					t.Fatalf("acquire = %#x, %p", token, fr)
				}
				for _, l := range live {
					if l.fr == fr {
						t.Fatalf("acquire handed out live frame %p again", fr)
					}
				}
				live = append(live, liveFrame{token, fr})
			case 1: // release a live frame
				if len(live) == 0 {
					continue
				}
				i := arg % len(live)
				ft.release(live[i].token)
				stale = append(stale, live[i].token)
				live = append(live[:i], live[i+1:]...)
			case 2: // get a live or stale token, perturbed by arg's bits
				var token uint64
				switch {
				case arg&1 == 0 && len(live) > 0:
					token = live[arg/2%len(live)].token
				case len(stale) > 0:
					token = stale[arg/2%len(stale)]
				}
				check(token)
				check(token ^ uint64(arg>>1)<<32)  // another state word
				check(token + uint64(arg>>1)&0xff) // another index
			case 3: // get an arbitrary token
				if len(prog) < 8 {
					prog = nil
					continue
				}
				check(binary.LittleEndian.Uint64(prog))
				prog = prog[8:]
			}
		}
		for _, l := range live {
			check(l.token)
			ft.release(l.token)
			stale = append(stale, l.token)
		}
		live = nil
		for _, token := range stale {
			check(token)
		}
	})
}
