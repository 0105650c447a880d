package bench

import (
	"bytes"
	"fmt"

	"paramecium/internal/mmu"
	"paramecium/internal/obj"
	"paramecium/internal/shm"
)

// The P6 experiment compares the two ways of moving bulk bytes between
// protection domains:
//
//   - copy: the payload rides the vectored invocation plane as a call
//     argument — the best copy path we have (batched, one crossing per
//     group), but every 8 payload bytes is still charged one
//     OpCopyWord on every transfer.
//   - share: the payload lives in a shared-memory segment granted to
//     the consumer, which attached it once (map + shootdown machinery
//     charged, included in the measurement) and per transfer receives
//     only a notify carrying the region offset — it reads the frame
//     descriptor in place, through its own MMU mapping.
//
// Both harnesses do equivalent per-transfer work (the consumer
// validates the transfer's 8-byte header) and both vector their calls
// in groups of bulkGroup, so the difference isolated is exactly the
// payload's trip through the invocation plane.

// bulkGroup is the vectoring factor both bulk-transfer harnesses use.
const bulkGroup = 16

// bulkSizes is the payload sweep of the P6 experiment and rows.
var bulkSizes = []int{256, 1024, 4096, 16384, 65536}

// bulkCopy is the copy-through-batch harness: each transfer carries
// the whole payload across the invocation plane as an argument.
type bulkCopy struct {
	w     *World
	put   obj.MethodHandle
	args  [][]any
	batch *obj.Batch
}

// newBulkCopy boots a world with a sink service in its own domain and
// a client holding a pre-resolved handle plus pre-built argument
// lists, so the steady-state run allocates nothing.
func newBulkCopy(size int) *bulkCopy {
	w := NewWorld()
	decl := obj.MustInterfaceDecl("bench.bulk.v1",
		obj.MethodDecl{Name: "put", NumIn: 1, NumOut: 0})
	server := obj.New("bulk-sink", w.K.Meter)
	var seen byte
	bi, err := server.AddInterface(decl, &seen)
	if err != nil {
		panic(err)
	}
	bi.MustBindInto("put", func(out []any, args ...any) ([]any, error) {
		// Validate the delivered frame's header byte — the same
		// per-transfer work the share harness does in place.
		seen = args[0].([]byte)[0]
		return out, nil
	})
	serverDom := w.K.NewDomain("server")
	clientDom := w.K.NewDomain("client")
	put := w.export("/services/bulk", server, serverDom, clientDom, "bench.bulk.v1", "put")
	payload := bytes.Repeat([]byte{0x5A}, size)
	args := make([][]any, bulkGroup)
	for i := range args {
		args[i] = []any{payload}
	}
	return &bulkCopy{w: w, put: put, args: args, batch: obj.NewBatch(bulkGroup)}
}

// run performs n transfers, vectored in groups of bulkGroup.
func (h *bulkCopy) run(n int) error {
	return groups(h.batch, h.put, h.args, n)
}

// groups performs n calls of h, vectored in groups of bulkGroup, the
// j-th call of each group taking args[j].
func groups(batch *obj.Batch, h obj.MethodHandle, args [][]any, n int) error {
	for i := 0; i < n; {
		k := min(bulkGroup, n-i)
		batch.Reset()
		for j := 0; j < k; j++ {
			if err := batch.Add(h, args[j]...); err != nil {
				return err
			}
		}
		if err := batch.Run(); err != nil {
			return err
		}
		i += k
	}
	return nil
}

// bulkShare is the shared-segment harness: the payload lives in a
// segment the client owns and granted read-only to the server; each
// transfer is a vectored notify carrying only the region offset, and
// the server validates the header in place through its attachment.
type bulkShare struct {
	w     *World
	ready obj.MethodHandle
	args  [][]any
	batch *obj.Batch

	seg     *shm.Segment
	grant   *shm.Grant
	att     *shm.Attachment
	payload []byte
}

// newBulkShare boots the world, creates the client-owned segment and
// its RO grant to the server domain, and binds the server's notify
// method, which reads the transfer's 8-byte header through the
// attachment. Each run maps and fills the segment first and revokes it
// last.
func newBulkShare(size int) *bulkShare {
	w := NewWorld()
	pages := (size + 4095) / 4096
	serverDom := w.K.NewDomain("server")
	clientDom := w.K.NewDomain("client")

	seg, err := w.K.Shm.NewSegment(clientDom.Ctx, pages)
	if err != nil {
		panic(err)
	}
	grant, err := seg.Grant(serverDom.Ctx, shm.RO)
	if err != nil {
		panic(err)
	}

	h := &bulkShare{w: w, seg: seg, grant: grant, payload: bytes.Repeat([]byte{0x5A}, size)}
	decl := obj.MustInterfaceDecl("bench.bulknotify.v1",
		obj.MethodDecl{Name: "ready", NumIn: 1, NumOut: 0})
	server := obj.New("bulk-reader", w.K.Meter)
	var hdr [8]byte
	bi, err := server.AddInterface(decl, &hdr)
	if err != nil {
		panic(err)
	}
	bi.MustBindInto("ready", func(out []any, args ...any) ([]any, error) {
		// Zero-copy consumption: the header is read IN PLACE through
		// the server's own mapping of the shared frames — the payload
		// behind it is the server's memory now, no copy needed.
		if err := h.att.Load(args[0].(int), hdr[:]); err != nil {
			return nil, err
		}
		return out, nil
	})
	h.ready = w.export("/services/bulknotify", server, serverDom, clientDom, "bench.bulknotify.v1", "ready")
	h.args = make([][]any, bulkGroup)
	for i := range h.args {
		h.args[i] = []any{0}
	}
	h.batch = obj.NewBatch(bulkGroup)
	return h
}

// run performs n transfers — vectored notifies, header validated in
// place, zero payload bytes on the invocation plane — with the
// one-time zero-copy setup and teardown inside the caller's
// measurement window. First the server attaches the granted segment
// (map charges) and the client produces the payload into it: amortized
// over a run, the "cycles charged for map, not per byte" half of the
// claim. Last the grant is revoked from the boot CPU: the unmap pays
// the per-remote-CPU TLB shootdown charge for any page a remote CPU
// still holds cached — the "plus shootdown" half (zero remotes on this
// single-CPU world, charged exactly as such).
func (h *bulkShare) run(n int) error {
	att, err := h.w.K.Shm.Attach(h.grant.Ref())
	if err != nil {
		return err
	}
	h.att = att
	if err := h.seg.Store(0, h.payload); err != nil {
		return err
	}
	if err := groups(h.batch, h.ready, h.args, n); err != nil {
		return err
	}
	return h.grant.RevokeFrom(mmu.BootCPU)
}

// p6BulkTransfer sweeps payload size over the copy-vs-share pair,
// reporting deterministic virtual cycles per transfer. Copy cost grows
// a word per 8 payload bytes; share cost is flat — the capability and
// notify words, the map amortized — so the advantage grows linearly
// with payload size, crossing 4x around the page size.
func p6BulkTransfer() Table {
	t := Table{
		ID:     "P6",
		Title:  "Bulk transfer: copy through the invocation plane vs shared-segment attach (virtual cycles per transfer)",
		Claim:  `contexts communicate through shared memory set up by the memory service: granting and mapping a segment moves bulk data between domains for the cost of the mapping — per-byte copy charges stay off the invocation plane entirely`,
		Header: []string{"bytes", "copy cycles/op", "share cycles/op", "share advantage", "payload words"},
	}
	const ops = 1024
	for _, size := range bulkSizes {
		copyCost := rowCycles(fmt.Sprintf("P6_BulkTransfer/bytes=%d/path=copy", size), ops)
		shareCost := rowCycles(fmt.Sprintf("P6_BulkTransfer/bytes=%d/path=share", size), ops)
		t.AddRow(size,
			fmt.Sprintf("%.1f", copyCost),
			fmt.Sprintf("%.1f", shareCost),
			fmt.Sprintf("%.2fx", copyCost/shareCost),
			size/8)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("deterministic virtual cycles; both paths vector calls in groups of %d and validate the 8-byte transfer header", bulkGroup),
		"share includes attach (map) and revoke (TLB-shootdown path) inside the measured window, amortized over the run",
		"copy pays OpCopyWord per 8 payload bytes on EVERY transfer; share pays it only for bytes the consumer actually touches")
	return t
}
