package sandbox

import (
	"errors"
	"testing"
	"testing/quick"

	"paramecium/internal/clock"
)

// sumProgram adds the first r1 bytes of the segment.
const sumProgram = `
        ; r0 = index, r1 = limit, r2 = sum
        loadi r0, 0
        loadi r1, 64
        loadi r2, 0
        loadi r4, 1
loop:   jge   r0, r1, done
        ld8   r3, [r0+0]
        add   r2, r2, r3
        add   r0, r0, r4
        jmp   loop
done:   halt  r2
`

func TestAssembleAndRun(t *testing.T) {
	p, err := Assemble(sumProgram)
	if err != nil {
		t.Fatal(err)
	}
	mem := make([]byte, 128)
	for i := 0; i < 64; i++ {
		mem[i] = 1
	}
	var e Exec
	res, err := e.Run(p, mem)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 64 {
		t.Fatalf("sum = %d, want 64", res.Ret)
	}
	if res.Instrs == 0 {
		t.Fatal("no instructions counted")
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []string{
		"bogus r1",             // unknown mnemonic
		"loadi r99, 1",         // bad register
		"loadi r1",             // missing immediate
		"jmp nowhere\nhalt r0", // undefined label
		"x: x: halt r0",        // duplicate label
		"ld8 r1, r2",           // bad memory operand
		"1abc: halt r0",        // bad label
		"jeq r0, r1",           // missing target
	}
	for _, src := range cases {
		if _, err := Assemble(src); err == nil {
			t.Errorf("Assemble(%q) succeeded", src)
		}
	}
}

func TestAssembleNumericJumpAndComments(t *testing.T) {
	p, err := Assemble("loadi r0, 5 # five\n jmp 2 ; skip nothing\n halt r0")
	if err != nil {
		t.Fatal(err)
	}
	var e Exec
	res, err := e.Run(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 5 {
		t.Fatalf("ret = %d", res.Ret)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := MustAssemble(sumProgram)
	img := p.Encode()
	q, err := Decode(img)
	if err != nil {
		t.Fatal(err)
	}
	if len(q) != len(p) {
		t.Fatalf("decoded %d instrs, want %d", len(q), len(p))
	}
	for i := range p {
		if p[i] != q[i] {
			t.Fatalf("instr %d differs: %v vs %v", i, p[i], q[i])
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode([]byte("short")); !errors.Is(err, ErrBadImage) {
		t.Fatalf("short: %v", err)
	}
	img := MustAssemble("halt r0").Encode()
	if _, err := Decode(img[:len(img)-3]); !errors.Is(err, ErrBadImage) {
		t.Fatalf("truncated: %v", err)
	}
}

func TestArithmeticOps(t *testing.T) {
	src := `
        loadi r1, 12
        loadi r2, 5
        sub   r3, r1, r2   ; 7
        mul   r3, r3, r2   ; 35
        and   r4, r3, r1   ; 35 & 12 = 0
        or    r4, r4, r2   ; 5
        xor   r4, r4, r2   ; 0
        addi  r4, r4, 42   ; 42
        loadi r5, 2
        shl   r4, r4, r5   ; 168
        shr   r4, r4, r5   ; 42
        halt  r4
`
	var e Exec
	res, err := e.Run(MustAssemble(src), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 42 {
		t.Fatalf("ret = %d", res.Ret)
	}
}

func TestLoadStoreWidths(t *testing.T) {
	src := `
        loadi r1, 0x1122334455667788
        loadi r0, 0
        st64  [r0+0], r1
        ld32  r2, [r0+0]    ; big endian: 0x11223344
        ld16  r3, [r0+0]    ; 0x1122
        ld8   r4, [r0+7]    ; 0x88
        st16  [r0+16], r3
        ld64  r5, [r0+10]
        halt  r2
`
	mem := make([]byte, 32)
	var e Exec
	res, err := e.Run(MustAssemble(src), mem)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 0x11223344 {
		t.Fatalf("ld32 = %#x", res.Ret)
	}
	if mem[16] != 0x11 || mem[17] != 0x22 {
		t.Fatalf("st16 wrote %x %x", mem[16], mem[17])
	}
}

func TestOutOfFuel(t *testing.T) {
	p := MustAssemble("loop: jmp loop\nhalt r0")
	e := Exec{Fuel: 100}
	_, err := e.Run(p, nil)
	if !errors.Is(err, ErrOutOfFuel) {
		t.Fatalf("err = %v", err)
	}
}

func TestMemFaultUnchecked(t *testing.T) {
	p := MustAssemble("loadi r0, 9999\nld8 r1, [r0+0]\nhalt r1")
	var e Exec
	_, err := e.Run(p, make([]byte, 64))
	if !errors.Is(err, ErrMemFault) {
		t.Fatalf("err = %v", err)
	}
}

func TestBadJumpRuntime(t *testing.T) {
	p := Program{{Op: OpJmp, Imm: 99}}
	var e Exec
	if _, err := e.Run(p, nil); !errors.Is(err, ErrBadJump) {
		t.Fatalf("err = %v", err)
	}
}

func TestIllegalInstruction(t *testing.T) {
	p := Program{{Op: Opcode(200)}}
	var e Exec
	if _, err := e.Run(p, nil); !errors.Is(err, ErrBadInstr) {
		t.Fatalf("err = %v", err)
	}
}

func TestVerifyAcceptsGoodProgram(t *testing.T) {
	if err := Verify(MustAssemble(sumProgram)); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyRejects(t *testing.T) {
	cases := []struct {
		name string
		p    Program
		want error
	}{
		{"empty", Program{}, ErrEmptyProgram},
		{"no halt", Program{{Op: OpLoadI, A: 0}}, ErrNoHalt},
		{"bad opcode", Program{{Op: Opcode(99)}, {Op: OpHalt}}, ErrBadInstr},
		{"bad jump", Program{{Op: OpJmp, Imm: 42}, {Op: OpHalt}}, ErrBadJump},
		{"negative jump", Program{{Op: OpJmp, Imm: -1}, {Op: OpHalt}}, ErrBadJump},
		{"sandbox reg", Program{{Op: OpLoadI, A: SandboxReg}, {Op: OpHalt}}, ErrReservedReg},
		{"explicit check", Program{{Op: OpCheck}, {Op: OpHalt}}, ErrReservedReg},
		{"sandbox reg in mem op", Program{{Op: OpLd8, A: 0, B: SandboxReg}, {Op: OpHalt}}, ErrReservedReg},
	}
	for _, c := range cases {
		if err := Verify(c.p); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

func TestRewriteInsertsChecks(t *testing.T) {
	p := MustAssemble(sumProgram)
	q, err := Rewrite(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(q) != len(p)+1 { // one memory op in the program
		t.Fatalf("rewritten length %d, want %d", len(q), len(p)+1)
	}
	checks := 0
	for _, ins := range q {
		if ins.Op == OpCheck {
			checks++
		}
	}
	if checks != 1 {
		t.Fatalf("checks = %d", checks)
	}
}

func TestRewrittenProgramBehavesIdentically(t *testing.T) {
	p := MustAssemble(sumProgram)
	q, err := Rewrite(p)
	if err != nil {
		t.Fatal(err)
	}
	mem1 := make([]byte, 128)
	mem2 := make([]byte, 128)
	for i := 0; i < 64; i++ {
		mem1[i] = byte(i)
		mem2[i] = byte(i)
	}
	var plain Exec
	r1, err := plain.Run(p, mem1)
	if err != nil {
		t.Fatal(err)
	}
	sandboxed := Exec{EnforceSandbox: true}
	r2, err := sandboxed.Run(q, mem2)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Ret != r2.Ret {
		t.Fatalf("results differ: %d vs %d", r1.Ret, r2.Ret)
	}
	if r2.Checks == 0 {
		t.Fatal("sandboxed run executed no checks")
	}
}

func TestSandboxContainsWildAccess(t *testing.T) {
	// A program reading far out of bounds: the certified (unchecked)
	// run faults; the SFI run is contained by masking and completes.
	src := `
        loadi r0, 100000
        ld8   r1, [r0+0]
        halt  r1
`
	p := MustAssemble(src)
	mem := make([]byte, 64) // power of two
	var plain Exec
	if _, err := plain.Run(p, mem); !errors.Is(err, ErrMemFault) {
		t.Fatalf("unchecked wild access: %v", err)
	}
	q, err := Rewrite(p)
	if err != nil {
		t.Fatal(err)
	}
	sandboxed := Exec{EnforceSandbox: true}
	if _, err := sandboxed.Run(q, mem); err != nil {
		t.Fatalf("sandboxed wild access not contained: %v", err)
	}
}

func TestEnforceSandboxRejectsUnrewritten(t *testing.T) {
	p := MustAssemble("loadi r0, 0\nld8 r1, [r0+0]\nhalt r1")
	e := Exec{EnforceSandbox: true}
	if _, err := e.Run(p, make([]byte, 64)); !errors.Is(err, ErrNotSandboxed) {
		t.Fatalf("err = %v", err)
	}
}

func TestEnforceSandboxRequiresPow2Segment(t *testing.T) {
	q, err := Rewrite(MustAssemble("loadi r0, 0\nld8 r1, [r0+0]\nhalt r1"))
	if err != nil {
		t.Fatal(err)
	}
	e := Exec{EnforceSandbox: true}
	if _, err := e.Run(q, make([]byte, 100)); !errors.Is(err, ErrMemFault) {
		t.Fatalf("err = %v", err)
	}
}

func TestSFICostIsVisible(t *testing.T) {
	// The whole point: sandboxed execution must charge more cycles
	// than certified execution of the same source program.
	p := MustAssemble(sumProgram)
	q, err := Rewrite(p)
	if err != nil {
		t.Fatal(err)
	}
	mem := make([]byte, 128)

	mCert := clock.NewMeter(clock.DefaultCosts())
	certExec := Exec{Meter: mCert}
	if _, err := certExec.Run(p, mem); err != nil {
		t.Fatal(err)
	}
	mSFI := clock.NewMeter(clock.DefaultCosts())
	sfiExec := Exec{Meter: mSFI, EnforceSandbox: true}
	if _, err := sfiExec.Run(q, mem); err != nil {
		t.Fatal(err)
	}
	if mSFI.Clock.Now() <= mCert.Clock.Now() {
		t.Fatalf("SFI run (%d cycles) not costlier than certified (%d)",
			mSFI.Clock.Now(), mCert.Clock.Now())
	}
	if mSFI.Count(clock.OpSFICheck) == 0 {
		t.Fatal("no SFI checks charged")
	}
	if mCert.Count(clock.OpSFICheck) != 0 {
		t.Fatal("certified run charged SFI checks")
	}
}

func TestJumpRelocation(t *testing.T) {
	// A backward loop over memory ops must still terminate correctly
	// after rewriting shifts every instruction index.
	src := `
        loadi r0, 0
        loadi r1, 8
        loadi r2, 0
        loadi r4, 1
loop:   jge   r0, r1, done
        ld8   r3, [r0+0]
        add   r2, r2, r3
        st8   [r0+0], r2
        add   r0, r0, r4
        jmp   loop
done:   halt  r2
`
	p := MustAssemble(src)
	q, err := Rewrite(p)
	if err != nil {
		t.Fatal(err)
	}
	mem := make([]byte, 16)
	for i := range mem {
		mem[i] = 1
	}
	e := Exec{EnforceSandbox: true}
	res, err := e.Run(q, mem)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 8 {
		t.Fatalf("ret = %d, want 8", res.Ret)
	}
}

// Property: rewriting preserves results for straight-line arithmetic
// programs over random inputs.
func TestRewritePreservationProperty(t *testing.T) {
	src := `
        ld64  r1, [r0+0]
        ld64  r2, [r0+8]
        add   r3, r1, r2
        st64  [r0+16], r3
        halt  r3
`
	p := MustAssemble(src)
	q, err := Rewrite(p)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b uint64) bool {
		mem1 := make([]byte, 32)
		mem2 := make([]byte, 32)
		for i := 0; i < 8; i++ {
			mem1[i] = byte(a >> (56 - 8*i))
			mem1[8+i] = byte(b >> (56 - 8*i))
		}
		copy(mem2, mem1)
		var plain Exec
		r1, err1 := plain.Run(p, mem1)
		sandboxed := Exec{EnforceSandbox: true}
		r2, err2 := sandboxed.Run(q, mem2)
		if err1 != nil || err2 != nil {
			return false
		}
		return r1.Ret == r2.Ret && r1.Ret == a+b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestOpcodeString(t *testing.T) {
	if OpHalt.String() != "halt" || OpCheck.String() != "check" {
		t.Fatal("opcode names")
	}
	if Opcode(99).String() != "op99" {
		t.Fatal("unknown opcode name")
	}
}

func TestInstrString(t *testing.T) {
	cases := map[string]Instr{
		"halt r1":        {Op: OpHalt, A: 1},
		"loadi r2, 7":    {Op: OpLoadI, A: 2, Imm: 7},
		"add r1, r2, r3": {Op: OpAdd, A: 1, B: 2, C: 3},
		"ld8 r1, [r2+4]": {Op: OpLd8, A: 1, B: 2, Imm: 4},
		"st8 [r2+4], r1": {Op: OpSt8, A: 1, B: 2, Imm: 4},
		"jmp 3":          {Op: OpJmp, Imm: 3},
		"jeq r1, r2, 5":  {Op: OpJeq, A: 1, B: 2, Imm: 5},
		"check r2+4":     {Op: OpCheck, B: 2, Imm: 4},
		"mov r1, r2":     {Op: OpMov, A: 1, B: 2},
		"addi r1, r2, 9": {Op: OpAddI, A: 1, B: 2, Imm: 9},
	}
	for want, ins := range cases {
		if got := ins.String(); got != want {
			t.Errorf("String = %q, want %q", got, want)
		}
	}
}

func TestRegressionOverflowingEffectiveAddress(t *testing.T) {
	// Regression: an effective address near 2^64 once wrapped past the
	// bounds check and crashed the interpreter.
	p := Program{
		{Op: OpLoadI, A: 0, Imm: -1}, // r0 = 0xFFFF_FFFF_FFFF_FFFF
		{Op: OpLd64, A: 1, B: 0},     // load at ~2^64
		{Op: OpHalt, A: 1},
	}
	var e Exec
	if _, err := e.Run(p, make([]byte, 64)); !errors.Is(err, ErrMemFault) {
		t.Fatalf("err = %v, want ErrMemFault", err)
	}
	// Same for stores, and for small negative offsets from zero.
	p2 := Program{
		{Op: OpLoadI, A: 0, Imm: 0},
		{Op: OpSt64, A: 1, B: 0, Imm: -8},
		{Op: OpHalt, A: 1},
	}
	if _, err := e.Run(p2, make([]byte, 64)); !errors.Is(err, ErrMemFault) {
		t.Fatalf("negative offset: err = %v, want ErrMemFault", err)
	}
}

func TestRegressionOutOfRangeRegisterFields(t *testing.T) {
	// Regression: register fields beyond NumRegs once indexed past the
	// register file and panicked.
	p := Program{{Op: OpMov, A: 17, B: 3}, {Op: OpHalt}}
	var e Exec
	if _, err := e.Run(p, nil); !errors.Is(err, ErrBadInstr) {
		t.Fatalf("err = %v, want ErrBadInstr", err)
	}
}

// TestRunChargesEveryExit pins the batched accounting: whichever way a
// run ends, the meter's OpVMInstr and OpSFICheck tallies move by
// exactly the run's Result.Instrs and Result.Checks, and the clock by
// their cost.
func TestRunChargesEveryExit(t *testing.T) {
	rewrite := func(src string) Program {
		q, err := Rewrite(MustAssemble(src))
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	cases := []struct {
		name    string
		prog    Program
		mem     int
		enforce bool
		fuel    uint64
		wantErr error
	}{
		{"halt", rewrite(sumProgram), 128, true, 0, nil},
		{"out-of-fuel", MustAssemble("loop: jmp loop\nhalt r0"), 0, false, 100, ErrOutOfFuel},
		{"mem-fault", rewrite("loadi r0, 60\nld64 r1, [r0+0]\nhalt r1"), 64, true, 0, ErrMemFault},
		{"bad-jump", Program{{Op: OpLoadI, A: 1, Imm: 7}, {Op: OpJmp, Imm: 99}}, 0, false, 0, ErrBadJump},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			meter := clock.NewMeter(clock.DefaultCosts())
			e := Exec{Meter: meter, Fuel: c.fuel, EnforceSandbox: c.enforce}
			start := meter.Clock.Now()
			res, err := e.Run(c.prog, make([]byte, c.mem))
			if !errors.Is(err, c.wantErr) {
				t.Fatalf("err = %v, want %v", err, c.wantErr)
			}
			if res.Instrs == 0 {
				t.Fatal("run counted no instructions")
			}
			if c.enforce && res.Checks == 0 {
				t.Fatal("sandboxed run counted no checks")
			}
			if got := meter.Count(clock.OpVMInstr); got != res.Instrs {
				t.Fatalf("OpVMInstr tally %d, Result.Instrs %d", got, res.Instrs)
			}
			if got := meter.Count(clock.OpSFICheck); got != res.Checks {
				t.Fatalf("OpSFICheck tally %d, Result.Checks %d", got, res.Checks)
			}
			want := res.Instrs*meter.Model.Cost(clock.OpVMInstr) + res.Checks*meter.Model.Cost(clock.OpSFICheck)
			if got := meter.Clock.Now() - start; got != want {
				t.Fatalf("clock advanced %d cycles, want %d", got, want)
			}
		})
	}
}
