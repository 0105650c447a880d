package sandbox

import (
	"encoding/binary"
	"errors"
	"fmt"

	"paramecium/internal/clock"
)

// Execution errors.
var (
	ErrOutOfFuel    = errors.New("sandbox: out of fuel")
	ErrMemFault     = errors.New("sandbox: memory access out of bounds")
	ErrBadInstr     = errors.New("sandbox: illegal instruction")
	ErrBadJump      = errors.New("sandbox: jump out of program")
	ErrNotSandboxed = errors.New("sandbox: program touches memory without a preceding check")
)

// DefaultFuel bounds run length when Exec.Fuel is zero.
const DefaultFuel = 1_000_000

// Result reports one program execution.
type Result struct {
	Ret    uint64 // value of the register named by HALT
	Instrs uint64 // instructions executed (checks included)
	Checks uint64 // SFI checks executed
}

// Exec runs PVM programs against a data segment, charging virtual
// cycles per instruction and per SFI check. The charges are billed
// once per run, as two batched counts, whatever way the run ends.
type Exec struct {
	// Meter receives OpVMInstr and OpSFICheck charges; nil disables
	// accounting (unit tests of the ISA itself).
	Meter *clock.Meter
	// Fuel bounds the number of executed instructions per run.
	Fuel uint64
	// EnforceSandbox requires every memory access to go through the
	// dedicated sandbox register (i.e. the program was SFI-rewritten).
	// With it off, out-of-bounds accesses simply fail — the behaviour
	// trusted, certified components get.
	EnforceSandbox bool
}

// Run executes prog against mem. The data segment length must be a
// power of two when EnforceSandbox is set (the masking requirement of
// the SFI scheme). Every instruction executed and every check taken is
// charged — the counts in the Result — on success and on failure
// alike.
func (e *Exec) Run(prog Program, mem []byte) (Result, error) {
	res, err := e.run(prog, mem)
	if e.Meter != nil {
		e.Meter.ChargeNFor(clock.KernelDomain, clock.OpVMInstr, res.Instrs)
		e.Meter.ChargeNFor(clock.KernelDomain, clock.OpSFICheck, res.Checks)
	}
	return res, err
}

// run is the interpreter loop. It only counts; Run charges the counts.
func (e *Exec) run(prog Program, mem []byte) (Result, error) {
	var res Result
	fuel := e.Fuel
	if fuel == 0 {
		fuel = DefaultFuel
	}
	if e.EnforceSandbox && len(mem)&(len(mem)-1) != 0 {
		return res, fmt.Errorf("%w: segment size %d not a power of two", ErrMemFault, len(mem))
	}
	mask := uint64(0)
	if len(mem) > 0 {
		mask = uint64(len(mem) - 1)
	}

	var regs [NumRegs]uint64
	pc := 0
	// checkedVia tracks whether the sandbox register currently holds a
	// masked address (set by OpCheck, cleared by anything clobbering it).
	checkedValid := false

	for {
		if res.Instrs >= fuel {
			return res, fmt.Errorf("%w after %d instructions", ErrOutOfFuel, res.Instrs)
		}
		if pc < 0 || pc >= len(prog) {
			return res, fmt.Errorf("%w: pc=%d", ErrBadJump, pc)
		}
		ins := prog[pc]
		res.Instrs++

		// The interpreter is total even on unverified programs: a
		// register field out of range is an illegal instruction, not
		// a crash of the (kernel-resident) interpreter.
		if ins.A >= NumRegs || ins.B >= NumRegs || ins.C >= NumRegs {
			return res, fmt.Errorf("%w: register out of range at pc=%d", ErrBadInstr, pc)
		}

		switch ins.Op {
		case OpHalt:
			res.Ret = regs[ins.A]
			return res, nil
		case OpLoadI:
			regs[ins.A] = uint64(ins.Imm)
		case OpMov:
			regs[ins.A] = regs[ins.B]
		case OpAdd:
			regs[ins.A] = regs[ins.B] + regs[ins.C]
		case OpSub:
			regs[ins.A] = regs[ins.B] - regs[ins.C]
		case OpMul:
			regs[ins.A] = regs[ins.B] * regs[ins.C]
		case OpAnd:
			regs[ins.A] = regs[ins.B] & regs[ins.C]
		case OpOr:
			regs[ins.A] = regs[ins.B] | regs[ins.C]
		case OpXor:
			regs[ins.A] = regs[ins.B] ^ regs[ins.C]
		case OpShl:
			regs[ins.A] = regs[ins.B] << (regs[ins.C] & 63)
		case OpShr:
			regs[ins.A] = regs[ins.B] >> (regs[ins.C] & 63)
		case OpAddI:
			regs[ins.A] = regs[ins.B] + uint64(ins.Imm)
		case OpCheck:
			res.Checks++
			regs[SandboxReg] = (regs[ins.B] + uint64(ins.Imm)) & mask
			checkedValid = true
			pc++
			continue
		case OpLd8, OpLd16, OpLd32, OpLd64:
			addr, err := e.effAddr(ins, regs, len(mem), checkedValid)
			if err != nil {
				return res, err
			}
			size := loadSize(ins.Op)
			// Subtraction form: addr+size would overflow for addresses
			// near 2^64 (a wrapping effective address is just another
			// out-of-bounds access).
			if addr >= uint64(len(mem)) || uint64(len(mem))-addr < uint64(size) {
				return res, fmt.Errorf("%w: load %d bytes at %d (segment %d)", ErrMemFault, size, addr, len(mem))
			}
			regs[ins.A] = loadVal(mem[addr:addr+uint64(size)], size)
		case OpSt8, OpSt16, OpSt32, OpSt64:
			addr, err := e.effAddr(ins, regs, len(mem), checkedValid)
			if err != nil {
				return res, err
			}
			size := loadSize(ins.Op)
			if addr >= uint64(len(mem)) || uint64(len(mem))-addr < uint64(size) {
				return res, fmt.Errorf("%w: store %d bytes at %d (segment %d)", ErrMemFault, size, addr, len(mem))
			}
			storeVal(mem[addr:addr+uint64(size)], size, regs[ins.A])
		case OpJmp:
			pc = int(ins.Imm)
			continue
		case OpJeq:
			if regs[ins.A] == regs[ins.B] {
				pc = int(ins.Imm)
				continue
			}
		case OpJne:
			if regs[ins.A] != regs[ins.B] {
				pc = int(ins.Imm)
				continue
			}
		case OpJlt:
			if regs[ins.A] < regs[ins.B] {
				pc = int(ins.Imm)
				continue
			}
		case OpJge:
			if regs[ins.A] >= regs[ins.B] {
				pc = int(ins.Imm)
				continue
			}
		default:
			return res, fmt.Errorf("%w: %v at pc=%d", ErrBadInstr, ins.Op, pc)
		}
		if ins.A == SandboxReg || (ins.Op == OpMov && ins.A == SandboxReg) {
			// Anything writing the sandbox register other than OpCheck
			// invalidates it.
			checkedValid = false
		}
		pc++
	}
}

// effAddr computes the effective address of a memory instruction. In
// sandbox-enforcing mode the access must use the dedicated register
// freshly set by a check.
func (e *Exec) effAddr(ins Instr, regs [NumRegs]uint64, segLen int, checkedValid bool) (uint64, error) {
	if e.EnforceSandbox {
		if ins.B != SandboxReg || ins.Imm != 0 || !checkedValid {
			return 0, fmt.Errorf("%w: %v", ErrNotSandboxed, ins)
		}
		return regs[SandboxReg], nil
	}
	return regs[ins.B] + uint64(ins.Imm), nil
}

func loadSize(op Opcode) int {
	switch op {
	case OpLd8, OpSt8:
		return 1
	case OpLd16, OpSt16:
		return 2
	case OpLd32, OpSt32:
		return 4
	default:
		return 8
	}
}

func loadVal(b []byte, size int) uint64 {
	switch size {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(binary.BigEndian.Uint16(b))
	case 4:
		return uint64(binary.BigEndian.Uint32(b))
	default:
		return binary.BigEndian.Uint64(b)
	}
}

func storeVal(b []byte, size int, v uint64) {
	switch size {
	case 1:
		b[0] = byte(v)
	case 2:
		binary.BigEndian.PutUint16(b, uint16(v))
	case 4:
		binary.BigEndian.PutUint32(b, uint32(v))
	default:
		binary.BigEndian.PutUint64(b, v)
	}
}
