package sandbox

import (
	"fmt"
	"strconv"
	"strings"
)

// Assemble parses PVM assembler text into a program. The syntax is one
// instruction per line, with ';' or '#' comments and optional
// "label:" definitions; jump targets may be labels or absolute
// instruction indices.
//
//	; accept frames longer than 64 bytes
//	        loadi r1, 64
//	        ld64  r2, [r0+0]      ; packet length word
//	        jlt   r2, r1, drop
//	        loadi r0, 1
//	        halt  r0
//	drop:   loadi r0, 0
//	        halt  r0
func Assemble(src string) (Program, error) {
	type pending struct {
		instr int
		label string
		line  int
	}
	var prog Program
	labels := make(map[string]int)
	var fixups []pending

	lines := strings.Split(src, "\n")
	for lineNo, raw := range lines {
		line := raw
		if i := strings.IndexAny(line, ";#"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		// Labels (possibly followed by an instruction on the same line).
		for {
			i := strings.Index(line, ":")
			if i < 0 {
				break
			}
			label := strings.TrimSpace(line[:i])
			if !isIdent(label) {
				return nil, fmt.Errorf("sandbox: line %d: bad label %q", lineNo+1, label)
			}
			if _, dup := labels[label]; dup {
				return nil, fmt.Errorf("sandbox: line %d: duplicate label %q", lineNo+1, label)
			}
			labels[label] = len(prog)
			line = strings.TrimSpace(line[i+1:])
		}
		if line == "" {
			continue
		}
		ins, labelRef, err := parseInstr(line)
		if err != nil {
			return nil, fmt.Errorf("sandbox: line %d: %w", lineNo+1, err)
		}
		if labelRef != "" {
			fixups = append(fixups, pending{instr: len(prog), label: labelRef, line: lineNo + 1})
		}
		prog = append(prog, ins)
	}
	for _, f := range fixups {
		target, ok := labels[f.label]
		if !ok {
			return nil, fmt.Errorf("sandbox: line %d: undefined label %q", f.line, f.label)
		}
		prog[f.instr].Imm = int64(target)
	}
	return prog, nil
}

// MustAssemble is Assemble that panics on error, for tests and
// built-in programs.
func MustAssemble(src string) Program {
	p, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return p
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func parseInstr(line string) (Instr, string, error) {
	fields := strings.Fields(line)
	mnemonic := strings.ToLower(fields[0])
	argStr := strings.Join(fields[1:], " ")
	args := splitArgs(argStr)

	switch mnemonic {
	case "halt":
		r, err := reg(args, 0)
		return Instr{Op: OpHalt, A: r}, "", err
	case "loadi":
		r, err := reg(args, 0)
		if err != nil {
			return Instr{}, "", err
		}
		imm, err := imm(args, 1)
		return Instr{Op: OpLoadI, A: r, Imm: imm}, "", err
	case "mov":
		a, err := reg(args, 0)
		if err != nil {
			return Instr{}, "", err
		}
		b, err := reg(args, 1)
		return Instr{Op: OpMov, A: a, B: b}, "", err
	case "add", "sub", "mul", "and", "or", "xor", "shl", "shr":
		ops := map[string]Opcode{"add": OpAdd, "sub": OpSub, "mul": OpMul,
			"and": OpAnd, "or": OpOr, "xor": OpXor, "shl": OpShl, "shr": OpShr}
		a, err := reg(args, 0)
		if err != nil {
			return Instr{}, "", err
		}
		b, err := reg(args, 1)
		if err != nil {
			return Instr{}, "", err
		}
		c, err := reg(args, 2)
		return Instr{Op: ops[mnemonic], A: a, B: b, C: c}, "", err
	case "addi":
		a, err := reg(args, 0)
		if err != nil {
			return Instr{}, "", err
		}
		b, err := reg(args, 1)
		if err != nil {
			return Instr{}, "", err
		}
		v, err := imm(args, 2)
		return Instr{Op: OpAddI, A: a, B: b, Imm: v}, "", err
	case "ld8", "ld16", "ld32", "ld64":
		ops := map[string]Opcode{"ld8": OpLd8, "ld16": OpLd16, "ld32": OpLd32, "ld64": OpLd64}
		a, err := reg(args, 0)
		if err != nil {
			return Instr{}, "", err
		}
		b, off, err := memOperand(args, 1)
		return Instr{Op: ops[mnemonic], A: a, B: b, Imm: off}, "", err
	case "st8", "st16", "st32", "st64":
		ops := map[string]Opcode{"st8": OpSt8, "st16": OpSt16, "st32": OpSt32, "st64": OpSt64}
		b, off, err := memOperand(args, 0)
		if err != nil {
			return Instr{}, "", err
		}
		a, err := reg(args, 1)
		return Instr{Op: ops[mnemonic], A: a, B: b, Imm: off}, "", err
	case "jmp":
		if len(args) != 1 {
			return Instr{}, "", fmt.Errorf("jmp takes one target, got %q", argStr)
		}
		if n, err := strconv.ParseInt(args[0], 0, 64); err == nil {
			return Instr{Op: OpJmp, Imm: n}, "", nil
		}
		return Instr{Op: OpJmp}, args[0], nil
	case "jeq", "jne", "jlt", "jge":
		ops := map[string]Opcode{"jeq": OpJeq, "jne": OpJne, "jlt": OpJlt, "jge": OpJge}
		a, err := reg(args, 0)
		if err != nil {
			return Instr{}, "", err
		}
		b, err := reg(args, 1)
		if err != nil {
			return Instr{}, "", err
		}
		if len(args) < 3 {
			return Instr{}, "", fmt.Errorf("%s needs a target", mnemonic)
		}
		if n, err := strconv.ParseInt(args[2], 0, 64); err == nil {
			return Instr{Op: ops[mnemonic], A: a, B: b, Imm: n}, "", nil
		}
		return Instr{Op: ops[mnemonic], A: a, B: b}, args[2], nil
	}
	return Instr{}, "", fmt.Errorf("unknown mnemonic %q", mnemonic)
}

func splitArgs(s string) []string {
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

func reg(args []string, i int) (uint8, error) {
	if i >= len(args) {
		return 0, fmt.Errorf("missing register operand %d", i)
	}
	a := strings.ToLower(args[i])
	if !strings.HasPrefix(a, "r") {
		return 0, fmt.Errorf("bad register %q", args[i])
	}
	n, err := strconv.Atoi(a[1:])
	if err != nil || n < 0 || n >= NumRegs {
		return 0, fmt.Errorf("bad register %q", args[i])
	}
	return uint8(n), nil
}

func imm(args []string, i int) (int64, error) {
	if i >= len(args) {
		return 0, fmt.Errorf("missing immediate operand %d", i)
	}
	n, err := strconv.ParseInt(args[i], 0, 64)
	if err != nil {
		return 0, fmt.Errorf("bad immediate %q", args[i])
	}
	return n, nil
}

// memOperand parses "[rN+off]" or "[rN]".
func memOperand(args []string, i int) (uint8, int64, error) {
	if i >= len(args) {
		return 0, 0, fmt.Errorf("missing memory operand %d", i)
	}
	a := args[i]
	if !strings.HasPrefix(a, "[") || !strings.HasSuffix(a, "]") {
		return 0, 0, fmt.Errorf("bad memory operand %q", a)
	}
	inner := strings.TrimSpace(a[1 : len(a)-1])
	base := inner
	off := int64(0)
	if j := strings.IndexAny(inner, "+-"); j > 0 {
		base = strings.TrimSpace(inner[:j])
		n, err := strconv.ParseInt(strings.ReplaceAll(inner[j:], " ", ""), 0, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("bad offset in %q", a)
		}
		off = n
	}
	r, err := reg([]string{base}, 0)
	if err != nil {
		return 0, 0, err
	}
	return r, off, nil
}
