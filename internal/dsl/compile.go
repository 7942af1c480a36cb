package dsl

import (
	"fmt"
	"strings"
)

// opcode is a Program instruction operation.
type opcode uint8

const (
	opLoad   opcode = iota + 1 // push src.Value(a, b)
	opMax                      // reduce top a values to their maximum
	opMin                      // reduce top a values to their minimum
	opKthMax                   // reduce top b values to their a-th largest
	opKthMin                   // reduce top b values to their a-th smallest
)

type instr struct {
	op   opcode
	a, b uint32
}

// Program is a predicate compiled to a flat bytecode program. Compilation
// happens once, at registration time; Eval runs on the critical path with
// no parsing, no map lookups and no heap allocation. This is the
// reproduction's substitute for the paper's libgccjit backend (see
// DESIGN.md §2).
//
// Programs are immutable after compilation and safe for concurrent Eval.
type Program struct {
	source    string
	instrs    []instr
	maxStack  int
	dependsOn []int
}

// CompileResolved lowers a resolved predicate to bytecode.
func CompileResolved(src string, r *Resolved) *Program {
	p := &Program{source: src, dependsOn: append([]int{}, r.DependsOn...)}
	p.emit(r.Root)
	p.maxStack = measureStack(r.Root)
	return p
}

// Compile parses, resolves and lowers a predicate source string in one
// step.
func Compile(src string, env Env) (*Program, error) {
	ast, err := Parse(src)
	if err != nil {
		return nil, err
	}
	resolved, err := Resolve(ast, env)
	if err != nil {
		return nil, err
	}
	return CompileResolved(src, resolved), nil
}

func (p *Program) emit(n RNode) {
	switch v := n.(type) {
	case *RLoad:
		p.instrs = append(p.instrs, instr{op: opLoad, a: uint32(v.Node), b: uint32(v.Type)})
	case *ROp:
		for _, a := range v.Args {
			p.emit(a)
		}
		switch v.Op {
		case OpMax:
			p.instrs = append(p.instrs, instr{op: opMax, a: uint32(len(v.Args))})
		case OpMin:
			p.instrs = append(p.instrs, instr{op: opMin, a: uint32(len(v.Args))})
		case OpKthMax:
			p.instrs = append(p.instrs, instr{op: opKthMax, a: uint32(v.K), b: uint32(len(v.Args))})
		case OpKthMin:
			p.instrs = append(p.instrs, instr{op: opKthMin, a: uint32(v.K), b: uint32(len(v.Args))})
		}
	}
}

// measureStack computes the evaluation stack high-water mark: evaluating
// argument i happens with i earlier results already on the stack.
func measureStack(n RNode) int {
	switch v := n.(type) {
	case *RLoad:
		return 1
	case *ROp:
		max := 1
		for i, a := range v.Args {
			if need := i + measureStack(a); need > max {
				max = need
			}
		}
		return max
	default:
		return 1
	}
}

// Eval computes the predicate's current stability frontier from src.
// It performs no heap allocation for predicates whose evaluation depth is
// at most 64 values (effectively all practical predicates).
func (p *Program) Eval(src Source) uint64 {
	var local [64]uint64
	stack := local[:0]
	if p.maxStack > len(local) {
		stack = make([]uint64, 0, p.maxStack)
	}
	for _, in := range p.instrs {
		switch in.op {
		case opLoad:
			stack = append(stack, src.Value(int(in.a), uint16(in.b)))
		case opMax:
			base := len(stack) - int(in.a)
			m := stack[base]
			for _, v := range stack[base+1:] {
				if v > m {
					m = v
				}
			}
			stack = append(stack[:base], m)
		case opMin:
			base := len(stack) - int(in.a)
			m := stack[base]
			for _, v := range stack[base+1:] {
				if v < m {
					m = v
				}
			}
			stack = append(stack[:base], m)
		case opKthMax:
			base := len(stack) - int(in.b)
			seg := stack[base:]
			sortU64(seg)
			v := seg[len(seg)-int(in.a)]
			stack = append(stack[:base], v)
		case opKthMin:
			base := len(stack) - int(in.b)
			seg := stack[base:]
			sortU64(seg)
			v := seg[int(in.a)-1]
			stack = append(stack[:base], v)
		}
	}
	if len(stack) != 1 {
		// Unreachable for programs produced by CompileResolved.
		return 0
	}
	return stack[0]
}

// Source returns the predicate source string the program was compiled from.
func (p *Program) Source() string { return p.source }

// DependsOn lists the distinct WAN node indexes the program reads,
// ascending. Applications use it to decide whether a predicate is affected
// by a node failure (paper §III-E).
func (p *Program) DependsOn() []int {
	out := make([]int, len(p.dependsOn))
	copy(out, p.dependsOn)
	return out
}

// Cell is one (node, stability type) recorder-table coordinate a program
// reads.
type Cell struct {
	Node int
	Type uint16
}

// Cells lists the distinct recorder-table cells the program loads, in
// first-load order. A node's Explain uses it to ask, per dependent peer,
// which ack value the predicate actually consumed.
func (p *Program) Cells() []Cell {
	seen := make(map[Cell]struct{}, len(p.instrs))
	var out []Cell
	for _, in := range p.instrs {
		if in.op != opLoad {
			continue
		}
		c := Cell{Node: int(in.a), Type: uint16(in.b)}
		if _, dup := seen[c]; dup {
			continue
		}
		seen[c] = struct{}{}
		out = append(out, c)
	}
	return out
}

// Len returns the number of instructions (tooling/diagnostics).
func (p *Program) Len() int { return len(p.instrs) }

// Disassemble renders the program one instruction per line, for the
// predcheck tool and debugging.
func (p *Program) Disassemble() string {
	var b strings.Builder
	for i, in := range p.instrs {
		switch in.op {
		case opLoad:
			fmt.Fprintf(&b, "%3d  LOAD   node=%d type=%d\n", i, in.a, in.b)
		case opMax:
			fmt.Fprintf(&b, "%3d  MAX    n=%d\n", i, in.a)
		case opMin:
			fmt.Fprintf(&b, "%3d  MIN    n=%d\n", i, in.a)
		case opKthMax:
			fmt.Fprintf(&b, "%3d  KTHMAX k=%d n=%d\n", i, in.a, in.b)
		case opKthMin:
			fmt.Fprintf(&b, "%3d  KTHMIN k=%d n=%d\n", i, in.a, in.b)
		}
	}
	return b.String()
}
