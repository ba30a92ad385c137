package vm

// Predecoded fast path. The interpreter's hot loop used to re-derive operand
// fields and re-dispatch on (Format, Op, Func) for every dynamic instruction.
// The decode cache now stores a flat µop per text word — an operation kind
// plus resolved register numbers and a pre-folded immediate — so executing a
// cached instruction is one dense switch on the kind. Predecode happens at
// most once per cache fill; the invalidation points (stores that change a
// text word, InvalidateRange) drop the µop together with the decoded
// instruction, so self-modifying code and the decompressor's buffer writes
// are re-predecoded. A store that leaves a word's value unchanged keeps its
// µop: predecode depends on the word alone, so the cached entry is exact.
//
// The µop encoding folds the OpLit/OpReg distinction away: a literal operand
// is represented as rb = RegZero (hardwired zero) plus the literal in imm, so
// every ALU kind computes its b operand as Reg[rb] + imm with no branch.
// LDAH folds its <<16 into imm the same way, merging with LDA.
//
// Everything rare or faulting — system calls via uSys aside — keeps the
// uSlow kind and delegates to ExecInst, which preserves the exact trap
// messages and cycle charges of the reference interpreter. The fast path is
// cycle-for-cycle identical to stepSlow; TestFastPathEquivalence checks that
// over randomized programs, and Machine.DisableFastPath forces the reference
// path at runtime.

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/objfile"
)

// µop kinds. uInvalid is deliberately the zero value: a zeroed or
// invalidated cache entry reads as "not yet predecoded", so the hot loop
// needs no separate valid flag.
const (
	uInvalid uint8 = iota // cache entry empty or invalidated
	uSlow                 // traps, virtual opcodes, anything irregular
	uSys                  // pal: syscall, func in imm

	uLDA // ra <- Reg[rb] + imm (LDAH pre-shifts imm at predecode)
	uLDW
	uSTW
	uLDB
	uSTB

	uBR  // br/bsr: link ra, jump; imm is byte displacement
	uBEQ // conditional branches test Reg[ra]
	uBNE
	uBLT
	uBLE
	uBGT
	uBGE
	uJump

	uAdd // ALU kinds: rc <- Reg[ra] op (Reg[rb] + imm)
	uSub
	uCmpEQ
	uCmpLT
	uCmpLE
	uCmpULT
	uCmpULE
	uAnd
	uBic
	uBis
	uOrnot
	uXor
	uEqv
	uSll
	uSrl
	uSra
	uMul
	uMulh
	uDiv
	uMod
)

const regZero = uint8(isa.RegZero)

// aluKind maps an operate-group (op, func) pair to its µop kind, or uSlow
// for unknown function codes (which must trap with the reference message).
func aluKind(op, fn uint32) uint8 {
	switch op {
	case isa.OpIntA:
		switch fn {
		case isa.FnADD:
			return uAdd
		case isa.FnSUB:
			return uSub
		case isa.FnCMPEQ:
			return uCmpEQ
		case isa.FnCMPLT:
			return uCmpLT
		case isa.FnCMPLE:
			return uCmpLE
		case isa.FnCMPULT:
			return uCmpULT
		case isa.FnCMPULE:
			return uCmpULE
		}
	case isa.OpIntL:
		switch fn {
		case isa.FnAND:
			return uAnd
		case isa.FnBIC:
			return uBic
		case isa.FnBIS:
			return uBis
		case isa.FnORNOT:
			return uOrnot
		case isa.FnXOR:
			return uXor
		case isa.FnEQV:
			return uEqv
		}
	case isa.OpIntS:
		switch fn {
		case isa.FnSLL:
			return uSll
		case isa.FnSRL:
			return uSrl
		case isa.FnSRA:
			return uSra
		}
	case isa.OpIntM:
		switch fn {
		case isa.FnMUL:
			return uMul
		case isa.FnMULH:
			return uMulh
		case isa.FnDIV:
			return uDiv
		case isa.FnMOD:
			return uMod
		}
	}
	return uSlow
}

// predecode fills c with the µop form of in; the non-uInvalid kind it
// assigns is what marks the entry live.
func predecode(c *cachedInst, in isa.Inst) {
	c.inst = in
	c.kind = uSlow
	c.ra, c.rb, c.rc = uint8(in.RA), uint8(in.RB), uint8(in.RC)
	c.imm = 0
	switch in.Format {
	case isa.FormatPal:
		c.kind = uSys
		c.imm = int32(in.Func)
	case isa.FormatMem:
		c.imm = in.Disp
		switch in.Op {
		case isa.OpLDA:
			c.kind = uLDA
		case isa.OpLDAH:
			c.kind = uLDA
			c.imm = in.Disp << 16
		case isa.OpLDW:
			c.kind = uLDW
		case isa.OpSTW:
			c.kind = uSTW
		case isa.OpLDB:
			c.kind = uLDB
		case isa.OpSTB:
			c.kind = uSTB
		}
	case isa.FormatBranch:
		switch in.Op {
		case isa.OpBR, isa.OpBSR:
			c.kind = uBR
		case isa.OpBEQ:
			c.kind = uBEQ
		case isa.OpBNE:
			c.kind = uBNE
		case isa.OpBLT:
			c.kind = uBLT
		case isa.OpBLE:
			c.kind = uBLE
		case isa.OpBGT:
			c.kind = uBGT
		case isa.OpBGE:
			c.kind = uBGE
			// OpBSRX stays uSlow: it must trap via ExecInst.
		}
		c.imm = in.Disp * isa.WordSize
	case isa.FormatOpReg:
		c.kind = aluKind(in.Op, in.Func)
	case isa.FormatOpLit:
		// Literal operand: rb = zero register, literal folded into imm, so
		// the fast path's b = Reg[rb] + imm yields the literal.
		c.rb = regZero
		c.imm = int32(in.Lit)
		c.kind = aluKind(in.Op, in.Func)
	case isa.FormatJump:
		if in.Op == isa.OpJump {
			c.kind = uJump
		}
	}
}

// Step executes a single instruction (or a hook entry), whatever the
// instruction limit; on a halted machine it does nothing. It asks the hook
// for its range on every call, where Run asks once per hook entry.
func (m *Machine) Step() error {
	pc := m.PC
	if h := m.Hook; h != nil {
		if lo, hi := h.Range(); pc >= lo && pc < hi {
			return h.Enter(m)
		}
	}
	return m.run(0, 0, m.Instructions+1)
}

// run executes instructions from m.PC until the machine halts, the
// instruction count reaches limit, or the PC enters [lo, hi) (a hook's
// range, for the caller to enter). It is the interpreter's hot loop: the
// bounds are locals, so an instruction pays two compares for the hook, and
// a predecoded one runs without a function call.
//
// Aligned fetches inside the text segment take the predecoded fast path:
// one dense switch over the cached µop. Everything else — unaligned PCs,
// execution outside text, uSlow µops, or DisableFastPath — goes through the
// reference path (stepSlow / ExecInst), with identical simulated behaviour:
// same register, memory, cycle, and trap effects.
func (m *Machine) run(lo, hi uint32, limit uint64) error {
	for !m.Halted && m.Instructions < limit {
		pc := m.PC
		if pc >= lo && pc < hi {
			return nil
		}
		ic := m.icache
		i := uint(uint32(pc-objfile.TextBase) >> 2)
		if pc&3 != 0 || i >= uint(len(ic)) || m.DisableFastPath {
			if err := m.stepSlow(pc); err != nil {
				return err
			}
			continue
		}
		c := &ic[i]
		if c.kind == uInvalid {
			predecode(c, isa.Decode(getWord(m.Mem, pc)))
			m.Telem.Predecodes++
		}
		if m.ICache != nil || m.Profile != nil {
			if m.ICache != nil {
				m.Cycles += m.ICache.access(pc)
			}
			if m.Profile != nil && i < uint(len(m.Profile)) {
				m.Profile[i]++
			}
		}
		m.Instructions++
		next := pc + isa.WordSize
		// Masking the (already in-range) register numbers lets the compiler
		// drop the bounds check on every Reg access below.
		ra, rb, rc := c.ra&31, c.rb&31, c.rc&31
		switch c.kind {
		case uSlow:
			m.Telem.SlowDispatches++
			nx, err := m.exec(&c.inst, pc)
			if err != nil {
				return err
			}
			m.PC = nx
			continue
		case uSys:
			redirected, err := m.syscall(uint32(c.imm))
			if err != nil {
				return err
			}
			m.Cycles += CostSyscall
			if m.Halted || redirected {
				continue // m.PC is already final
			}

		case uLDA:
			if ra != regZero {
				m.Reg[ra] = m.Reg[rb] + c.imm
			}
			m.Cycles += CostOp
		case uLDW:
			addr := uint32(m.Reg[rb] + c.imm)
			if addr%isa.WordSize != 0 || addr > uint32(len(m.Mem))-4 {
				_, err := m.ReadWord(addr) // reference trap message
				return err
			}
			if ra != regZero {
				m.Reg[ra] = int32(getWord(m.Mem, addr))
			}
			m.Cycles += CostMem
		case uSTW:
			addr := uint32(m.Reg[rb] + c.imm)
			if addr%isa.WordSize != 0 || addr > uint32(len(m.Mem))-4 {
				return m.WriteWord(addr, uint32(m.Reg[ra]))
			}
			m.storeWord(addr, uint32(m.Reg[ra]))
			m.Cycles += CostMem
		case uLDB:
			addr := uint32(m.Reg[rb] + c.imm)
			if addr >= uint32(len(m.Mem)) {
				return &TrapError{pc, fmt.Sprintf("byte read out of bounds at %#x", addr)}
			}
			if ra != regZero {
				m.Reg[ra] = int32(m.Mem[addr])
			}
			m.Cycles += CostMem
		case uSTB:
			addr := uint32(m.Reg[rb] + c.imm)
			if addr >= uint32(len(m.Mem)) {
				return &TrapError{pc, fmt.Sprintf("byte write out of bounds at %#x", addr)}
			}
			m.storeByte(addr, byte(m.Reg[ra]))
			m.Cycles += CostMem

		case uBR:
			if ra != regZero {
				m.Reg[ra] = int32(next)
			}
			next += uint32(c.imm)
			m.Cycles += CostBranchTaken
		case uBEQ:
			if m.Reg[ra] == 0 {
				next += uint32(c.imm)
				m.Cycles += CostBranchTaken
			} else {
				m.Cycles += CostBranchNotTaken
			}
		case uBNE:
			if m.Reg[ra] != 0 {
				next += uint32(c.imm)
				m.Cycles += CostBranchTaken
			} else {
				m.Cycles += CostBranchNotTaken
			}
		case uBLT:
			if m.Reg[ra] < 0 {
				next += uint32(c.imm)
				m.Cycles += CostBranchTaken
			} else {
				m.Cycles += CostBranchNotTaken
			}
		case uBLE:
			if m.Reg[ra] <= 0 {
				next += uint32(c.imm)
				m.Cycles += CostBranchTaken
			} else {
				m.Cycles += CostBranchNotTaken
			}
		case uBGT:
			if m.Reg[ra] > 0 {
				next += uint32(c.imm)
				m.Cycles += CostBranchTaken
			} else {
				m.Cycles += CostBranchNotTaken
			}
		case uBGE:
			if m.Reg[ra] >= 0 {
				next += uint32(c.imm)
				m.Cycles += CostBranchTaken
			} else {
				m.Cycles += CostBranchNotTaken
			}
		case uJump:
			target := uint32(m.Reg[rb]) &^ 3
			if ra != regZero {
				m.Reg[ra] = int32(next)
			}
			next = target
			m.Cycles += CostJump

		case uAdd:
			if rc != regZero {
				m.Reg[rc] = m.Reg[ra] + m.Reg[rb] + c.imm
			}
			m.Cycles += CostOp
		case uSub:
			if rc != regZero {
				m.Reg[rc] = m.Reg[ra] - (m.Reg[rb] + c.imm)
			}
			m.Cycles += CostOp
		case uCmpEQ:
			if rc != regZero {
				m.Reg[rc] = boolReg(m.Reg[ra] == m.Reg[rb]+c.imm)
			}
			m.Cycles += CostOp
		case uCmpLT:
			if rc != regZero {
				m.Reg[rc] = boolReg(m.Reg[ra] < m.Reg[rb]+c.imm)
			}
			m.Cycles += CostOp
		case uCmpLE:
			if rc != regZero {
				m.Reg[rc] = boolReg(m.Reg[ra] <= m.Reg[rb]+c.imm)
			}
			m.Cycles += CostOp
		case uCmpULT:
			if rc != regZero {
				m.Reg[rc] = boolReg(uint32(m.Reg[ra]) < uint32(m.Reg[rb]+c.imm))
			}
			m.Cycles += CostOp
		case uCmpULE:
			if rc != regZero {
				m.Reg[rc] = boolReg(uint32(m.Reg[ra]) <= uint32(m.Reg[rb]+c.imm))
			}
			m.Cycles += CostOp
		case uAnd:
			if rc != regZero {
				m.Reg[rc] = m.Reg[ra] & (m.Reg[rb] + c.imm)
			}
			m.Cycles += CostOp
		case uBic:
			if rc != regZero {
				m.Reg[rc] = m.Reg[ra] &^ (m.Reg[rb] + c.imm)
			}
			m.Cycles += CostOp
		case uBis:
			if rc != regZero {
				m.Reg[rc] = m.Reg[ra] | (m.Reg[rb] + c.imm)
			}
			m.Cycles += CostOp
		case uOrnot:
			if rc != regZero {
				m.Reg[rc] = m.Reg[ra] | ^(m.Reg[rb] + c.imm)
			}
			m.Cycles += CostOp
		case uXor:
			if rc != regZero {
				m.Reg[rc] = m.Reg[ra] ^ (m.Reg[rb] + c.imm)
			}
			m.Cycles += CostOp
		case uEqv:
			if rc != regZero {
				m.Reg[rc] = m.Reg[ra] ^ ^(m.Reg[rb] + c.imm)
			}
			m.Cycles += CostOp
		case uSll:
			if rc != regZero {
				m.Reg[rc] = m.Reg[ra] << (uint32(m.Reg[rb]+c.imm) & 31)
			}
			m.Cycles += CostOp
		case uSrl:
			if rc != regZero {
				m.Reg[rc] = int32(uint32(m.Reg[ra]) >> (uint32(m.Reg[rb]+c.imm) & 31))
			}
			m.Cycles += CostOp
		case uSra:
			if rc != regZero {
				m.Reg[rc] = m.Reg[ra] >> (uint32(m.Reg[rb]+c.imm) & 31)
			}
			m.Cycles += CostOp
		case uMul:
			if rc != regZero {
				m.Reg[rc] = int32(int64(m.Reg[ra]) * int64(m.Reg[rb]+c.imm))
			}
			m.Cycles += CostOp
		case uMulh:
			if rc != regZero {
				m.Reg[rc] = int32(int64(m.Reg[ra]) * int64(m.Reg[rb]+c.imm) >> 32)
			}
			m.Cycles += CostOp
		case uDiv:
			b := m.Reg[rb] + c.imm
			if b == 0 {
				return &TrapError{pc, "integer division by zero"}
			}
			if rc != regZero {
				m.Reg[rc] = m.Reg[ra] / b
			}
			m.Cycles += CostOp
		case uMod:
			b := m.Reg[rb] + c.imm
			if b == 0 {
				return &TrapError{pc, "integer remainder by zero"}
			}
			if rc != regZero {
				m.Reg[rc] = m.Reg[ra] % b
			}
			m.Cycles += CostOp
		}
		m.PC = next
	}
	return nil
}

func boolReg(cond bool) int32 {
	if cond {
		return 1
	}
	return 0
}
