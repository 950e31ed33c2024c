"""The architectural simulator.

Straight-line interpretation of the ISA with 64-bit wraparound integer
semantics.  Produces a :class:`~repro.sim.trace.Trace` of retired dynamic
instructions with source values, results, effective addresses and control
outcomes recorded — everything the back-end models need.
"""

from __future__ import annotations

from typing import Dict, List

from repro.isa.instructions import ALU_OPS, Opcode
from repro.isa.program import Program
from repro.isa.registers import NUM_REGS, REG_RA, REG_SP
from repro.sim.trace import DynamicInstruction, Trace

_MASK = (1 << 64) - 1
_SIGN = 1 << 63

#: Default stack pointer; grows downward, far below the data segment.
DEFAULT_SP = 0xF000


def to_signed(value: int) -> int:
    """Interpret a 64-bit pattern as a signed integer."""
    value &= _MASK
    return value - (1 << 64) if value & _SIGN else value


def to_unsigned(value: int) -> int:
    """Mask a Python int to its 64-bit pattern."""
    return value & _MASK


class SimulationError(Exception):
    """Raised on illegal execution (bad PC, runaway store, micro-op, ...)."""


class FunctionalSimulator:
    """Executes a program, recording the retirement stream.

    Parameters
    ----------
    program:
        The linked program to run.
    max_instructions:
        Hard budget; execution stops (without error) when exhausted.
    """

    def __init__(self, program: Program, max_instructions: int = 200_000):
        self.program = program
        self.max_instructions = max_instructions
        self.regs: List[int] = [0] * NUM_REGS
        self.regs[REG_SP] = DEFAULT_SP
        self.memory: Dict[int, int] = dict(program.data.values)
        self.pc = program.entry
        self.halted = False

    def run(self) -> Trace:
        """Run to ``HALT`` or the instruction budget; return the trace.

        The interpreter is the trace generator's whole cost, so it runs
        over a per-program decode table of plain ints (no ``Opcode``
        attribute lookups per instruction), keeps every constant and
        helper in a local, and tests opcodes in the suite's dynamic
        frequency order.  Records are built in one constructor call.
        """
        records: List[DynamicInstruction] = []
        append = records.append
        record = DynamicInstruction
        regs = self.regs
        memory = self.memory
        mem_get = memory.get
        alu = _alu
        signed = to_signed
        mask = _MASK
        instructions = self.program.instructions
        decoded = [(int(i.opcode), i.rd, i.rs1, i.rs2, i.imm, i.target, i)
                   for i in instructions]
        n_static = len(decoded)
        pc = self.pc
        budget = self.max_instructions

        # Opcodes as int locals, in dispatch order.
        ADDI, LI, LD, ADD = _ADDI, _LI, _LD, _ADD
        XOR, SRLI, JMP, BLT, ANDI, MOV = _XOR, _SRLI, _JMP, _BLT, _ANDI, _MOV
        CALL, RET, BNE, BEQ, BGE = _CALL, _RET, _BNE, _BEQ, _BGE
        JR, ST, NOP, HALT = _JR, _ST, _NOP, _HALT
        reg_reg = _REG_REG_OPS
        imm_to_reg = _IMM_TO_REG
        ra = REG_RA

        for seq in range(budget):
            if not 0 <= pc < n_static:
                raise SimulationError(f"pc {pc} out of range at seq {seq}")
            op, rd, rs1, rs2, imm, target, inst = decoded[pc]
            next_pc = pc + 1

            if op == ADDI:
                a = regs[rs1]
                r = (a + imm) & mask
                if rd:
                    regs[rd] = r
                append(record(seq, inst, a, 0, r, None, False, next_pc))
            elif op == LI:
                r = imm & mask
                if rd:
                    regs[rd] = r
                append(record(seq, inst, 0, 0, r, None, False, next_pc))
            elif op == LD:
                a = regs[rs1]
                ea = (a + imm) & mask
                r = mem_get(ea, 0)
                if rd:
                    regs[rd] = r
                append(record(seq, inst, a, 0, r, ea, False, next_pc))
            elif op == ADD:
                a = regs[rs1]
                b = regs[rs2]
                r = (a + b) & mask
                if rd:
                    regs[rd] = r
                append(record(seq, inst, a, b, r, None, False, next_pc))
            elif op == XOR:
                a = regs[rs1]
                b = regs[rs2]
                r = a ^ b
                if rd:
                    regs[rd] = r
                append(record(seq, inst, a, b, r, None, False, next_pc))
            elif op == SRLI:
                a = regs[rs1]
                r = (a & mask) >> (imm & 63)
                if rd:
                    regs[rd] = r
                append(record(seq, inst, a, 0, r, None, False, next_pc))
            elif op == JMP:
                next_pc = target
                append(record(seq, inst, 0, 0, 0, None, True, next_pc))
            elif op == BLT or op == BNE or op == BEQ or op == BGE:
                a = regs[rs1]
                b = regs[rs2]
                if op == BLT:
                    taken = signed(a) < signed(b)
                elif op == BNE:
                    taken = a != b
                elif op == BEQ:
                    taken = a == b
                else:
                    taken = signed(a) >= signed(b)
                if taken:
                    next_pc = target
                append(record(seq, inst, a, b, 1 if taken else 0, None,
                              taken, next_pc))
            elif op == ANDI:
                a = regs[rs1]
                r = a & (imm & mask)
                if rd:
                    regs[rd] = r
                append(record(seq, inst, a, 0, r, None, False, next_pc))
            elif op == MOV:
                a = regs[rs1]
                if rd:
                    regs[rd] = a
                append(record(seq, inst, a, 0, a, None, False, next_pc))
            elif op == CALL:
                r = pc + 1
                regs[ra] = r
                next_pc = target
                append(record(seq, inst, 0, 0, r, None, True, next_pc))
            elif op == RET:
                a = regs[ra]
                next_pc = a
                append(record(seq, inst, a, 0, 0, None, True, next_pc))
            elif op in reg_reg:
                a = regs[rs1]
                b = regs[rs2]
                r = alu(op, a, b)
                if rd:
                    regs[rd] = r
                append(record(seq, inst, a, b, r, None, False, next_pc))
            elif op in imm_to_reg:
                a = regs[rs1]
                r = alu(imm_to_reg[op], a, imm & mask)
                if rd:
                    regs[rd] = r
                append(record(seq, inst, a, 0, r, None, False, next_pc))
            elif op == JR:
                a = regs[rs1]
                next_pc = a
                append(record(seq, inst, a, 0, 0, None, True, next_pc))
            elif op == ST:
                a = regs[rs1]
                v = regs[rs2]
                ea = (a + imm) & mask
                memory[ea] = v
                append(record(seq, inst, a, v, v, ea, False, next_pc))
            elif op == NOP:
                append(record(seq, inst, 0, 0, 0, None, False, next_pc))
            elif op == HALT:
                append(record(seq, inst, 0, 0, 0, None, False, pc))
                self.halted = True
                break
            else:
                raise SimulationError(
                    f"illegal opcode {inst.opcode.name} at pc {pc} "
                    f"(seq {seq})"
                )
            pc = next_pc

        self.pc = pc
        # The trace shares the program's data image: nothing downstream
        # mutates it (the SSMT engine copies it before replaying stores).
        return Trace(records, name=self.program.name, halted=self.halted,
                     initial_memory=self.program.data.values)


# Opcode values as plain ints: the interpreter compares them against its
# decode table's int opcodes without touching the enum.
_ADD, _SUB, _AND, _OR, _XOR = (int(Opcode.ADD), int(Opcode.SUB),
                               int(Opcode.AND), int(Opcode.OR),
                               int(Opcode.XOR))
_SLL, _SRL, _SRA = int(Opcode.SLL), int(Opcode.SRL), int(Opcode.SRA)
_SLT, _SLTU, _MUL = int(Opcode.SLT), int(Opcode.SLTU), int(Opcode.MUL)
_ADDI, _ANDI, _SRLI = int(Opcode.ADDI), int(Opcode.ANDI), int(Opcode.SRLI)
_LI, _MOV, _LD, _ST = (int(Opcode.LI), int(Opcode.MOV), int(Opcode.LD),
                       int(Opcode.ST))
_BEQ, _BNE, _BLT, _BGE = (int(Opcode.BEQ), int(Opcode.BNE),
                          int(Opcode.BLT), int(Opcode.BGE))
_JMP, _CALL, _RET, _JR = (int(Opcode.JMP), int(Opcode.CALL),
                          int(Opcode.RET), int(Opcode.JR))
_NOP, _HALT = int(Opcode.NOP), int(Opcode.HALT)

#: reg-reg ALU opcodes the interpreter hands to :func:`_alu`
_REG_REG_OPS = frozenset(int(op) for op in ALU_OPS)

#: reg-imm ALU opcode -> the reg-reg opcode that computes it
_IMM_TO_REG = {int(imm): int(reg) for imm, reg in (
    (Opcode.ANDI, Opcode.AND),
    (Opcode.ORI, Opcode.OR),
    (Opcode.XORI, Opcode.XOR),
    (Opcode.SLLI, Opcode.SLL),
    (Opcode.SRLI, Opcode.SRL),
    (Opcode.SLTI, Opcode.SLT),
)}


def _alu(op: int, a: int, b: int) -> int:
    """64-bit ALU semantics shared by reg-reg and reg-imm forms
    (``op`` is an :class:`Opcode` or its int value)."""
    if op == _XOR:
        return a ^ b
    if op == _ADD:
        return (a + b) & _MASK
    if op == _SUB:
        return (a - b) & _MASK
    if op == _AND:
        return a & b
    if op == _OR:
        return a | b
    if op == _SLL:
        return (a << (b & 63)) & _MASK
    if op == _SRL:
        return (a & _MASK) >> (b & 63)
    if op == _SRA:
        return (to_signed(a) >> (b & 63)) & _MASK
    if op == _SLT:
        return 1 if to_signed(a) < to_signed(b) else 0
    if op == _SLTU:
        return 1 if (a & _MASK) < (b & _MASK) else 0
    if op == _MUL:
        return (a * b) & _MASK
    raise SimulationError(f"not an ALU op: {Opcode(op).name}")


#: Public alias: evaluate one ALU operation with 64-bit semantics.
alu_op = _alu


def run_program(program: Program, max_instructions: int = 200_000) -> Trace:
    """Convenience wrapper: simulate ``program`` and return its trace."""
    return FunctionalSimulator(program, max_instructions=max_instructions).run()
