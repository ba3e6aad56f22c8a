/**
 * @file
 * Opcodes and instruction categories of the RISC-style target ISA.
 *
 * The ISA is deliberately small: register-register ALU operations
 * (integer and floating point), immediate materialization, loads/stores,
 * conditional branches, and the three amnesic extensions from §3.1.2 of
 * the paper: RCMP (fused branch+load that may divert into a
 * recomputation slice), REC (checkpoint non-recomputable slice inputs
 * into the history table), and RTN (return from a slice).
 */

#ifndef AMNESIAC_ISA_OPCODE_H
#define AMNESIAC_ISA_OPCODE_H

#include <cstdint>
#include <string_view>

namespace amnesiac {

/** Machine opcodes. */
enum class Opcode : std::uint8_t {
    Nop,
    /// Materialize a 64-bit immediate: rd <- imm.
    Li,
    /// Register move: rd <- rs1.
    Mov,
    // Integer ALU, rd <- rs1 op rs2.
    Add, Sub, Mul, Divu, And, Or, Xor, Shl, Shr,
    // Floating point (operands are IEEE-754 doubles bit-cast in the
    // 64-bit register), rd <- rs1 op rs2.
    Fadd, Fsub, Fmul, Fdiv,
    /// Load: rd <- mem[rs1 + imm] (8-byte, aligned).
    Ld,
    /// Store: mem[rs1 + imm] <- rs2 (8-byte, aligned).
    St,
    // Conditional branches on register pair, to absolute index `target`.
    Beq, Bne, Blt,
    /// Unconditional jump to absolute index `target`.
    Jmp,
    /// Stop execution.
    Halt,
    // --- Amnesic extensions (§3.1.2) ---
    /// Fused conditional-branch + load. Inherits the load's rd/rs1/imm;
    /// `target` is the slice entry, `sliceId` names the RSlice.
    Rcmp,
    /// Checkpoint: copy current rs1/rs2 values into Hist[leafAddr].
    Rec,
    /// Return from a recomputation slice to the instruction after RCMP.
    Rtn,

    NumOpcodes,
};

/**
 * Energy/latency accounting categories (§3.1.1: "instruction mix and
 * count ... along with machine specific energy per instruction").
 */
enum class InstrCategory : std::uint8_t {
    Nop,
    IntAlu,   ///< add/sub/logic/shift/mov
    IntMul,
    IntDiv,
    FpAlu,    ///< fadd/fsub
    FpMul,
    FpDiv,
    Load,
    Store,
    Branch,
    Jump,
    Rcmp,     ///< modeled after a conditional branch (§4)
    Rec,      ///< modeled after a store to L1-D (§4)
    Rtn,      ///< modeled after a jump (§4)

    NumCategories,
};

/** Category an opcode is accounted under. */
InstrCategory categoryOf(Opcode op);

/** Mnemonic for disassembly and reports. */
std::string_view mnemonic(Opcode op);

/** Printable category name. */
std::string_view categoryName(InstrCategory cat);

/** Number of register source operands the opcode reads (0..2). */
int numSources(Opcode op);

/** True if the opcode writes a destination register. */
bool hasDest(Opcode op);


/** True for St. */
inline bool isStore(Opcode op) { return op == Opcode::St; }

/** True for conditional branches (not Jmp/Rcmp). */
inline bool
isConditionalBranch(Opcode op)
{
    return op == Opcode::Beq || op == Opcode::Bne || op == Opcode::Blt;
}

/** True if the opcode can redirect control flow. */
bool isControlFlow(Opcode op);

/**
 * True if the opcode is a pure register-to-register value producer —
 * the only kind of instruction allowed inside a recomputation slice
 * (§3.4: "excludes memory or control flow instructions").
 */
bool isSliceable(Opcode op);


}  // namespace amnesiac

#endif  // AMNESIAC_ISA_OPCODE_H
