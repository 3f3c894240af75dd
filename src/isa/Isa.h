//===- Isa.h - VISA instruction set definition ------------------*- C++ -*-===//
//
// Part of the CFED project (CGO'06 control-flow error detection repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The VISA virtual instruction set: opcodes, condition codes, the FLAGS
/// register, the fixed 8-byte instruction word, and its encoder/decoder.
///
/// VISA substitutes for the paper's IA-32 guest / EM64T host pair. It keeps
/// exactly the architectural features the control-flow checking techniques
/// depend on; see Opcodes.def for the rationale per instruction.
///
//===----------------------------------------------------------------------===//

#ifndef CFED_ISA_ISA_H
#define CFED_ISA_ISA_H

#include "support/Diagnostics.h"

#include <cassert>
#include <cstdint>
#include <optional>
#include <string>

namespace cfed {

/// Size in bytes of every encoded VISA instruction.
inline constexpr uint64_t InsnSize = 8;

/// Number of architectural integer registers. r0..r15 belong to the
/// guest; r16..r19 are the "extra EM64T registers" the DBT reserves for
/// signature state (Section 5.1: no spilling needed); r32..r47 are the
/// shadow registers of the data-flow checking extension (the paper's
/// future work), holding the duplicated computation.
inline constexpr unsigned NumIntRegs = 64;
/// Number of floating-point registers (f16..f31 are data-flow shadows).
inline constexpr unsigned NumFpRegs = 32;

/// Number of guest-visible integer / fp registers.
inline constexpr unsigned NumGuestIntRegs = 16;
inline constexpr unsigned NumGuestFpRegs = 16;

/// Shadow register of guest integer register \p Reg (data-flow checking).
inline constexpr uint8_t shadowIntReg(uint8_t Reg) {
  return static_cast<uint8_t>(Reg + 32);
}
/// Shadow register of guest fp register \p Reg.
inline constexpr uint8_t shadowFpReg(uint8_t Reg) {
  return static_cast<uint8_t>(Reg + 16);
}

/// Guest stack pointer register (r15 by ABI convention).
inline constexpr uint8_t RegSP = 15;
/// PC' — the shadow program counter holding the run-time signature.
inline constexpr uint8_t RegPCP = 16;
/// RTS — the run-time adjusting signature register of the ECF technique.
inline constexpr uint8_t RegRTS = 17;
/// Scratch register for conditional signature updates (the AUX of Fig. 8).
inline constexpr uint8_t RegAUX = 18;
/// Second instrumentation scratch register.
inline constexpr uint8_t RegAUX2 = 19;
/// SSP — shadow-stack pointer of the ShadowStackChecker: points at the
/// next free slot of the bounded return-address ring the adversarial
/// mode uses to catch forged returns that carry a valid signature.
inline constexpr uint8_t RegSSP = 20;
/// Scratch register of the shadow-stack push/check sequences.
inline constexpr uint8_t RegSSC = 21;
/// Shadow copy of PC' kept by the self-integrity extension: every
/// signature update is re-applied to this register so a flipped PCP can
/// be told apart from a real control-flow error. Lives above the
/// data-flow-checking shadow range (r32..r47), which never reaches the
/// reserved registers.
inline constexpr uint8_t RegPCPShadow = 48;
/// Shadow copy of RTS (see RegPCPShadow).
inline constexpr uint8_t RegRTSShadow = 49;

/// First register reserved for instrumentation; guest programs must not
/// touch registers >= this.
inline constexpr uint8_t FirstReservedReg = 16;

/// Control-flow classes of an opcode.
enum class OpKind : uint8_t {
  None,        ///< Straight-line instruction.
  Jump,        ///< Direct unconditional jump (PC-relative offset).
  CondJump,    ///< Conditional jump reading FLAGS (Jcc).
  RegZeroJump, ///< Conditional jump on a register, flag-free (Jzr/Jnzr).
  IndJump,     ///< Indirect jump through a register.
  Call,        ///< Direct call (pushes the return address).
  IndCall,     ///< Indirect call through a register.
  Ret,         ///< Return (pops the target).
  Halt,        ///< Normal program termination.
  Trap,        ///< Software trap (Brk) — used by .report_error stubs.
  DbtExit,     ///< Code-cache exit to the translator, direct guest target.
  DbtExitInd,  ///< Code-cache exit, guest target in a register.
};

/// VISA opcodes. Generated from Opcodes.def.
enum class Opcode : uint8_t {
#define HANDLE_OPCODE(ENUM, MNEMONIC, SPEC, COST, WRITES_FLAGS, KIND) ENUM,
#include "isa/Opcodes.def"
};

/// Number of defined opcodes.
unsigned getNumOpcodes();

/// The predecode tag of a safe point (DESIGN.md §7). Not a guest opcode:
/// its value is the first past Opcodes.def, so its byte decodes as
/// illegal and neither the assembler nor the translator can emit it.
/// Only Memory writes it, into the predecoded slot of a registered safe
/// point, and only the interpreter's run loop reads it.
inline constexpr Opcode SafePointTag = static_cast<Opcode>(
    0
#define HANDLE_OPCODE(...) +1
#include "isa/Opcodes.def"
);

/// Per-opcode tables the interpreter consults on every instruction,
/// generated from Opcodes.def so they fold into the dispatch loop instead
/// of costing an out-of-line call.
namespace detail {
/// Both end with SafePointTag's entry: it costs nothing (the instruction
/// it stands for is charged when the tag is resolved) and has no offset.
inline constexpr uint8_t OpcodeCosts[] = {
#define HANDLE_OPCODE(ENUM, MNEMONIC, SPEC, COST, WRITES_FLAGS, KIND) COST,
#include "isa/Opcodes.def"
    0};
inline constexpr bool OpcodeHasOffset[] = {
#define HANDLE_OPCODE(ENUM, MNEMONIC, SPEC, COST, WRITES_FLAGS, KIND)          \
  KIND == OpKind::Jump || KIND == OpKind::CondJump ||                          \
      KIND == OpKind::RegZeroJump || KIND == OpKind::Call,
#include "isa/Opcodes.def"
    false};
} // namespace detail

/// Returns the assembly mnemonic for \p Op.
const char *getOpcodeMnemonic(Opcode Op);

/// Returns the operand spec string for \p Op (see Opcodes.def).
const char *getOpcodeSpec(Opcode Op);

/// Returns the cycle cost of \p Op in the performance model.
inline unsigned getOpcodeCost(Opcode Op) {
  assert(static_cast<unsigned>(Op) < sizeof(detail::OpcodeCosts) &&
         "opcode out of range");
  return detail::OpcodeCosts[static_cast<unsigned>(Op)];
}

/// Returns true if \p Op overwrites the FLAGS register.
bool opcodeWritesFlags(Opcode Op);

/// Returns the control-flow kind of \p Op.
OpKind getOpcodeKind(Opcode Op);

/// Returns true if \p Op ends a basic block (any control transfer,
/// including Halt and Trap).
bool isBlockTerminator(Opcode Op);

/// Returns true if \p Op is a branch with a PC-relative offset encoded in
/// the Imm field — the "address offset" fault sites of the error model.
inline bool hasBranchOffset(Opcode Op) {
  assert(static_cast<unsigned>(Op) < sizeof(detail::OpcodeHasOffset) &&
         "opcode out of range");
  return detail::OpcodeHasOffset[static_cast<unsigned>(Op)];
}

/// Condition codes, evaluated against FLAGS exactly like their IA-32
/// counterparts.
enum class CondCode : uint8_t {
  EQ, ///< ZF
  NE, ///< !ZF
  LT, ///< SF != OF          (signed <)
  LE, ///< ZF || SF != OF    (signed <=)
  GT, ///< !ZF && SF == OF   (signed >)
  GE, ///< SF == OF          (signed >=)
  B,  ///< CF                (unsigned <)
  BE, ///< CF || ZF          (unsigned <=)
  A,  ///< !CF && !ZF        (unsigned >)
  AE, ///< !CF               (unsigned >=)
  S,  ///< SF
  NS, ///< !SF
  O,  ///< OF
  NO, ///< !OF
};

/// Number of condition codes.
inline constexpr unsigned NumCondCodes = 14;

/// Returns the textual name of \p CC (e.g. "le").
const char *getCondCodeName(CondCode CC);

/// Parses a condition code name; returns std::nullopt if unknown.
std::optional<CondCode> parseCondCode(const std::string &Name);

/// Returns the logical negation of \p CC.
CondCode negateCondCode(CondCode CC);

/// The FLAGS register: four bits, each an independent fault site in the
/// error model ("flags which affect the branch instruction", Section 2).
struct Flags {
  bool ZF = false;
  bool SF = false;
  bool CF = false;
  bool OF = false;

  /// Packs the flags into the low 4 bits (ZF=bit0, SF=1, CF=2, OF=3).
  uint8_t pack() const {
    return static_cast<uint8_t>(ZF | (SF << 1) | (CF << 2) | (OF << 3));
  }

  /// Unpacks from the representation produced by pack().
  static Flags unpack(uint8_t Bits) {
    Flags F;
    F.ZF = Bits & 1;
    F.SF = Bits & 2;
    F.CF = Bits & 4;
    F.OF = Bits & 8;
    return F;
  }

  /// Returns a copy with flag bit \p BitIndex (0..3) inverted — the
  /// flag-flip fault of the error model.
  Flags withBitFlipped(unsigned BitIndex) const {
    assert(BitIndex < NumFlagBits && "flag bit out of range");
    return unpack(pack() ^ static_cast<uint8_t>(1u << BitIndex));
  }

  /// Returns a copy with every flag bit set in \p Mask (low 4 bits)
  /// inverted — the multi-bit/burst variants of the error model.
  Flags withMaskFlipped(uint8_t Mask) const {
    assert((Mask >> NumFlagBits) == 0 && "flag mask out of range");
    return unpack(pack() ^ Mask);
  }

  bool operator==(const Flags &Other) const = default;

  /// Number of independently flippable flag bits.
  static constexpr unsigned NumFlagBits = 4;
};

/// Evaluates condition \p CC against \p F.
inline bool evalCondCode(CondCode CC, const Flags &F) {
  switch (CC) {
  case CondCode::EQ:
    return F.ZF;
  case CondCode::NE:
    return !F.ZF;
  case CondCode::LT:
    return F.SF != F.OF;
  case CondCode::LE:
    return F.ZF || F.SF != F.OF;
  case CondCode::GT:
    return !F.ZF && F.SF == F.OF;
  case CondCode::GE:
    return F.SF == F.OF;
  case CondCode::B:
    return F.CF;
  case CondCode::BE:
    return F.CF || F.ZF;
  case CondCode::A:
    return !F.CF && !F.ZF;
  case CondCode::AE:
    return !F.CF;
  case CondCode::S:
    return F.SF;
  case CondCode::NS:
    return !F.SF;
  case CondCode::O:
    return F.OF;
  case CondCode::NO:
    return !F.OF;
  }
  cfed_unreachable("covered switch");
}

/// One decoded VISA instruction. Fields A, B and C carry register numbers
/// or a condition code depending on the opcode's operand spec; Imm carries
/// immediates and PC-relative branch offsets.
struct Instruction {
  Opcode Op = Opcode::Nop;
  uint8_t A = 0;
  uint8_t B = 0;
  uint8_t C = 0;
  int32_t Imm = 0;

  Instruction() = default;
  Instruction(Opcode Op, uint8_t A, uint8_t B, uint8_t C, int32_t Imm)
      : Op(Op), A(A), B(B), C(C), Imm(Imm) {}

  /// Encodes into 8 bytes at \p Buffer.
  void encode(uint8_t *Buffer) const;

  /// Decodes 8 bytes at \p Buffer; returns std::nullopt on an undefined
  /// opcode byte (the interpreter turns that into an illegal-instruction
  /// trap).
  static std::optional<Instruction> decode(const uint8_t *Buffer);

  /// For PC-relative branches: the target of the instruction located at
  /// \p InsnAddr (offsets are relative to the next instruction, as on
  /// IA-32).
  uint64_t branchTarget(uint64_t InsnAddr) const {
    assert(hasBranchOffset(Op) && "not an offset branch");
    return InsnAddr + InsnSize + static_cast<int64_t>(Imm);
  }

  /// Returns the Imm that makes an offset branch at \p InsnAddr target
  /// \p Target.
  static int32_t offsetFor(uint64_t InsnAddr, uint64_t Target) {
    int64_t Delta =
        static_cast<int64_t>(Target) - static_cast<int64_t>(InsnAddr + InsnSize);
    assert(Delta >= INT32_MIN && Delta <= INT32_MAX && "offset overflow");
    return static_cast<int32_t>(Delta);
  }

  /// Condition code of a Jcc / CMov / SetCC instruction.
  CondCode cond() const {
    // The condition code binds to the field dictated by the operand spec:
    // Jcc -> A, SetCC -> B, CMov -> C (see Opcodes.def).
    switch (Op) {
    case Opcode::Jcc:
      return static_cast<CondCode>(A);
    case Opcode::SetCC:
      return static_cast<CondCode>(B);
    case Opcode::CMov:
      return static_cast<CondCode>(C);
    default:
      cfed_unreachable("opcode has no condition code");
    }
  }

  bool operator==(const Instruction &Other) const = default;
};

/// Convenience builders for common shapes.
namespace insn {
Instruction rrr(Opcode Op, uint8_t Rd, uint8_t Rs1, uint8_t Rs2);
Instruction rri(Opcode Op, uint8_t Rd, uint8_t Rs1, int32_t Imm);
Instruction rr(Opcode Op, uint8_t Rd, uint8_t Rs1);
Instruction ri(Opcode Op, uint8_t Rd, int32_t Imm);
Instruction r(Opcode Op, uint8_t Rd);
Instruction i(Opcode Op, int32_t Imm);
Instruction none(Opcode Op);
/// jcc CC, offset.
Instruction jcc(CondCode CC, int32_t Offset);
/// cmov Rd, Rs1, CC.
Instruction cmov(uint8_t Rd, uint8_t Rs1, CondCode CC);
/// setcc Rd, CC.
Instruction setcc(uint8_t Rd, CondCode CC);
} // namespace insn

/// Returns the canonical register name ("r7", "sp", "pcp", ...).
std::string getRegName(unsigned Reg);

/// Parses a register name, accepting both "rN" and the aliases sp/pcp/rts/
/// aux/aux2; returns std::nullopt if unknown.
std::optional<unsigned> parseRegName(const std::string &Name);

} // namespace cfed

#endif // CFED_ISA_ISA_H
