//===- Isa.cpp - VISA instruction set definition ---------------------------===//

#include "isa/Isa.h"

#include "support/Diagnostics.h"
#include "support/Format.h"

#include <array>
#include <cstring>

using namespace cfed;

namespace {

struct OpcodeInfo {
  const char *Mnemonic;
  const char *Spec;
  bool WritesFlags;
  OpKind Kind;
};

const OpcodeInfo OpcodeTable[] = {
#define HANDLE_OPCODE(ENUM, MNEMONIC, SPEC, COST, WRITES_FLAGS, KIND)          \
  {MNEMONIC, SPEC, WRITES_FLAGS, KIND},
#include "isa/Opcodes.def"
};

constexpr unsigned NumOpcodesValue =
    sizeof(OpcodeTable) / sizeof(OpcodeTable[0]);
static_assert(static_cast<unsigned>(SafePointTag) == NumOpcodesValue &&
              sizeof(detail::OpcodeCosts) == NumOpcodesValue + 1 &&
              sizeof(detail::OpcodeHasOffset) == NumOpcodesValue + 1);

const OpcodeInfo &getInfo(Opcode Op) {
  unsigned Index = static_cast<unsigned>(Op);
  assert(Index < NumOpcodesValue && "opcode out of range");
  return OpcodeTable[Index];
}

} // namespace

unsigned cfed::getNumOpcodes() { return NumOpcodesValue; }

const char *cfed::getOpcodeMnemonic(Opcode Op) { return getInfo(Op).Mnemonic; }

const char *cfed::getOpcodeSpec(Opcode Op) { return getInfo(Op).Spec; }

bool cfed::opcodeWritesFlags(Opcode Op) { return getInfo(Op).WritesFlags; }

OpKind cfed::getOpcodeKind(Opcode Op) { return getInfo(Op).Kind; }

bool cfed::isBlockTerminator(Opcode Op) {
  return getOpcodeKind(Op) != OpKind::None;
}

static const char *const CondCodeNames[NumCondCodes] = {
    "eq", "ne", "lt", "le", "gt", "ge", "b", "be", "a", "ae", "s", "ns",
    "o",  "no"};

const char *cfed::getCondCodeName(CondCode CC) {
  unsigned Index = static_cast<unsigned>(CC);
  assert(Index < NumCondCodes && "condition code out of range");
  return CondCodeNames[Index];
}

std::optional<CondCode> cfed::parseCondCode(const std::string &Name) {
  for (unsigned I = 0; I < NumCondCodes; ++I)
    if (Name == CondCodeNames[I])
      return static_cast<CondCode>(I);
  return std::nullopt;
}

CondCode cfed::negateCondCode(CondCode CC) {
  switch (CC) {
  case CondCode::EQ:
    return CondCode::NE;
  case CondCode::NE:
    return CondCode::EQ;
  case CondCode::LT:
    return CondCode::GE;
  case CondCode::LE:
    return CondCode::GT;
  case CondCode::GT:
    return CondCode::LE;
  case CondCode::GE:
    return CondCode::LT;
  case CondCode::B:
    return CondCode::AE;
  case CondCode::BE:
    return CondCode::A;
  case CondCode::A:
    return CondCode::BE;
  case CondCode::AE:
    return CondCode::B;
  case CondCode::S:
    return CondCode::NS;
  case CondCode::NS:
    return CondCode::S;
  case CondCode::O:
    return CondCode::NO;
  case CondCode::NO:
    return CondCode::O;
  }
  cfed_unreachable("covered switch");
}

void Instruction::encode(uint8_t *Buffer) const {
  Buffer[0] = static_cast<uint8_t>(Op);
  Buffer[1] = A;
  Buffer[2] = B;
  Buffer[3] = C;
  uint32_t Bits = static_cast<uint32_t>(Imm);
  Buffer[4] = static_cast<uint8_t>(Bits);
  Buffer[5] = static_cast<uint8_t>(Bits >> 8);
  Buffer[6] = static_cast<uint8_t>(Bits >> 16);
  Buffer[7] = static_cast<uint8_t>(Bits >> 24);
}

namespace {

/// Per-opcode upper bounds for the A/B/C fields, derived from the
/// operand spec (0 = field unused, accept anything). Decoding rejects
/// out-of-range operands — the IA-32 #UD analogue — which both models
/// hardware behavior for wild jumps into garbage bytes and keeps the
/// interpreter memory-safe when executing them.
struct FieldLimits {
  uint8_t Limit[3] = {0, 0, 0};
};

FieldLimits computeFieldLimits(Opcode Op) {
  FieldLimits Limits;
  unsigned FieldIndex = 0;
  for (const char *P = getOpcodeSpec(Op); *P; ++P) {
    switch (*P) {
    case 'r':
    case 'm':
      Limits.Limit[FieldIndex++] = NumIntRegs;
      break;
    case 'f':
      Limits.Limit[FieldIndex++] = NumFpRegs;
      break;
    case 'c':
      Limits.Limit[FieldIndex++] = NumCondCodes;
      break;
    case 'i':
      break;
    default:
      cfed_unreachable("bad operand spec character");
    }
  }
  return Limits;
}

const FieldLimits *getFieldLimitTable() {
  static const auto Table = [] {
    std::array<FieldLimits, 256> Limits{};
    for (unsigned I = 0; I < NumOpcodesValue; ++I)
      Limits[I] = computeFieldLimits(static_cast<Opcode>(I));
    return Limits;
  }();
  return Table.data();
}

} // namespace

std::optional<Instruction> Instruction::decode(const uint8_t *Buffer) {
  if (Buffer[0] >= NumOpcodesValue)
    return std::nullopt;
  const FieldLimits &Limits = getFieldLimitTable()[Buffer[0]];
  for (unsigned Field = 0; Field < 3; ++Field)
    if (Limits.Limit[Field] != 0 && Buffer[1 + Field] >= Limits.Limit[Field])
      return std::nullopt;
  Instruction I;
  I.Op = static_cast<Opcode>(Buffer[0]);
  I.A = Buffer[1];
  I.B = Buffer[2];
  I.C = Buffer[3];
  uint32_t Bits = static_cast<uint32_t>(Buffer[4]) |
                  (static_cast<uint32_t>(Buffer[5]) << 8) |
                  (static_cast<uint32_t>(Buffer[6]) << 16) |
                  (static_cast<uint32_t>(Buffer[7]) << 24);
  I.Imm = static_cast<int32_t>(Bits);
  return I;
}

Instruction cfed::insn::rrr(Opcode Op, uint8_t Rd, uint8_t Rs1, uint8_t Rs2) {
  return Instruction(Op, Rd, Rs1, Rs2, 0);
}

Instruction cfed::insn::rri(Opcode Op, uint8_t Rd, uint8_t Rs1, int32_t Imm) {
  return Instruction(Op, Rd, Rs1, 0, Imm);
}

Instruction cfed::insn::rr(Opcode Op, uint8_t Rd, uint8_t Rs1) {
  return Instruction(Op, Rd, Rs1, 0, 0);
}

Instruction cfed::insn::ri(Opcode Op, uint8_t Rd, int32_t Imm) {
  return Instruction(Op, Rd, 0, 0, Imm);
}

Instruction cfed::insn::r(Opcode Op, uint8_t Rd) {
  return Instruction(Op, Rd, 0, 0, 0);
}

Instruction cfed::insn::i(Opcode Op, int32_t Imm) {
  return Instruction(Op, 0, 0, 0, Imm);
}

Instruction cfed::insn::none(Opcode Op) {
  return Instruction(Op, 0, 0, 0, 0);
}

Instruction cfed::insn::jcc(CondCode CC, int32_t Offset) {
  return Instruction(Opcode::Jcc, static_cast<uint8_t>(CC), 0, 0, Offset);
}

Instruction cfed::insn::cmov(uint8_t Rd, uint8_t Rs1, CondCode CC) {
  return Instruction(Opcode::CMov, Rd, Rs1, static_cast<uint8_t>(CC), 0);
}

Instruction cfed::insn::setcc(uint8_t Rd, CondCode CC) {
  return Instruction(Opcode::SetCC, Rd, static_cast<uint8_t>(CC), 0, 0);
}

std::string cfed::getRegName(unsigned Reg) {
  assert(Reg < NumIntRegs && "register out of range");
  switch (Reg) {
  case RegSP:
    return "sp";
  case RegPCP:
    return "pcp";
  case RegRTS:
    return "rts";
  case RegAUX:
    return "aux";
  case RegAUX2:
    return "aux2";
  default:
    return formatString("r%u", Reg);
  }
}

std::optional<unsigned> cfed::parseRegName(const std::string &Name) {
  if (Name == "sp")
    return RegSP;
  if (Name == "pcp")
    return RegPCP;
  if (Name == "rts")
    return RegRTS;
  if (Name == "aux")
    return RegAUX;
  if (Name == "aux2")
    return RegAUX2;
  if (Name.size() >= 2 && Name[0] == 'r') {
    unsigned Value = 0;
    for (size_t I = 1; I < Name.size(); ++I) {
      if (Name[I] < '0' || Name[I] > '9')
        return std::nullopt;
      Value = Value * 10 + static_cast<unsigned>(Name[I] - '0');
      if (Value >= NumIntRegs)
        return std::nullopt;
    }
    return Value;
  }
  return std::nullopt;
}
