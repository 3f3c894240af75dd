//===- Interp.cpp - VISA interpreter -----------------------------------------===//

#include "vm/Interp.h"

#include "support/Diagnostics.h"
#include "support/Format.h"
#include "telemetry/BlockProfile.h"
#include "telemetry/Metrics.h"
#include "telemetry/Provenance.h"

#include <cassert>
#include <cmath>

using namespace cfed;

FaultHook::~FaultHook() = default;
PreInsnHook::~PreInsnHook() = default;
SafePointHook::~SafePointHook() = default;
BranchObserver::~BranchObserver() = default;
DbtHooks::~DbtHooks() = default;

const char *cfed::getTrapKindName(TrapKind Kind) {
  switch (Kind) {
  case TrapKind::None:
    return "none";
  case TrapKind::IllegalInsn:
    return "illegal-instruction";
  case TrapKind::ExecViolation:
    return "exec-violation";
  case TrapKind::ReadViolation:
    return "read-violation";
  case TrapKind::WriteViolation:
    return "write-violation";
  case TrapKind::DivByZero:
    return "div-by-zero";
  case TrapKind::BreakTrap:
    return "break";
  }
  cfed_unreachable("covered switch");
}

const char *cfed::describeStop(const StopInfo &Stop) {
  switch (Stop.Kind) {
  case StopKind::Halted:
    return "halted";
  case StopKind::InsnLimit:
    return "instruction limit reached";
  case StopKind::Trapped:
    return Stop.Trap == TrapKind::BreakTrap &&
                   Stop.BreakCode == BrkControlFlowError
               ? "control-flow error reported"
               : getTrapKindName(Stop.Trap);
  }
  return "?";
}

uint64_t cfed::hashOutput(const std::string &Data) {
  uint64_t Hash = 0xcbf29ce484222325ULL;
  for (char Ch : Data) {
    Hash ^= static_cast<uint8_t>(Ch);
    Hash *= 0x100000001b3ULL;
  }
  return Hash;
}

void Interpreter::resetCounters() {
  Insns = 0;
  Cycles = 0;
  FusedInsns = 0;
  OutputBuffer.clear();
}

void Interpreter::restoreProgress(uint64_t NewInsns, uint64_t NewCycles,
                                  size_t OutputLen) {
  assert(OutputLen <= OutputBuffer.size() &&
         "rollback cannot grow the output");
  Insns = NewInsns;
  Cycles = NewCycles;
  OutputBuffer.resize(OutputLen);
}

void Interpreter::publishMetrics(telemetry::MetricsRegistry &Registry) const {
  Registry.gauge("interp.insns").set(static_cast<double>(Insns));
  Registry.gauge("interp.cycles").set(static_cast<double>(Cycles));
  double Hits = static_cast<double>(Mem.predecodeHitCount());
  double Misses = static_cast<double>(Mem.predecodeMissCount());
  Registry.gauge("vm.predecode_hits").set(Hits);
  Registry.gauge("vm.predecode_misses").set(Misses);
  if (Hits + Misses > 0)
    Registry.gauge("vm.predecode_hit_rate").set(Hits / (Hits + Misses));
  Registry.gauge("vm.fused_insns").set(static_cast<double>(FusedInsns));
}

std::string cfed::formatTrapDiagnostic(const StopInfo &Stop,
                                       const CpuState &State,
                                       uint64_t GuestPC) {
  const char *Kind = Stop.Kind == StopKind::Halted      ? "halted"
                     : Stop.Kind == StopKind::InsnLimit ? "insn-limit"
                                                        : "trap";
  std::string Text = formatString(
      "%s: %s guest-pc=0x%llx", Kind, getTrapKindName(Stop.Trap),
      static_cast<unsigned long long>(GuestPC));
  if (Stop.Trap == TrapKind::ReadViolation ||
      Stop.Trap == TrapKind::WriteViolation ||
      Stop.Trap == TrapKind::ExecViolation)
    Text += formatString(" fault-addr=0x%llx",
                         static_cast<unsigned long long>(Stop.TrapAddr));
  if (Stop.Trap == TrapKind::BreakTrap)
    Text += formatString(" break-code=0x%x",
                         static_cast<unsigned>(Stop.BreakCode));
  Text += formatString(
      " sig[pcp=0x%llx rts=0x%llx aux=0x%llx aux2=0x%llx]",
      static_cast<unsigned long long>(State.Regs[RegPCP]),
      static_cast<unsigned long long>(State.Regs[RegRTS]),
      static_cast<unsigned long long>(State.Regs[RegAUX]),
      static_cast<unsigned long long>(State.Regs[RegAUX2]));
  return Text;
}

namespace {

/// Flag computation helpers matching the IA-32 semantics documented in
/// Opcodes.def.
void setFlagsLogic(Flags &F, uint64_t Result) {
  F.ZF = Result == 0;
  F.SF = static_cast<int64_t>(Result) < 0;
  F.CF = false;
  F.OF = false;
}

void setFlagsAdd(Flags &F, uint64_t A, uint64_t B, uint64_t Result) {
  F.ZF = Result == 0;
  F.SF = static_cast<int64_t>(Result) < 0;
  F.CF = Result < A;
  F.OF = ((~(A ^ B) & (A ^ Result)) >> 63) != 0;
}

void setFlagsSub(Flags &F, uint64_t A, uint64_t B, uint64_t Result) {
  F.ZF = Result == 0;
  F.SF = static_cast<int64_t>(Result) < 0;
  F.CF = A < B;
  F.OF = (((A ^ B) & (A ^ Result)) >> 63) != 0;
}

void setFlagsMul(Flags &F, int64_t A, int64_t B, int64_t Result) {
  __int128 Wide = static_cast<__int128>(A) * B;
  bool Overflow = Wide != static_cast<__int128>(Result);
  F.ZF = Result == 0;
  F.SF = Result < 0;
  F.CF = Overflow;
  F.OF = Overflow;
}

int64_t signedDiv(int64_t A, int64_t B) {
  if (A == INT64_MIN && B == -1)
    return INT64_MIN; // Avoid UB; defined as wrapping in VISA.
  return A / B;
}

int64_t signedRem(int64_t A, int64_t B) {
  if (A == INT64_MIN && B == -1)
    return 0;
  return A % B;
}

uint64_t immValue(const Instruction &I) {
  return static_cast<uint64_t>(static_cast<int64_t>(I.Imm));
}

/// The value a flag-neutral register op writes to its A register. These
/// ops read only registers and cannot trap, which is what lets a fused
/// run (see the Lea handler) retire them without their own dispatch.
template <Opcode Op>
uint64_t regOpValue(const Instruction &I, const uint64_t *Regs) {
  if constexpr (Op == Opcode::Lea)
    return Regs[I.B] + immValue(I);
  else if constexpr (Op == Opcode::LeaR)
    return Regs[I.B] + Regs[I.C];
  else if constexpr (Op == Opcode::Not)
    return ~Regs[I.B];
  else if constexpr (Op == Opcode::Mov)
    return Regs[I.B];
  else {
    static_assert(Op == Opcode::MovI, "not a flag-neutral register op");
    return immValue(I);
  }
}

/// regOpValue for a runtime opcode; false when \p I is not one of them.
/// Forced inline: a call per instruction would undo the fused run.
[[gnu::always_inline]] inline bool
evalRegOp(const Instruction &I, const uint64_t *Regs, uint64_t &Value) {
  switch (I.Op) {
  case Opcode::Lea:
    Value = regOpValue<Opcode::Lea>(I, Regs);
    return true;
  case Opcode::LeaR:
    Value = regOpValue<Opcode::LeaR>(I, Regs);
    return true;
  case Opcode::Not:
    Value = regOpValue<Opcode::Not>(I, Regs);
    return true;
  case Opcode::Mov:
    Value = regOpValue<Opcode::Mov>(I, Regs);
    return true;
  case Opcode::MovI:
    Value = regOpValue<Opcode::MovI>(I, Regs);
    return true;
  default:
    return false;
  }
}

bool isCondBranch(Opcode Op) {
  return Op == Opcode::Jcc || Op == Opcode::Jzr || Op == Opcode::Jnzr;
}

/// Direction of a Jcc/Jzr/Jnzr against the architectural state.
[[gnu::always_inline]] inline bool
condBranchTaken(const Instruction &I, const uint64_t *Regs, const Flags &F) {
  if (I.Op == Opcode::Jcc)
    return evalCondCode(I.cond(), F);
  return (Regs[I.A] == 0) == (I.Op == Opcode::Jzr);
}

} // namespace

// Dispatch strategy. On compilers with labels-as-values (GCC/Clang) the run
// loop is direct-threaded: each opcode body ends with an indexed goto through
// a label table built from Opcodes.def, so the hardware branch predictor sees
// one indirect jump per handler instead of a single shared switch dispatch.
// Other compilers (or -DCFED_NO_COMPUTED_GOTO) fall back to the plain switch;
// both expansions share the same handler bodies via OP_CASE/OP_BREAK.
#if (defined(__GNUC__) || defined(__clang__)) && !defined(CFED_NO_COMPUTED_GOTO)
#define CFED_COMPUTED_GOTO 1
#else
#define CFED_COMPUTED_GOTO 0
#endif

#if CFED_COMPUTED_GOTO
#define OP_CASE(NAME) lbl_##NAME
#else
#define OP_CASE(NAME) case Opcode::NAME
#endif
// Both modes leave the handler body by jumping to the loop tail; the switch
// fallback simply has no fall-out path.
#define OP_BREAK goto next_insn

StopInfo Interpreter::run(uint64_t MaxInsns) {
  // Each pass runs up to the armed instruction, then it alone on the
  // hooked loop; a hook with nothing to strike re-arms for the next one.
  const uint64_t Start = Insns;
  while (ArmedFault && ArmedAt > Insns && ArmedAt - Start <= MaxInsns) {
    if (uint64_t Before = ArmedAt - 1 - Insns) {
      StopInfo Stop = runSelected(Before);
      if (Stop.Kind != StopKind::InsnLimit || Insns != ArmedAt - 1)
        return Stop; // Stopped first; the fault stays armed.
    }
    FaultHook *Installed = Fault;
    Fault = ArmedFault;
    ArmedFault = nullptr;
    StopInfo Stop = runLoop<true, true>(1);
    Fault = Installed;
    if (Stop.Kind != StopKind::InsnLimit || Insns - Start >= MaxInsns)
      return Stop;
  }
  return runSelected(MaxInsns - (Insns - Start));
}

StopInfo Interpreter::runSelected(uint64_t MaxInsns) {
  // The three per-instruction hooks select the hooked instantiation; the
  // hook-free one skips their tests and fuses runs of check code. Hooks that
  // act only inside their own opcode handlers (DbtHooks, BlockProfile,
  // DigestRecorder, and SafePointHook behind its tags) stay runtime checks
  // in both.
  if (PreInsn || Fault || Profiler)
    return runLoop<true>(MaxInsns);
  return runLoop<false>(MaxInsns);
}

template <bool Hooked, bool Armed>
StopInfo Interpreter::runLoop(uint64_t MaxInsns) {
  StopInfo Stop;
  uint64_t Budget = MaxInsns;

  // Progress counters and the PC live in locals across the loop: a guest
  // register store goes through a uint64_t pointer the compiler must
  // assume aliases the members, so member counters would cost a memory
  // round trip per instruction. SYNC_COUNTERS publishes them before any
  // code outside the loop can look — DbtHooks (whose tracer clock reads
  // instructionCount()) and the exit. The hooked loop counts in the
  // members directly, where its hooks read and rewind them. (Lambdas would
  // take the locals' addresses and pin them in memory; hence macros.)
  uint64_t LocalInsns = Insns, LocalCycles = Cycles, LocalHits = 0,
           LocalFused = 0;
  uint64_t &NInsns = Hooked ? Insns : LocalInsns;
  uint64_t &NCycles = Hooked ? Cycles : LocalCycles;
#define SYNC_COUNTERS()                                                        \
  do {                                                                         \
    Insns = NInsns;                                                            \
    Cycles = NCycles;                                                          \
    Mem.notePredecodeHits(LocalHits);                                          \
    FusedInsns += LocalFused;                                                  \
    LocalHits = LocalFused = 0;                                                \
  } while (0)

  // Digest capture (DESIGN.md §14). DRec drives the mode-independent
  // store/output summaries and the Digest markers; DXfer is non-null
  // only in Interp mode, where the transfer handlers capture directly.
  telemetry::DigestRecorder *const DRec = DigestRec;
  telemetry::DigestRecorder *const DXfer =
      DRec && DRec->interpMode() ? DRec : nullptr;
  // Every FP-register write marks the FP file live for digest capture;
  // see DigestRecorder::noteFpWrite.
  auto NoteFpWrite = [DRec] {
    if (DRec)
      DRec->noteFpWrite();
  };

  auto MakeTrap = [&Stop, this](TrapKind Kind, uint64_t TrapAddr,
                                int32_t BreakCode = 0) {
    Stop.Kind = StopKind::Trapped;
    Stop.Trap = Kind;
    Stop.TrapAddr = TrapAddr;
    Stop.BreakCode = BreakCode;
    Stop.PC = State.PC;
  };
  // Every stop leaves through `stopped`, which publishes the counters.
#define TRAP(...)                                                              \
  do {                                                                         \
    MakeTrap(__VA_ARGS__);                                                     \
    goto stopped;                                                              \
  } while (0)
  // A store that hit a write-protected page is retried when the DBT handled
  // the fault (self-modifying code).
#define RETRY_IF_DBT_HANDLED(R, Addr)                                          \
  if (R == MemResult::NoWrite && Dbt) {                                        \
    SYNC_COUNTERS();                                                           \
    if (Dbt->onWriteViolation(Addr)) {                                         \
      State.PC = PC;                                                           \
      continue;                                                                \
    }                                                                          \
  }

  // A safe-point tag (DESIGN.md §7) becomes the instruction it stands for,
  // after the hook saw the safe point with the counts before that
  // instruction: the tag itself was charged nothing. Resolving before the
  // hook call keeps it valid should the hook touch the page.
#define RESOLVE_SAFE_POINT()                                                   \
  do {                                                                         \
    const Instruction Tag = I;                                                 \
    I = Mem.taggedInsn(PC, Tag);                                               \
    if (SafePoint)                                                             \
      SafePoint->onSafePoint(PC, Tag.A != 0, NInsns - 1, NCycles);             \
    NCycles += getOpcodeCost(I.Op);                                            \
  } while (0)

#if CFED_COMPUTED_GOTO
  // One entry per opcode, in Opcodes.def order — identical to the Opcode
  // enumerator values — and SafePointTag's last. Decode has already
  // validated the opcode byte, so the indexed goto cannot escape the table.
  static const void *const OpLabels[] = {
#define HANDLE_OPCODE(ENUM, MNEMONIC, SPEC, COST, WRITES_FLAGS, KIND)          \
  &&lbl_##ENUM,
#include "isa/Opcodes.def"
      &&lbl_SafePointTag};
#endif

  uint64_t PC = State.PC;
  while (Budget-- > 0) {
    // Fast path: the predecode cache hands back a decoded record for
    // aligned PCs on executable pages without touching the bytes.
    const Instruction *Pre = Mem.peekDecoded(PC);
    Instruction I;
    if (Pre) {
      ++LocalHits;
      I = *Pre;
    } else {
      MemResult Fetch = MemResult::Ok;
      Pre = Mem.fetchDecoded(PC, Fetch);
      if (Fetch != MemResult::Ok)
        TRAP(TrapKind::ExecViolation, PC);
      if (Pre) {
        I = *Pre;
      } else {
        // Slow path: misaligned PC (may straddle pages) or bytes that do
        // not decode. Reproduces the exact trap semantics of a raw fetch.
        uint8_t Raw[InsnSize];
        Fetch = Mem.fetch(PC, Raw, InsnSize);
        if (Fetch != MemResult::Ok)
          TRAP(TrapKind::ExecViolation, PC);
        auto Decoded = Instruction::decode(Raw);
        if (!Decoded)
          TRAP(TrapKind::IllegalInsn, PC);
        I = *Decoded;
      }
    }

    ++NInsns;
    NCycles += getOpcodeCost(I.Op);

    // Every hook below sees the tagged instruction, never the tag; the
    // hook-free loop leaves the test to its dispatch table.
    if (Hooked && I.Op == SafePointTag)
      RESOLVE_SAFE_POINT();

    // Digest markers are invisible to hooks: they retire no instruction,
    // so no hook may take one for the instant it plans, checkpoints or
    // faults at (the armed step below skips them too).
    if (Hooked && PreInsn && I.Op != Opcode::Digest) {
      PreInsn->onInsn(PC, I, State);
      if (StopRequested) {
        StopRequested = false;
        Budget = 0;
      }
    }

    uint64_t *Regs = State.Regs;
    double *Fp = State.FpRegs;
    Flags &F = State.F;
    uint64_t NextPC = PC + InsnSize;

    // Fault injection observes the instruction at the moment it executes.
    // Flipping the flags a branch sees (BranchFlags) leaves the FLAGS
    // register alone: the model is a transient upset at the branch
    // (Section 2). An installed hook sees offset branches only.
    Flags BranchFlags;
    if (Hooked) {
      BranchFlags = F;
      if (Fault && (Armed ? I.Op != Opcode::Digest : hasBranchOffset(I.Op))) {
        if (!Fault->apply(PC, I, BranchFlags, State) && Armed)
          armFault(Fault, NInsns + 1); // Nothing to strike yet.
        if (StopRequested) {
          StopRequested = false;
          Budget = 0;
        }
      }
    }

  dispatch:
#if CFED_COMPUTED_GOTO
    goto *OpLabels[static_cast<size_t>(I.Op)];
#else
    switch (I.Op) {
#endif
    OP_CASE(Nop):
      OP_BREAK;
    OP_CASE(Halt):
      if (DXfer)
        DXfer->onTransfer(NInsns - 1, PC, Regs, Fp, F.pack());
      Stop.Kind = StopKind::Halted;
      Stop.PC = PC;
      goto stopped;
    OP_CASE(Brk):
      if (DXfer)
        DXfer->onTransfer(NInsns - 1, PC, Regs, Fp, F.pack());
      TRAP(TrapKind::BreakTrap, PC, I.Imm);
    OP_CASE(Out): {
      // Decimal append without the printf round-trip: Out sits inside the
      // run loop of every workload.
      char Buf[24]; // "-9223372036854775808\n" is 21 chars.
      char *End = Buf + sizeof(Buf);
      char *P = End;
      *--P = '\n';
      int64_t V = static_cast<int64_t>(Regs[I.A]);
      uint64_t U = V < 0 ? 0 - static_cast<uint64_t>(V)
                         : static_cast<uint64_t>(V);
      do {
        *--P = static_cast<char>('0' + U % 10);
        U /= 10;
      } while (U != 0);
      if (V < 0)
        *--P = '-';
      OutputBuffer.append(P, static_cast<size_t>(End - P));
      if (DRec)
        DRec->noteOutput(P, static_cast<size_t>(End - P));
      OP_BREAK;
    }
    OP_CASE(OutC): {
      char C = static_cast<char>(Regs[I.A] & 0xff);
      OutputBuffer += C;
      if (DRec)
        DRec->noteOutput(&C, 1);
      OP_BREAK;
    }

    OP_CASE(Add): {
      uint64_t A = Regs[I.B], B = Regs[I.C], R = A + B;
      Regs[I.A] = R;
      setFlagsAdd(F, A, B, R);
      OP_BREAK;
    }
    OP_CASE(Sub): {
      uint64_t A = Regs[I.B], B = Regs[I.C], R = A - B;
      Regs[I.A] = R;
      setFlagsSub(F, A, B, R);
      OP_BREAK;
    }
    OP_CASE(And):
      Regs[I.A] = Regs[I.B] & Regs[I.C];
      setFlagsLogic(F, Regs[I.A]);
      OP_BREAK;
    OP_CASE(Or):
      Regs[I.A] = Regs[I.B] | Regs[I.C];
      setFlagsLogic(F, Regs[I.A]);
      OP_BREAK;
    OP_CASE(Xor):
      Regs[I.A] = Regs[I.B] ^ Regs[I.C];
      setFlagsLogic(F, Regs[I.A]);
      OP_BREAK;
    OP_CASE(Shl):
      Regs[I.A] = Regs[I.B] << (Regs[I.C] & 63);
      setFlagsLogic(F, Regs[I.A]);
      OP_BREAK;
    OP_CASE(Shr):
      Regs[I.A] = Regs[I.B] >> (Regs[I.C] & 63);
      setFlagsLogic(F, Regs[I.A]);
      OP_BREAK;
    OP_CASE(Sar):
      Regs[I.A] = static_cast<uint64_t>(static_cast<int64_t>(Regs[I.B]) >>
                                        (Regs[I.C] & 63));
      setFlagsLogic(F, Regs[I.A]);
      OP_BREAK;
    OP_CASE(Mul): {
      int64_t A = static_cast<int64_t>(Regs[I.B]);
      int64_t B = static_cast<int64_t>(Regs[I.C]);
      int64_t R = static_cast<int64_t>(static_cast<uint64_t>(A) *
                                       static_cast<uint64_t>(B));
      Regs[I.A] = static_cast<uint64_t>(R);
      setFlagsMul(F, A, B, R);
      OP_BREAK;
    }
    OP_CASE(Div): {
      int64_t B = static_cast<int64_t>(Regs[I.C]);
      if (B == 0)
        TRAP(TrapKind::DivByZero, PC);
      Regs[I.A] = static_cast<uint64_t>(
          signedDiv(static_cast<int64_t>(Regs[I.B]), B));
      OP_BREAK;
    }
    OP_CASE(Rem): {
      int64_t B = static_cast<int64_t>(Regs[I.C]);
      if (B == 0)
        TRAP(TrapKind::DivByZero, PC);
      Regs[I.A] = static_cast<uint64_t>(
          signedRem(static_cast<int64_t>(Regs[I.B]), B));
      OP_BREAK;
    }

    OP_CASE(AddI): {
      uint64_t A = Regs[I.B];
      uint64_t B = static_cast<uint64_t>(static_cast<int64_t>(I.Imm));
      uint64_t R = A + B;
      Regs[I.A] = R;
      setFlagsAdd(F, A, B, R);
      OP_BREAK;
    }
    OP_CASE(AndI):
      Regs[I.A] = Regs[I.B] & static_cast<uint64_t>(static_cast<int64_t>(I.Imm));
      setFlagsLogic(F, Regs[I.A]);
      OP_BREAK;
    OP_CASE(OrI):
      Regs[I.A] = Regs[I.B] | static_cast<uint64_t>(static_cast<int64_t>(I.Imm));
      setFlagsLogic(F, Regs[I.A]);
      OP_BREAK;
    OP_CASE(XorI):
      Regs[I.A] = Regs[I.B] ^ static_cast<uint64_t>(static_cast<int64_t>(I.Imm));
      setFlagsLogic(F, Regs[I.A]);
      OP_BREAK;
    OP_CASE(ShlI):
      Regs[I.A] = Regs[I.B] << (I.Imm & 63);
      setFlagsLogic(F, Regs[I.A]);
      OP_BREAK;
    OP_CASE(ShrI):
      Regs[I.A] = Regs[I.B] >> (I.Imm & 63);
      setFlagsLogic(F, Regs[I.A]);
      OP_BREAK;
    OP_CASE(SarI):
      Regs[I.A] = static_cast<uint64_t>(static_cast<int64_t>(Regs[I.B]) >>
                                        (I.Imm & 63));
      setFlagsLogic(F, Regs[I.A]);
      OP_BREAK;
    OP_CASE(MulI): {
      int64_t A = static_cast<int64_t>(Regs[I.B]);
      int64_t B = I.Imm;
      int64_t R = static_cast<int64_t>(static_cast<uint64_t>(A) *
                                       static_cast<uint64_t>(B));
      Regs[I.A] = static_cast<uint64_t>(R);
      setFlagsMul(F, A, B, R);
      OP_BREAK;
    }

    OP_CASE(Lea):
      Regs[I.A] = regOpValue<Opcode::Lea>(I, Regs);
      goto run_on;
    OP_CASE(LeaR):
      Regs[I.A] = regOpValue<Opcode::LeaR>(I, Regs);
      goto run_on;
    OP_CASE(Not):
      Regs[I.A] = regOpValue<Opcode::Not>(I, Regs);
      goto run_on;
    OP_CASE(Mov):
      Regs[I.A] = regOpValue<Opcode::Mov>(I, Regs);
      goto run_on;
    OP_CASE(MovI):
      Regs[I.A] = regOpValue<Opcode::MovI>(I, Regs);
    run_on:
      // Superinstruction for the translator's check code (DESIGN.md §6).
      // After an instruction that writes no memory and no flags, retire
      // the next slots of its page without dispatching them while they
      // are flag-neutral register ops or Prof markers, and end the run
      // with the first conditional branch, retired too. Any other
      // opcode, the page end or the end of the budget ends it first.
      // Only where nothing can observe the seams (no per-insn hook, no
      // interp-mode digest capture), so counts, cycles, predecode hits
      // and stops are those of one dispatch per instruction. The slot
      // array stays valid because nothing in a run writes memory.
      if (!Hooked && !DXfer && Pre) {
        for (const Instruction *J = Pre + 1;
             Budget > 0 && NextPC % PageSize != 0; ++J) {
          uint64_t Value;
          bool RegOp = evalRegOp(*J, Regs, Value);
          bool Branch = isCondBranch(J->Op);
          if (!RegOp && !Branch && J->Op != Opcode::Prof)
            break;
          --Budget;
          ++NInsns;
          NCycles += getOpcodeCost(J->Op);
          ++LocalHits;
          ++LocalFused;
          if (Branch) {
            NextPC = condBranchTaken(*J, Regs, F) ? J->branchTarget(NextPC)
                                                  : NextPC + InsnSize;
            break;
          }
          if (RegOp)
            Regs[J->A] = Value;
          else if (BlockProf)
            BlockProf->bump(static_cast<uint32_t>(J->Imm));
          NextPC += InsnSize;
        }
      }
      OP_BREAK;
    OP_CASE(MovHi):
      Regs[I.A] = (Regs[I.A] & 0xffffffffULL) |
                  (static_cast<uint64_t>(static_cast<uint32_t>(I.Imm)) << 32);
      OP_BREAK;
    OP_CASE(Neg): {
      uint64_t B = Regs[I.B], R = 0 - B;
      Regs[I.A] = R;
      setFlagsSub(F, 0, B, R);
      OP_BREAK;
    }

    OP_CASE(Cmp): {
      uint64_t A = Regs[I.A], B = Regs[I.B];
      setFlagsSub(F, A, B, A - B);
      OP_BREAK;
    }
    OP_CASE(CmpI): {
      uint64_t A = Regs[I.A];
      uint64_t B = static_cast<uint64_t>(static_cast<int64_t>(I.Imm));
      setFlagsSub(F, A, B, A - B);
      OP_BREAK;
    }
    OP_CASE(Test):
      setFlagsLogic(F, Regs[I.A] & Regs[I.B]);
      OP_BREAK;
    OP_CASE(SetCC):
      Regs[I.A] = evalCondCode(I.cond(), F) ? 1 : 0;
      OP_BREAK;
    OP_CASE(CMov):
      if (evalCondCode(I.cond(), F))
        Regs[I.A] = Regs[I.B];
      OP_BREAK;

    OP_CASE(Ld): {
      MemResult R = MemResult::Ok;
      uint64_t Addr = Regs[I.B] + static_cast<int64_t>(I.Imm);
      uint64_t Value = Mem.read64(Addr, R);
      if (R != MemResult::Ok)
        TRAP(TrapKind::ReadViolation, Addr);
      Regs[I.A] = Value;
      OP_BREAK;
    }
    OP_CASE(St): {
      uint64_t Addr = Regs[I.A] + static_cast<int64_t>(I.Imm);
      MemResult R = Mem.write64(Addr, Regs[I.B]);
      RETRY_IF_DBT_HANDLED(R, Addr);
      if (R != MemResult::Ok)
        TRAP(TrapKind::WriteViolation, Addr);
      // Note the store only after it succeeded: the SMC retry path above
      // re-executes the instruction and must not double-count it.
      if (DRec)
        DRec->noteStore(Addr, Regs[I.B]);
      OP_BREAK;
    }
    OP_CASE(LdB): {
      MemResult R = MemResult::Ok;
      uint64_t Addr = Regs[I.B] + static_cast<int64_t>(I.Imm);
      uint8_t Value = Mem.read8(Addr, R);
      if (R != MemResult::Ok)
        TRAP(TrapKind::ReadViolation, Addr);
      Regs[I.A] = Value;
      OP_BREAK;
    }
    OP_CASE(StB): {
      uint64_t Addr = Regs[I.A] + static_cast<int64_t>(I.Imm);
      MemResult R = Mem.write8(Addr, static_cast<uint8_t>(Regs[I.B]));
      RETRY_IF_DBT_HANDLED(R, Addr);
      if (R != MemResult::Ok)
        TRAP(TrapKind::WriteViolation, Addr);
      if (DRec)
        DRec->noteStore(Addr, Regs[I.B] & 0xff);
      OP_BREAK;
    }
    OP_CASE(Push): {
      Regs[RegSP] -= 8;
      MemResult R = Mem.write64(Regs[RegSP], Regs[I.A]);
      if (R != MemResult::Ok)
        TRAP(TrapKind::WriteViolation, Regs[RegSP]);
      if (DRec)
        DRec->noteStore(Regs[RegSP], Regs[I.A]);
      OP_BREAK;
    }
    OP_CASE(Pop): {
      MemResult R = MemResult::Ok;
      uint64_t Value = Mem.read64(Regs[RegSP], R);
      if (R != MemResult::Ok)
        TRAP(TrapKind::ReadViolation, Regs[RegSP]);
      Regs[I.A] = Value;
      Regs[RegSP] += 8;
      OP_BREAK;
    }

    OP_CASE(Jmp):
      if (DXfer)
        DXfer->onTransfer(NInsns - 1, PC, Regs, Fp, F.pack());
      NextPC = I.branchTarget(PC);
      if (Hooked && Profiler)
        Profiler->onBranch(PC, I, BranchFlags, true, NextPC);
      OP_BREAK;
    OP_CASE(Jcc): {
      // Digest capture sees the architectural flags, not the branch's
      // possibly fault-perturbed view: the error model is a transient
      // upset at the branch, not a FLAGS corruption.
      if (DXfer)
        DXfer->onTransfer(NInsns - 1, PC, Regs, Fp, F.pack());
      bool Taken = evalCondCode(I.cond(), Hooked ? BranchFlags : F);
      if (Taken)
        NextPC = I.branchTarget(PC);
      if (Hooked && Profiler)
        Profiler->onBranch(PC, I, BranchFlags, Taken, NextPC);
      OP_BREAK;
    }
    OP_CASE(Jzr): {
      if (DXfer)
        DXfer->onTransfer(NInsns - 1, PC, Regs, Fp, F.pack());
      bool Taken = Regs[I.A] == 0;
      if (Taken)
        NextPC = I.branchTarget(PC);
      if (Hooked && Profiler)
        Profiler->onBranch(PC, I, BranchFlags, Taken, NextPC);
      OP_BREAK;
    }
    OP_CASE(Jnzr): {
      if (DXfer)
        DXfer->onTransfer(NInsns - 1, PC, Regs, Fp, F.pack());
      bool Taken = Regs[I.A] != 0;
      if (Taken)
        NextPC = I.branchTarget(PC);
      if (Hooked && Profiler)
        Profiler->onBranch(PC, I, BranchFlags, Taken, NextPC);
      OP_BREAK;
    }
    OP_CASE(Call): {
      // Capture precedes the return-address push, matching the DBT's
      // marker placement (before the translator's MovI/Push lowering).
      if (DXfer)
        DXfer->onTransfer(NInsns - 1, PC, Regs, Fp, F.pack());
      Regs[RegSP] -= 8;
      MemResult R = Mem.write64(Regs[RegSP], PC + InsnSize);
      if (R != MemResult::Ok)
        TRAP(TrapKind::WriteViolation, Regs[RegSP]);
      if (DRec)
        DRec->noteStore(Regs[RegSP], PC + InsnSize);
      NextPC = I.branchTarget(PC);
      if (Hooked && Profiler)
        Profiler->onBranch(PC, I, BranchFlags, true, NextPC);
      OP_BREAK;
    }
    OP_CASE(CallR): {
      if (DXfer)
        DXfer->onTransfer(NInsns - 1, PC, Regs, Fp, F.pack());
      Regs[RegSP] -= 8;
      MemResult R = Mem.write64(Regs[RegSP], PC + InsnSize);
      if (R != MemResult::Ok)
        TRAP(TrapKind::WriteViolation, Regs[RegSP]);
      if (DRec)
        DRec->noteStore(Regs[RegSP], PC + InsnSize);
      NextPC = Regs[I.A];
      OP_BREAK;
    }
    OP_CASE(JmpR):
      if (DXfer)
        DXfer->onTransfer(NInsns - 1, PC, Regs, Fp, F.pack());
      NextPC = Regs[I.A];
      OP_BREAK;
    OP_CASE(Ret): {
      if (DXfer)
        DXfer->onTransfer(NInsns - 1, PC, Regs, Fp, F.pack());
      MemResult R = MemResult::Ok;
      uint64_t Target = Mem.read64(Regs[RegSP], R);
      if (R != MemResult::Ok)
        TRAP(TrapKind::ReadViolation, Regs[RegSP]);
      Regs[RegSP] += 8;
      NextPC = Target;
      OP_BREAK;
    }

    OP_CASE(FAdd):
      Fp[I.A] = Fp[I.B] + Fp[I.C];
      NoteFpWrite();
      OP_BREAK;
    OP_CASE(FSub):
      Fp[I.A] = Fp[I.B] - Fp[I.C];
      NoteFpWrite();
      OP_BREAK;
    OP_CASE(FMul):
      Fp[I.A] = Fp[I.B] * Fp[I.C];
      NoteFpWrite();
      OP_BREAK;
    OP_CASE(FDiv):
      Fp[I.A] = Fp[I.B] / Fp[I.C];
      NoteFpWrite();
      OP_BREAK;
    OP_CASE(FMA):
      Fp[I.A] = Fp[I.A] + Fp[I.B] * Fp[I.C];
      NoteFpWrite();
      OP_BREAK;
    OP_CASE(FSqrt):
      Fp[I.A] = std::sqrt(Fp[I.B]);
      NoteFpWrite();
      OP_BREAK;
    OP_CASE(FAbs):
      Fp[I.A] = std::fabs(Fp[I.B]);
      NoteFpWrite();
      OP_BREAK;
    OP_CASE(FNeg):
      Fp[I.A] = -Fp[I.B];
      NoteFpWrite();
      OP_BREAK;
    OP_CASE(FMov):
      Fp[I.A] = Fp[I.B];
      NoteFpWrite();
      OP_BREAK;
    OP_CASE(FMovI):
      Fp[I.A] = static_cast<double>(I.Imm);
      NoteFpWrite();
      OP_BREAK;
    OP_CASE(FCmp): {
      double A = Fp[I.A], B = Fp[I.B];
      F.ZF = A == B;
      F.SF = A < B;
      F.CF = A < B;
      F.OF = false;
      OP_BREAK;
    }
    OP_CASE(FLd): {
      MemResult R = MemResult::Ok;
      uint64_t Addr = Regs[I.B] + static_cast<int64_t>(I.Imm);
      uint64_t Bits = Mem.read64(Addr, R);
      if (R != MemResult::Ok)
        TRAP(TrapKind::ReadViolation, Addr);
      double Value;
      static_assert(sizeof(Value) == sizeof(Bits));
      __builtin_memcpy(&Value, &Bits, sizeof(Value));
      Fp[I.A] = Value;
      NoteFpWrite();
      OP_BREAK;
    }
    OP_CASE(FSt): {
      uint64_t Addr = Regs[I.A] + static_cast<int64_t>(I.Imm);
      uint64_t Bits;
      __builtin_memcpy(&Bits, &Fp[I.B], sizeof(Bits));
      MemResult R = Mem.write64(Addr, Bits);
      RETRY_IF_DBT_HANDLED(R, Addr);
      if (R != MemResult::Ok)
        TRAP(TrapKind::WriteViolation, Addr);
      if (DRec)
        DRec->noteStore(Addr, Bits);
      OP_BREAK;
    }
    OP_CASE(IToF):
      Fp[I.A] = static_cast<double>(static_cast<int64_t>(Regs[I.B]));
      NoteFpWrite();
      OP_BREAK;
    OP_CASE(FToI): {
      double Value = Fp[I.B];
      int64_t Result;
      if (!(Value > -9.2233720368547758e18 && Value < 9.2233720368547758e18))
        Result = Value > 0 ? INT64_MAX : INT64_MIN;
      else
        Result = static_cast<int64_t>(Value);
      Regs[I.A] = static_cast<uint64_t>(Result);
      OP_BREAK;
    }

    OP_CASE(Tramp): {
      if (!Dbt)
        TRAP(TrapKind::IllegalInsn, PC);
      SYNC_COUNTERS();
      NextPC = Dbt->onDirectExit(PC, static_cast<uint64_t>(
                                         static_cast<int64_t>(I.Imm)));
      OP_BREAK;
    }
    OP_CASE(TrampR): {
      if (!Dbt)
        TRAP(TrapKind::IllegalInsn, PC);
      SYNC_COUNTERS();
      NextPC = Dbt->onIndirectExit(PC, Regs[I.A]);
      OP_BREAK;
    }
    OP_CASE(Prof): {
      // Attribution bump; acts as a nop when no profile is attached.
      if (BlockProf)
        BlockProf->bump(static_cast<uint32_t>(I.Imm));
      OP_BREAK;
    }
    OP_CASE(Digest): {
      // Sub-block digest capture; acts as a nop with no recorder bound.
      // The marker is transparent to the execution model: it consumes
      // no instruction budget and retires no instruction (its opcode
      // cost is 0 and pre-insn hooks skip it at the call site), so a
      // run with digests enabled truncates, injects faults and counts
      // latencies at exactly the same guest instants as one without.
      ++Budget;
      --NInsns;
      if (DRec)
        DRec->onMarker(static_cast<uint32_t>(I.Imm), Regs, Fp, F.pack());
      // The marker writes no memory and no flags, so a fused run goes on
      // after it: markers sit right before a block's signature update,
      // and without the run a digest-recording run would pay one more
      // dispatch per block than the same run without digests.
      goto run_on;
    }
#if CFED_COMPUTED_GOTO
    lbl_SafePointTag:
#else
    default: // SafePointTag, the one value outside the enumeration.
#endif
      // Only the hook-free loop gets here: the hooked one resolved the tag
      // above. A fused run never retires a tagged slot, so every safe
      // point is dispatched.
      RESOLVE_SAFE_POINT();
      goto dispatch;
#if !CFED_COMPUTED_GOTO
    }
#endif

  next_insn:
    State.PC = NextPC;
    PC = NextPC;
  }

  Stop.Kind = StopKind::InsnLimit;
  Stop.PC = State.PC;
stopped:
  SYNC_COUNTERS();
  return Stop;
}

#undef OP_CASE
#undef OP_BREAK
#undef SYNC_COUNTERS
#undef TRAP
#undef RETRY_IF_DBT_HANDLED
#undef RESOLVE_SAFE_POINT
