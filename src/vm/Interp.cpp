//===- Interp.cpp - VISA interpreter -----------------------------------------===//

#include "vm/Interp.h"

#include "support/Diagnostics.h"
#include "support/Format.h"
#include "telemetry/Metrics.h"

#include <cassert>

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

// The run loop and its handlers' helpers.
#include "vm/RunLoop.inc"

// The counting loop is instantiated in RunLoopCounting.cpp: as a fourth
// instantiation here it would change the compiler's inlining decisions
// for the three above (GCC stops inlining std::string::push_back into
// them), and the plain and hooked loops would no longer compile to the
// code they had without it.
extern template StopInfo Interpreter::runLoop<false, false, true>(uint64_t);

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
  // in both. A bound branch counter selects the counting hook-free one.
  if (PreInsn || Fault || Profiler)
    return runLoop<true>(MaxInsns);
  if (BranchCount)
    return runLoop<false, false, true>(MaxInsns);
  return runLoop<false>(MaxInsns);
}
