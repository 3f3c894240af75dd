//===- IntegrityFault.cpp - Checker-targeted fault injection -------------------===//

#include "fault/IntegrityFault.h"

#include "fault/BatchLoop.h"
#include "support/Diagnostics.h"
#include "support/Prng.h"

#include <vector>

using namespace cfed;

const char *cfed::getIntegrityTargetName(IntegrityTarget T) {
  switch (T) {
  case IntegrityTarget::CodeByte:
    return "code";
  case IntegrityTarget::TableEntry:
    return "meta";
  case IntegrityTarget::SigState:
    return "sig";
  }
  cfed_unreachable("covered switch");
}

std::string cfed::getIntegrityOutcomeCounterName(IntegrityTarget T,
                                                 Outcome O) {
  return std::string("fault.int_") + getIntegrityTargetName(T) + '.' +
         getOutcomeName(O);
}

OutcomeCounts IntegrityCampaignResult::totals() const {
  OutcomeCounts Totals;
  for (const OutcomeCounts &Counts : PerTarget)
    Totals.merge(Counts);
  return Totals;
}

bool IntegrityFaultInjector::apply(uint64_t InsnAddr, Instruction &, Flags &,
                                   CpuState &State) {
  switch (Target) {
  case IntegrityTarget::CodeByte:
    return Fired = fireCodeByte(InsnAddr);
  case IntegrityTarget::TableEntry:
    return Fired = fireTableEntry();
  case IntegrityTarget::SigState:
    return Fired = fireSigState(State);
  }
  cfed_unreachable("covered switch");
}

bool IntegrityFaultInjector::fireCodeByte(uint64_t InsnAddr) {
  // Exclude the translation unit currently executing: dispatch
  // verification happens at unit boundaries, so corruption inside the
  // running unit could execute before any check sees it.
  const TranslatedBlock *Current = Translator.cacheBlockContaining(InsnAddr);
  uint64_t CurrentUnit = Current ? Current->CacheAddr + Current->CacheSize : 0;
  std::vector<const TranslatedBlock *> Eligible;
  for (const TranslatedBlock &TB : Translator.blocks())
    if (TB.CacheAddr + TB.CacheSize != CurrentUnit)
      Eligible.push_back(&TB);
  if (Eligible.empty())
    return false;
  const TranslatedBlock *Victim = Eligible[Pick % Eligible.size()];
  uint64_t Addr = Victim->CacheAddr + (Pick >> 8) % Victim->CacheSize;
  uint8_t Byte;
  Mem.readRaw(Addr, &Byte, 1);
  Byte ^= static_cast<uint8_t>(1u << (Bit % 8));
  Mem.writeRaw(Addr, &Byte, 1);
  Mem.invalidatePredecode(Addr, 1);
  return true;
}

bool IntegrityFaultInjector::fireTableEntry() {
  size_t Index = static_cast<size_t>(Pick >> 1);
  unsigned Word = static_cast<unsigned>(Pick >> 33);
  if ((Pick & 1) != 0)
    return Translator.faultFlipIbtcBit(Index, Bit) ||
           Translator.faultFlipBlockMetaBit(Index, Word, Bit);
  return Translator.faultFlipBlockMetaBit(Index, Word, Bit) ||
         Translator.faultFlipIbtcBit(Index, Bit);
}

bool IntegrityFaultInjector::fireSigState(CpuState &State) {
  static constexpr uint8_t Candidates[4] = {RegPCP, RegRTS, RegPCPShadow,
                                            RegRTSShadow};
  unsigned NumCandidates = Translator.config().ShadowSignature ? 4 : 2;
  State.Regs[Candidates[Pick % NumCandidates]] ^= 1ull << (Bit % 64);
  return true;
}

namespace {

/// One checker fault (see IntegrityFaultInjector).
struct IntegrityCoords {
  IntegrityTarget Target;
  uint64_t Instance;
  uint64_t Pick;
  unsigned Bit;
};

/// Checker-targeted slots: per-target outcome tallies and, when given,
/// the fault.int_<target>.<outcome> counters.
struct IntegritySlots {
  using Slot = IntegrityCoords;
  using SlotResult = Outcome;

  /// The load-time snapshot every injection forks.
  const GuestRun &Start;
  const GoldenRun &Golden;
  const RecoveryConfig *Recovery;
  IntegrityCampaignResult &Result;
  telemetry::MetricsRegistry *Metrics;

  SlotResult inject(const Slot &C) const {
    GuestRun Run(Start);
    IntegrityFaultInjector Hook(Run.Mem, Run.Translator, C.Target, C.Pick,
                                C.Bit);
    Run.Interp.armFault(&Hook, C.Instance);
    return toOutcome(
        classifyRun(IntegrityDetectors, Run.finish(Golden, Recovery)));
  }
  void tally(telemetry::MetricsRegistry &, const Slot &C, Outcome O) const {
    Result.of(C.Target).add(O);
    if (Metrics)
      Metrics->counter(getIntegrityOutcomeCounterName(C.Target, O)).inc();
  }
};

} // namespace

IntegrityCampaignResult cfed::runIntegrityCampaign(
    const AsmProgram &Program, const DbtConfig &Config, uint64_t PerTarget,
    uint64_t Seed, uint64_t MaxInsns, unsigned Jobs,
    const RecoveryConfig *Recovery, telemetry::MetricsRegistry *Metrics) {
  // The golden run and every injection fork the load-time snapshot.
  std::unique_ptr<GuestRun> Start = GuestRun(Program, Config).snapshot();
  GoldenRun Golden;
  if (!GuestRun(*Start).golden(MaxInsns, Golden))
    reportFatalError("integrity campaign: golden run failed (program does "
                     "not load or halt within the instruction budget)");

  // Draw every fault's coordinates up front in serial order, so only
  // the injections themselves run concurrently.
  Prng Rng(Seed);
  std::vector<IntegrityCoords> Coords;
  SlotPlan Plan;
  for (IntegrityTarget Target : AllIntegrityTargets)
    for (uint64_t I = 0; I < PerTarget; ++I) {
      IntegrityCoords C;
      C.Target = Target;
      C.Instance = 1 + Rng.nextBelow(Golden.Insns);
      C.Pick = Rng.next();
      C.Bit = static_cast<unsigned>(Rng.nextBelow(64));
      Plan.Primary.push_back(Coords.size());
      Coords.push_back(C);
    }

  IntegrityCampaignResult Result;
  IntegritySlots Slots{*Start, Golden, Recovery, Result, Metrics};
  runBatchLoop(oneBatch(Coords.size(), Jobs), Slots, Coords, Plan);
  Result.Injections = Coords.size();
  if (Metrics)
    Metrics->counter("fault.int_injections").inc(Coords.size());
  return Result;
}
