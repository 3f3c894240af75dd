//===- RegisterFault.cpp - Datapath fault injection -----------------------------===//

#include "fault/RegisterFault.h"

#include "fault/BatchLoop.h"
#include "support/Diagnostics.h"
#include "support/Prng.h"

#include <algorithm>
#include <optional>
#include <vector>

using namespace cfed;

double RegisterCampaignReport::latencyMean() const {
  if (DetectionLatencies.empty())
    return 0.0;
  uint64_t Sum = 0;
  for (uint64_t L : DetectionLatencies)
    Sum += L;
  return static_cast<double>(Sum) /
         static_cast<double>(DetectionLatencies.size());
}

uint64_t RegisterCampaignReport::latencyMax() const {
  uint64_t Max = 0;
  for (uint64_t L : DetectionLatencies)
    Max = std::max(Max, L);
  return Max;
}

namespace {

/// One register fault: XOR Mask into Reg before the instruction that
/// retires as number Instance.
struct RegisterCoords {
  uint64_t Instance;
  uint8_t Reg;
  uint64_t Mask;
};

/// Register-fault slots: outcome tallies plus the detection latency of
/// every trapped run, in schedule order.
struct RegisterSlots {
  using Slot = RegisterCoords;
  struct SlotResult {
    Outcome Result = Outcome::Masked;
    std::optional<uint64_t> Latency;
  };

  /// The load-time snapshot every injection forks.
  const GuestRun &Start;
  const GoldenRun &Golden;
  RegisterCampaignReport &Report;

  SlotResult inject(const Slot &C) const {
    GuestRun Run(Start);
    RegisterFaultInjector Hook(C.Reg, C.Mask);
    Run.Interp.armFault(&Hook, C.Instance);
    RunEnd End = Run.finish(Golden);
    SlotResult R;
    R.Result = toOutcome(classifyRun(RegisterDetectors, End));
    // Unlike a branch fault's, this latency counts the faulted
    // instruction: Instance-1 instructions had retired at fire time.
    if (End.Stop.Kind == StopKind::Trapped && Hook.fired())
      R.Latency = Run.Interp.instructionCount() - (C.Instance - 1);
    return R;
  }
  void tally(telemetry::MetricsRegistry &, const Slot &,
             const SlotResult &R) const {
    Report.Counts.add(R.Result);
    if (R.Latency)
      Report.DetectionLatencies.push_back(*R.Latency);
  }
};

} // namespace

RegisterCampaignReport cfed::runRegisterFaultCampaignDetailed(
    const AsmProgram &Program, const DbtConfig &Config,
    uint64_t NumInjections, uint64_t Seed, uint64_t MaxInsns,
    FaultModel Model, unsigned Jobs) {
  // The golden run and every injection fork the load-time snapshot.
  std::unique_ptr<GuestRun> Start = GuestRun(Program, Config).snapshot();
  GoldenRun Golden;
  if (!GuestRun(*Start).golden(MaxInsns, Golden))
    reportFatalError("register-fault campaign: golden run failed (program "
                     "does not load or halt within the instruction budget)");

  // Draw every fault's coordinates up front: the Prng is consumed in the
  // same serial order regardless of job count, so only the injections
  // themselves run concurrently. SingleBit's drawFaultMask consumes one
  // nextBelow(64) — the same draw the original bit pick made.
  Prng Rng(Seed);
  std::vector<RegisterCoords> Coords;
  SlotPlan Plan;
  for (uint64_t I = 0; I < NumInjections; ++I) {
    RegisterCoords C;
    C.Instance = 1 + Rng.nextBelow(Golden.Insns);
    C.Reg = static_cast<uint8_t>(Rng.nextBelow(15)); // r0..r14.
    C.Mask = drawFaultMask(Rng, Model, 64);
    Coords.push_back(C);
    Plan.Primary.push_back(I);
  }

  RegisterCampaignReport Report;
  RegisterSlots Slots{*Start, Golden, Report};
  runBatchLoop(oneBatch(NumInjections, Jobs), Slots, Coords, Plan);
  return Report;
}

OutcomeCounts cfed::runRegisterFaultCampaign(const AsmProgram &Program,
                                             const DbtConfig &Config,
                                             uint64_t NumInjections,
                                             uint64_t Seed,
                                             uint64_t MaxInsns,
                                             unsigned Jobs) {
  return runRegisterFaultCampaignDetailed(Program, Config, NumInjections,
                                          Seed, MaxInsns,
                                          FaultModel::SingleBit, Jobs)
      .Counts;
}
