//===- GuestRun.cpp - One campaign run and its classification -------------------===//

#include "fault/GuestRun.h"

#include "fault/Attack.h"
#include "fault/Campaign.h"
#include "support/Diagnostics.h"

#include <algorithm>
#include <cassert>

using namespace cfed;

GuestRun::GuestRun(const AsmProgram &Program, const DbtConfig &Config,
                   bool TrackDigests)
    : Digests(TrackDigests ? std::make_unique<telemetry::DigestRecorder>()
                           : nullptr),
      Translator(Mem, Config), Interp(Mem) {
  Translator.setDigestRecorder(Digests.get());
  Loaded = Translator.load(Program, Interp.state());
}

template <typename MemoryTag>
GuestRun::GuestRun(const GuestRun &From, MemoryTag Tag)
    : Mem(From.Mem, Tag),
      Digests(From.Digests
                  ? std::make_unique<telemetry::DigestRecorder>(*From.Digests)
                  : nullptr),
      Translator(Mem, From.Translator), Interp(Mem, From.Interp),
      Loaded(From.Loaded) {
  Translator.setDigestRecorder(Digests.get());
}

GuestRun::GuestRun(const GuestRun &Snapshot)
    : GuestRun(Snapshot, Memory::Fork) {}

std::unique_ptr<GuestRun> GuestRun::snapshot() {
  Mem.freeze();
  return std::unique_ptr<GuestRun>(new GuestRun(*this, Memory::Image));
}

void SnapshotSet::reset(GuestRun &Loaded) {
  Plan.clear();
  Start = Loaded.snapshot();
}

void SnapshotSet::beginPlan(uint64_t GoldenInsns, bool Take) {
  Plan.clear();
  Spacing = Take ? (GoldenInsns + MaxPlanSnapshots - 1) / MaxPlanSnapshots
                 : 0;
  Last = 0;
}

void SnapshotSet::offer(GuestRun &Planner, Opcode Op) {
  const Interpreter &Live = Planner.Interp;
  if (!Spacing || Live.instructionCount() < Last + Spacing)
    return;
  Last = Live.instructionCount();
  std::unique_ptr<GuestRun> Snap = Planner.snapshot();
  Snap->Interp.restoreProgress(Live.instructionCount() - 1,
                               Live.cycleCount() - getOpcodeCost(Op),
                               Live.output().size());
  Plan.push_back(std::move(Snap));
}

const GuestRun &SnapshotSet::before(uint64_t InsnIndex) const {
  auto After = std::partition_point(
      Plan.begin(), Plan.end(), [&](const auto &Snap) {
        return Snap->Interp.instructionCount() < InsnIndex;
      });
  return After == Plan.begin() ? *Start : **std::prev(After);
}

bool GuestRun::golden(uint64_t MaxInsns, GoldenRun &Out) {
  if (!Loaded || Translator.run(Interp, MaxInsns).Kind != StopKind::Halted)
    return false;
  Out.Insns = Interp.instructionCount();
  Out.Hash = hashOutput(Interp.output());
  return true;
}

RunEnd GuestRun::finish(const GoldenRun &Golden,
                        const RecoveryConfig *Recovery) {
  if (!Loaded)
    reportFatalError("campaign instance failed to load after its golden run");
  RunEnd End;
  End.UnderRecovery = Recovery != nullptr;
  if (Recovery) {
    // The seed checkpoint sits at the program entry.
    assert(Interp.instructionCount() == 0 && "recovery starts at instant 0");
    RecoveryManager Manager(Interp, Translator, *Recovery);
    End.Recovery = Manager.run(Golden.budget());
    End.Stop = End.Recovery.FinalStop;
  } else {
    End.Stop = Translator.run(Interp,
                              Golden.budget() - Interp.instructionCount());
  }
  End.GoldenOutput = End.Stop.Kind == StopKind::Halted &&
                     hashOutput(Interp.output()) == Golden.Hash;
  End.Healed = Translator.integrityMismatchCount() > 0;
  if (End.Stop.Kind == StopKind::Trapped &&
      End.Stop.Trap == TrapKind::DivByZero) {
    const TranslatedBlock *Block =
        Translator.cacheBlockContaining(End.Stop.TrapAddr);
    End.TrapInInstrumentation =
        Block && Block->isInstrumentation(End.Stop.TrapAddr);
  }
  return End;
}

AttackOutcome cfed::classifyRun(const DetectorTable &Kind, const RunEnd &End) {
  const bool RolledBack = End.Recovery.NumRollbacks > 0;
  switch (End.Stop.Kind) {
  case StopKind::Halted:
    if (!End.GoldenOutput)
      return RolledBack ? AttackOutcome::RecoveryFailed : AttackOutcome::Evaded;
    if (RolledBack)
      return AttackOutcome::Recovered;
    return End.Healed && (End.UnderRecovery ? Kind.HealsUnderRecovery
                                            : Kind.HealsPlain)
               ? AttackOutcome::DetectedIntegrity
               : AttackOutcome::Masked;
  case StopKind::InsnLimit:
    return RolledBack ? AttackOutcome::RecoveryFailed : AttackOutcome::Timeout;
  case StopKind::Trapped:
    break;
  }
  // A trap that ends a recovery run means even the interpreter fallback
  // could not make progress: the ladder is exhausted.
  if (End.UnderRecovery)
    return AttackOutcome::RecoveryFailed;
  const StopInfo &Stop = End.Stop;
  if (Stop.Trap == TrapKind::BreakTrap) {
    if (Stop.BreakCode == BrkControlFlowError ||
        (Stop.BreakCode == BrkMonitorCorruption && Kind.MonitorCorruption) ||
        (Stop.BreakCode == BrkDataFlowError && Kind.DataFlow))
      return AttackOutcome::DetectedSignature;
    if (Stop.BreakCode == BrkShadowStackViolation && Kind.ShadowStack)
      return AttackOutcome::DetectedShadowStack;
  } else if (Stop.Trap == TrapKind::DivByZero && Kind.EccaDivByZero &&
             End.TrapInInstrumentation) {
    // ECCA reports through the div-by-zero handler (Section 3.1).
    return AttackOutcome::DetectedSignature;
  }
  return AttackOutcome::DetectedHardware;
}

Outcome cfed::toOutcome(AttackOutcome O) {
  switch (O) {
  case AttackOutcome::DetectedSignature:
    return Outcome::DetectedSignature;
  case AttackOutcome::DetectedShadowStack:
  case AttackOutcome::DetectedHardware:
    return Outcome::DetectedHardware;
  case AttackOutcome::DetectedIntegrity:
  case AttackOutcome::Recovered:
    return Outcome::Recovered;
  case AttackOutcome::Evaded:
    return Outcome::Sdc;
  case AttackOutcome::Masked:
    return Outcome::Masked;
  case AttackOutcome::Timeout:
    return Outcome::Timeout;
  case AttackOutcome::RecoveryFailed:
    return Outcome::RecoveryFailed;
  }
  cfed_unreachable("covered switch");
}
