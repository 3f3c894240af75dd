//===- GuestRun.cpp - One campaign run and its classification -------------------===//

#include "fault/GuestRun.h"

#include "fault/Attack.h"
#include "fault/Campaign.h"
#include "support/Diagnostics.h"

#include <algorithm>
#include <cassert>
#include <cstring>

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
      Loaded(From.Loaded), RecoveryState(From.RecoveryState) {
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
  RecoveryPlan.reset();
  Start = Loaded.snapshot();
}

void SnapshotSet::beginPlan(uint64_t GoldenInsns, bool Take,
                            const RecoveryConfig *Recovery) {
  Plan.clear();
  GapBefore.clear();
  RecoveryPlan.reset();
  Spacing = Take ? (GoldenInsns + MaxPlanSnapshots - 1) / MaxPlanSnapshots
                 : 0;
  Last = 0;
  if (Take && Recovery) {
    RecoveryPlan = std::make_unique<GoldenRecovery>();
    RecoveryPlan->Config = *Recovery;
  }
}

void SnapshotSet::offer(GuestRun &Planner, Opcode Op,
                        RecoveryManager *Manager) {
  const Interpreter &Live = Planner.Interp;
  if (!Spacing || Live.instructionCount() < Last + Spacing)
    return;
  Last = Live.instructionCount();
  std::unique_ptr<GuestRun> Snap = Planner.snapshot();
  Snap->Interp.restoreProgress(Live.instructionCount() - 1,
                               Live.cycleCount() - getOpcodeCost(Op),
                               Live.output().size());
  if (Manager) {
    Snap->RecoveryState = std::make_shared<const RecoveryManager::RunState>(
        Manager->pausedState(Live.instructionCount() - 1));
    GapBefore.push_back(Manager->takeLongestCheckGap());
  }
  Plan.push_back(std::move(Snap));
}

void SnapshotSet::endRecoveryPlan(GuestRun &Planner, RecoveryManager &Manager,
                                  const GoldenRun &Golden) {
  assert(RecoveryPlan && "a recovery plan begins with beginPlan");
  uint64_t Insns = Planner.Interp.instructionCount();
  // The stretch from the last check to the end counts like one ended by
  // a check: a slice end inside it finds that many since the check.
  uint64_t Gap = std::max(Manager.takeLongestCheckGap(),
                          Insns - Manager.runState().LastCheck);
  GoldenRecovery &R = *RecoveryPlan;
  R.End = Manager.finish();
  R.Insns = Insns;
  R.Usable = R.End.Completed && R.End.NumRollbacks == 0 &&
             R.End.NumWatchdogFires == 0 && !R.End.Degraded &&
             !R.End.InterpreterFallback && Insns == Golden.Insns &&
             hashOutput(Planner.Interp.output()) == Golden.Hash &&
             Planner.Translator.integrityMismatchCount() == 0;
  R.Stretch.assign(Plan.size(), 0);
  for (size_t I = Plan.size(); I-- > 0;) {
    R.Stretch[I] = Gap;
    Gap = std::max(Gap, GapBefore[I]);
  }
}

const GuestRun &SnapshotSet::before(uint64_t InsnIndex) const {
  auto After = std::partition_point(
      Plan.begin(), Plan.end(), [&](const auto &Snap) {
        return Snap->Interp.instructionCount() < InsnIndex;
      });
  return After == Plan.begin() ? *Start : **std::prev(After);
}

namespace {

bool sameCpu(const CpuState &A, const CpuState &B) {
  return std::memcmp(A.Regs, B.Regs, sizeof(A.Regs)) == 0 &&
         std::memcmp(A.FpRegs, B.FpRegs, sizeof(A.FpRegs)) == 0 &&
         A.F.pack() == B.F.pack() && A.PC == B.PC;
}

/// Whether the paused \p Run stands where the snapshot \p Snap was taken,
/// apart from its recovery manager. Cheap tests first.
bool sameGuestRun(const GuestRun &Run, const GuestRun &Snap) {
  const Interpreter &A = Run.Interp, &B = Snap.Interp;
  return A.instructionCount() == B.instructionCount() &&
         A.cycleCount() == B.cycleCount() && sameCpu(A.state(), B.state()) &&
         A.output().size() == B.output().size() &&
         Run.Translator.sameTranslations(Snap.Translator) &&
         A.output() == B.output() && Run.Mem.sameContents(Snap.Mem);
}

} // namespace

bool SnapshotSet::rejoin(GuestRun &Run, RecoveryManager &Manager,
                         uint64_t From, RunEnd &End) const {
  assert(RecoveryPlan && RecoveryPlan->Usable && "not a recovery plan");
  const GoldenRecovery &Golden = *RecoveryPlan;
  for (;;) {
    // The next snapshot instant at or after both the fault and now.
    uint64_t Now = Run.Interp.instructionCount();
    uint64_t Next = std::max(From, Now + 1);
    auto It = std::partition_point(
        Plan.begin(), Plan.end(), [&](const auto &Snap) {
          return Snap->Interp.instructionCount() < Next;
        });
    if (It == Plan.end())
      return false;
    const GuestRun &Snap = **It;
    uint64_t At = Snap.Interp.instructionCount();
    if (Manager.advance(At))
      return false;
    assert(Run.Interp.instructionCount() == At && "only a budget pauses");
    Manager.settle();
    const RecoveryManager::RunState &Mine = Manager.runState();
    const RecoveryManager::RunState &Theirs = *Snap.RecoveryState;
    const RecoveryReport &Rest = Golden.End;
    if (!Manager.rejoins(Theirs, Golden.Stretch[It - Plan.begin()],
                         Golden.Insns - At) ||
        !sameGuestRun(Run, Snap))
      continue;

    // The rest is the golden run's: its end, plus what it did from here.
    End.Recovery = Mine.Report;
    RecoveryReport &R = End.Recovery;
    R.NumCheckpoints += Rest.NumCheckpoints - Theirs.Report.NumCheckpoints;
    R.TotalExecuted += Rest.TotalExecuted - Theirs.Report.TotalExecuted;
    R.Completed = Rest.Completed;
    R.FinalStop = Rest.FinalStop;
    R.GuestStopPC = Rest.GuestStopPC;
    End.Stop = Rest.FinalStop;
    End.GoldenOutput = true;
    End.Insns = Golden.Insns;
    End.RejoinedAt = At;
    return true;
  }
}

bool GuestRun::golden(uint64_t MaxInsns, GoldenRun &Out) {
  if (!Loaded || Translator.run(Interp, MaxInsns).Kind != StopKind::Halted)
    return false;
  Out.Insns = Interp.instructionCount();
  Out.Hash = hashOutput(Interp.output());
  return true;
}

RunEnd GuestRun::finish(const GoldenRun &Golden,
                        const RecoveryConfig *Recovery,
                        const SnapshotSet *Plan, uint64_t RejoinFrom) {
  if (!Loaded)
    reportFatalError("campaign instance failed to load after its golden run");
  RunEnd End;
  End.UnderRecovery = Recovery != nullptr;
  if (Recovery) {
    RecoveryManager Manager(Interp, Translator, *Recovery);
    if (RecoveryState) {
      Manager.resume(*RecoveryState, Golden.budget());
    } else {
      // The seed checkpoint sits at the program entry.
      assert(Interp.instructionCount() == 0 && "recovery starts at instant 0");
      Manager.start(Golden.budget());
    }
    if (Plan && Plan->rejoin(*this, Manager, RejoinFrom, End)) {
      Manager.finish();
      End.Healed = Translator.integrityMismatchCount() > 0;
      return End;
    }
    Manager.advance();
    End.Recovery = Manager.finish();
    End.Stop = End.Recovery.FinalStop;
  } else {
    End.Stop = Translator.run(Interp,
                              Golden.budget() - Interp.instructionCount());
  }
  End.Insns = Interp.instructionCount();
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
