//===- Attack.cpp - Adversarial control-flow attack campaigns -------------------===//

#include "fault/Attack.h"

#include "fault/BatchLoop.h"
#include "support/Diagnostics.h"
#include "support/Format.h"
#include "support/Prng.h"

#include <algorithm>
#include <set>

using namespace cfed;

const char *cfed::getAttackFamilyName(AttackFamily F) {
  switch (F) {
  case AttackFamily::Return:
    return "return";
  case AttackFamily::Indirect:
    return "indirect";
  case AttackFamily::CodePatch:
    return "code-patch";
  }
  return "?";
}

BranchErrorCategory cfed::attackCategory(AttackFamily F) {
  switch (F) {
  case AttackFamily::Return:
    return BranchErrorCategory::AttackReturn;
  case AttackFamily::Indirect:
    return BranchErrorCategory::AttackIndirect;
  case AttackFamily::CodePatch:
    return BranchErrorCategory::AttackCodePatch;
  }
  cfed_unreachable("covered switch");
}

const char *cfed::getAttackOutcomeName(AttackOutcome O) {
  switch (O) {
  case AttackOutcome::DetectedSignature:
    return "det-sig";
  case AttackOutcome::DetectedShadowStack:
    return "det-shadow";
  case AttackOutcome::DetectedIntegrity:
    return "det-integ";
  case AttackOutcome::DetectedHardware:
    return "det-hw";
  case AttackOutcome::Evaded:
    return "evaded";
  case AttackOutcome::Masked:
    return "masked";
  case AttackOutcome::Timeout:
    return "timeout";
  case AttackOutcome::Recovered:
    return "recovered";
  case AttackOutcome::RecoveryFailed:
    return "rec-fail";
  }
  return "?";
}

std::string cfed::getAttackCounterName(AttackFamily F, AttackOutcome O) {
  return std::string("attack.") + getAttackFamilyName(F) + '.' +
         getAttackOutcomeName(O);
}

/// AttackOutcomeCounts' tallies in AttackOutcome order.
static constexpr uint64_t AttackOutcomeCounts::*AttackFields[NumAttackOutcomes] =
    {&AttackOutcomeCounts::DetectedSig,    &AttackOutcomeCounts::DetectedShadow,
     &AttackOutcomeCounts::DetectedIntegrity, &AttackOutcomeCounts::DetectedHw,
     &AttackOutcomeCounts::Evaded,         &AttackOutcomeCounts::Masked,
     &AttackOutcomeCounts::Timeout,        &AttackOutcomeCounts::Recovered,
     &AttackOutcomeCounts::RecoveryFailed};

uint64_t &AttackOutcomeCounts::of(AttackOutcome O) {
  return this->*AttackFields[static_cast<unsigned>(O)];
}

void AttackOutcomeCounts::merge(const AttackOutcomeCounts &Other) {
  for (uint64_t AttackOutcomeCounts::*Field : AttackFields)
    this->*Field += Other.*Field;
}

AttackOutcomeCounts AttackResult::totals() const {
  AttackOutcomeCounts Totals;
  for (const AttackOutcomeCounts &Row : PerFamily)
    Totals.merge(Row);
  return Totals;
}

AttackResult
cfed::attackResultFromSnapshot(const telemetry::RegistrySnapshot &Snap) {
  AttackResult Result;
  for (unsigned F = 0; F < NumAttackFamilies; ++F) {
    auto Family = static_cast<AttackFamily>(F);
    for (unsigned O = 0; O < NumAttackOutcomes; ++O)
      Result.of(Family).of(static_cast<AttackOutcome>(O)) = Snap.counterOr(
          getAttackCounterName(Family, static_cast<AttackOutcome>(O)));
  }
  Result.Attacks = Snap.counterOr("attack.attacks");
  return Result;
}

bool cfed::hasAttackTallies(const telemetry::RegistrySnapshot &Snap) {
  if (Snap.counterOr("attack.attacks"))
    return true;
  for (unsigned F = 0; F < NumAttackFamilies; ++F)
    for (unsigned O = 0; O < NumAttackOutcomes; ++O)
      if (Snap.counterOr(getAttackCounterName(static_cast<AttackFamily>(F),
                                              static_cast<AttackOutcome>(O))))
        return true;
  return false;
}

std::string
cfed::renderPrecisionMatrix(const telemetry::RegistrySnapshot &Snap) {
  AttackResult Result = attackResultFromSnapshot(Snap);
  if (!Result.Attacks && !Result.totals().total())
    return "";

  auto Row = [](const char *Name, const AttackOutcomeCounts &C) {
    return formatString("  %-10s %7llu %8llu %9llu %7llu %7llu %7llu %7llu "
                        "%9llu %8llu %7llu\n",
                        Name, static_cast<unsigned long long>(C.DetectedSig),
                        static_cast<unsigned long long>(C.DetectedShadow),
                        static_cast<unsigned long long>(C.DetectedIntegrity),
                        static_cast<unsigned long long>(C.DetectedHw),
                        static_cast<unsigned long long>(C.Evaded),
                        static_cast<unsigned long long>(C.Masked),
                        static_cast<unsigned long long>(C.Timeout),
                        static_cast<unsigned long long>(C.Recovered),
                        static_cast<unsigned long long>(C.RecoveryFailed),
                        static_cast<unsigned long long>(C.total()));
  };

  std::string Out = "precision matrix (attack family x outcome):\n";
  Out += formatString("  %-10s %7s %8s %9s %7s %7s %7s %7s %9s %8s %7s\n",
                      "family", "det-sig", "det-shdw", "det-integ", "det-hw",
                      "evaded", "masked", "timeout", "recovered", "rec-fail",
                      "total");
  for (unsigned F = 0; F < NumAttackFamilies; ++F) {
    auto Family = static_cast<AttackFamily>(F);
    if (!Result.of(Family).total())
      continue;
    Out += Row(getAttackFamilyName(Family), Result.of(Family));
  }
  Out += Row("total", Result.totals());
  return Out;
}

std::string
cfed::renderPrecisionSummaryLine(const telemetry::RegistrySnapshot &Snap) {
  AttackResult Result = attackResultFromSnapshot(Snap);
  AttackOutcomeCounts T = Result.totals();
  return formatString(
      "precision-summary: attacks=%llu detected=%llu shadow_only=%llu "
      "undetected=%llu recovered=%llu benign=%llu",
      static_cast<unsigned long long>(Result.Attacks),
      static_cast<unsigned long long>(T.detected()),
      static_cast<unsigned long long>(T.DetectedShadow),
      static_cast<unsigned long long>(T.undetected()),
      static_cast<unsigned long long>(T.Recovered),
      static_cast<unsigned long long>(T.Masked));
}

//===----------------------------------------------------------------------===//
// Campaign
//===----------------------------------------------------------------------===//

namespace {

/// Classifies one executed instruction as an attackable dynamic event.
/// Returns true with \p F set when it is one. The streams:
///  * Return    — the ret lowering's `pop aux2` (guest code never names
///                reserved registers, so the pattern is unambiguous).
///  * Indirect  — a TrampR dispatching on a guest register (the ret
///                lowering's TrampR runs on aux2 and is excluded: its
///                corruption surface is the stack, not the IBTC).
///  * CodePatch — a direct exit: an unchained Tramp stub or the Jmp it
///                was chained into (the only plain Jmps in the cache).
bool classifyEvent(uint64_t InsnAddr, const Instruction &I, AttackFamily &F) {
  if (InsnAddr < CacheBase)
    return false;
  if (I.Op == Opcode::Pop && I.A == RegAUX2) {
    F = AttackFamily::Return;
    return true;
  }
  if (I.Op == Opcode::TrampR && I.A < FirstReservedReg) {
    F = AttackFamily::Indirect;
    return true;
  }
  if (I.Op == Opcode::Tramp || I.Op == Opcode::Jmp) {
    F = AttackFamily::CodePatch;
    return true;
  }
  return false;
}

/// Counts dynamic attackable events per family (golden run).
class EventCountingHook : public PreInsnHook {
public:
  std::array<uint64_t, NumAttackFamilies> Counts{};

  void onInsn(uint64_t InsnAddr, const Instruction &I, CpuState &) override {
    AttackFamily F;
    if (classifyEvent(InsnAddr, I, F))
      ++Counts[static_cast<unsigned>(F)];
  }
};

/// The guest target the event would transfer to, read from the live
/// pre-execution state.
uint64_t eventRealTarget(const Dbt &Translator, const Memory &Mem,
                         uint64_t InsnAddr, const Instruction &I,
                         const CpuState &State, AttackFamily F) {
  switch (F) {
  case AttackFamily::Return: {
    MemResult R;
    return Mem.read64(State.Regs[RegSP], R);
  }
  case AttackFamily::Indirect:
    return State.Regs[I.A];
  case AttackFamily::CodePatch: {
    if (I.Op == Opcode::Tramp)
      return static_cast<uint64_t>(static_cast<int64_t>(I.Imm));
    // A chained Jmp: map its cache target back to the guest block.
    uint64_t Target = InsnAddr + InsnSize + static_cast<int64_t>(I.Imm);
    return Translator.guestPCFor(Target);
  }
  }
  cfed_unreachable("covered switch");
}

/// Picks the gadget for one planned attack: a translated block (live at
/// the event instant) other than the real target, preferring one the
/// checker's oracle certifies as signature-compatible with the forged
/// edge. \p Salt rotates the deterministic scan start so a campaign
/// exercises many gadgets. Returns false when no candidate exists.
bool pickGadget(const Dbt &Translator, uint64_t SiteGuestBlock,
                uint64_t RealTarget, uint64_t Salt, uint64_t &Forged,
                bool &Valid) {
  std::vector<uint64_t> Pool;
  Pool.reserve(Translator.blocks().size());
  for (const TranslatedBlock &TB : Translator.blocks())
    Pool.push_back(TB.GuestAddr);
  std::sort(Pool.begin(), Pool.end());
  Pool.erase(std::unique(Pool.begin(), Pool.end()), Pool.end());
  if (Pool.empty())
    return false;

  const ControlFlowChecker &Checker = Translator.checker();
  uint64_t Start = Salt % Pool.size();
  uint64_t Fallback = 0;
  bool HaveFallback = false;
  for (size_t I = 0; I < Pool.size(); ++I) {
    uint64_t C = Pool[(Start + I) % Pool.size()];
    if (C == RealTarget)
      continue;
    if (Checker.acceptsForgedReturn(SiteGuestBlock, C)) {
      Forged = C;
      Valid = true;
      return true;
    }
    if (!HaveFallback) {
      Fallback = C;
      HaveFallback = true;
    }
  }
  if (!HaveFallback)
    return false;
  // No oracle-certified gadget: attack with the first candidate anyway
  // (the run measures whether the signature actually catches it).
  Forged = Fallback;
  Valid = false;
  return true;
}

/// Planning hook: walks all three families' event streams in one run,
/// fills each pre-drawn attack at its chosen instance, offers the
/// actionable ones to the snapshot set and ends the run at the last
/// attack.
class AttackPlanningHook : public PreInsnHook {
public:
  AttackPlanningHook(GuestRun &Planner,
                     std::array<std::vector<PlannedAttack>,
                                NumAttackFamilies> &Plans,
                     const std::array<std::vector<uint64_t>,
                                      NumAttackFamilies> &Salts,
                     SnapshotSet &Snaps)
      : Planner(Planner), Plans(Plans), Salts(Salts), Snaps(Snaps) {
    for (const auto &Plan : Plans)
      Unfilled += Plan.size();
  }

  void onInsn(uint64_t InsnAddr, const Instruction &I,
              CpuState &State) override {
    AttackFamily F;
    if (!classifyEvent(InsnAddr, I, F))
      return;
    unsigned Idx = static_cast<unsigned>(F);
    ++Counter[Idx];
    std::vector<PlannedAttack> &Plan = Plans[Idx];
    size_t &Cursor = Next[Idx];
    const Dbt &Translator = Planner.Translator;
    while (Cursor < Plan.size() && Plan[Cursor].Instance == Counter[Idx]) {
      PlannedAttack &Attack = Plan[Cursor];
      Attack.SiteAddr = InsnAddr;
      Attack.RealTarget =
          eventRealTarget(Translator, Planner.Mem, InsnAddr, I, State, F);
      Attack.InsnIndex = Planner.Interp.instructionCount();
      uint64_t Forged = 0;
      bool Valid = false;
      if (pickGadget(Translator, Translator.guestPCFor(InsnAddr),
                     Attack.RealTarget, Salts[Idx][Cursor], Forged, Valid)) {
        Attack.ForgedTarget = Forged;
        Attack.GadgetValid = Valid;
        Snaps.offer(Planner, I.Op);
      }
      ++Cursor;
      if (--Unfilled == 0)
        Planner.Interp.requestStop();
    }
  }

private:
  GuestRun &Planner;
  std::array<std::vector<PlannedAttack>, NumAttackFamilies> &Plans;
  const std::array<std::vector<uint64_t>, NumAttackFamilies> &Salts;
  SnapshotSet &Snaps;
  std::array<uint64_t, NumAttackFamilies> Counter{};
  std::array<size_t, NumAttackFamilies> Next{};
  size_t Unfilled = 0;
};

/// Applies one planned attack to the event instruction it is armed for
/// (Interpreter::armFault at the event's retired-instruction index).
class AttackApplier : public FaultHook {
public:
  AttackApplier(const PlannedAttack &Attack, Dbt &Translator, Memory &Mem)
      : Attack(Attack), Translator(Translator), Mem(Mem) {}

  bool Fired = false;

  bool apply(uint64_t InsnAddr, Instruction &I, Flags &,
             CpuState &State) override {
    Fired = true;
    switch (Attack.Family) {
    case AttackFamily::Return:
      // Overwrite the return address the imminent Pop consumes. Raw
      // writes still feed the page-write observer, so recovery's undo
      // log captures the corruption like any guest store.
      Mem.writeRaw(State.Regs[RegSP], &Attack.ForgedTarget, 8);
      break;
    case AttackFamily::Indirect:
      // Key the swap on the live dispatch value (equals the planned
      // RealTarget in a deterministic replay).
      Translator.attackSwapIbtcEntry(State.Regs[I.A], Attack.ForgedTarget);
      break;
    case AttackFamily::CodePatch:
      // Emits its own AttackApplied trace event; the patch takes effect
      // at this site's next execution (this instruction is already
      // fetched).
      Translator.attackPatchDirectExit(InsnAddr, Attack.ForgedTarget);
      return true;
    }
    if (telemetry::EventTracer *T = Translator.tracer())
      T->record(Attack.InsnIndex, telemetry::TraceEventKind::AttackApplied,
                getAttackFamilyName(Attack.Family), InsnAddr,
                Attack.ForgedTarget);
    return true;
  }

private:
  const PlannedAttack &Attack;
  Dbt &Translator;
  Memory &Mem;
};

/// Annotates and writes one attack bundle. Evasions get their own
/// reason so CI and DESIGN.md §15 can cite the proof artifacts.
void writeAttackBundle(telemetry::FlightRecorder &Recorder, Dbt &Translator,
                       Interpreter &Interp, const StopInfo &Stop,
                       const PlannedAttack &Attack, bool Fired,
                       AttackOutcome Result) {
  bool Evasion = Result == AttackOutcome::Evaded ||
                 Result == AttackOutcome::Timeout;
  telemetry::PostMortem PM = Translator.buildPostMortem(
      Evasion ? "attack-evasion" : "attack-injection", Stop, Interp);
  PM.Annotations.emplace_back("instance", Attack.Instance);
  PM.Annotations.emplace_back("family",
                              static_cast<uint64_t>(Attack.Family));
  PM.Annotations.emplace_back("site_addr", Attack.SiteAddr);
  PM.Annotations.emplace_back("real_target", Attack.RealTarget);
  PM.Annotations.emplace_back("forged_target", Attack.ForgedTarget);
  PM.Annotations.emplace_back("gadget_valid", Attack.GadgetValid ? 1 : 0);
  PM.Annotations.emplace_back("fired", Fired ? 1 : 0);
  PM.Note = getAttackOutcomeName(Result);
  Recorder.write(PM);
}

} // namespace

AttackCampaign::AttackCampaign(const AsmProgram &Program, DbtConfig Config)
    : Program(Program), Config(Config) {}

bool AttackCampaign::prepare(uint64_t MaxInsns) {
  Prepared = false;
  GuestRun Ref(Program, Config);
  if (!Ref.Loaded)
    return false;
  Snaps.reset(Ref);
  EventCountingHook Hook;
  Ref.Interp.setPreInsnHook(&Hook);
  if (!Ref.golden(MaxInsns, Reference))
    return false;
  EventCounts = Hook.Counts;
  Prepared = true;
  return true;
}

std::vector<PlannedAttack> AttackCampaign::plan(uint64_t NumCandidates,
                                                uint64_t Seed,
                                                bool TakeSnapshots) {
  assert(Prepared && "call prepare() first");
  Snaps.beginPlan(Reference.Insns, TakeSnapshots);

  // Even split over the families with a non-empty stream; per-family
  // Prngs run on derived seeds so each family's draw sequence is
  // independent of the others' populations.
  unsigned Active = 0;
  for (uint64_t Count : EventCounts)
    Active += Count > 0;
  if (!Active)
    return {};

  std::array<std::vector<PlannedAttack>, NumAttackFamilies> Plans;
  std::array<std::vector<uint64_t>, NumAttackFamilies> Salts;
  unsigned Nth = 0;
  for (unsigned F = 0; F < NumAttackFamilies; ++F) {
    uint64_t Population = EventCounts[F];
    if (!Population)
      continue;
    uint64_t Want = NumCandidates / Active + (Nth < NumCandidates % Active);
    ++Nth;
    Want = std::min(Want, Population);
    Prng Rng(Seed + 0x9e3779b97f4a7c15ULL * (F + 1));
    std::set<uint64_t> Instances;
    while (Instances.size() < Want)
      Instances.insert(1 + Rng.nextBelow(Population));
    for (uint64_t InstanceIdx : Instances) {
      PlannedAttack Attack;
      Attack.Instance = InstanceIdx;
      Attack.Family = static_cast<AttackFamily>(F);
      Plans[F].push_back(Attack);
      Salts[F].push_back(Rng.next());
    }
  }

  GuestRun Planner(Snaps.start());
  AttackPlanningHook Hook(Planner, Plans, Salts, Snaps);
  Planner.Interp.setPreInsnHook(&Hook);
  Planner.finish(Reference);

  // Interleave round-robin so a truncated selection still covers every
  // family.
  std::vector<PlannedAttack> Out;
  size_t MaxLen = 0;
  for (const auto &Plan : Plans)
    MaxLen = std::max(MaxLen, Plan.size());
  for (size_t I = 0; I < MaxLen; ++I)
    for (const auto &Plan : Plans)
      if (I < Plan.size())
        Out.push_back(Plan[I]);
  return Out;
}

AttackCampaign::AttackReport
AttackCampaign::injectAttack(const PlannedAttack &Attack,
                             const RecoveryConfig *Recovery,
                             telemetry::FlightRecorder *Recorder) const {
  assert(Prepared && "call prepare() first");
  // Recovery runs and bundle replays start at instant 0: the checkpoint
  // ring and the event ring see the whole run.
  GuestRun Run(Recovery || Recorder ? Snaps.start()
                                    : Snaps.before(Attack.InsnIndex));
  AttackApplier Hook(Attack, Run.Translator, Run.Mem);
  Run.Interp.armFault(&Hook, Attack.InsnIndex);
  std::unique_ptr<telemetry::EventTracer> Tracer;
  if (Recorder) {
    Tracer = std::make_unique<telemetry::EventTracer>(Recorder->maxEvents());
    Run.Translator.setTracer(Tracer.get());
  }
  RunEnd End = Run.finish(Reference, Recovery);

  AttackReport Report;
  Report.Result = classifyRun(AttackDetectors, End);
  Report.Fired = Hook.Fired;
  if (Hook.Fired)
    Report.LatencyInsns = Run.Interp.instructionCount() - Attack.InsnIndex;
  if (Recorder)
    writeAttackBundle(*Recorder, Run.Translator, Run.Interp, End.Stop, Attack,
                      Hook.Fired, Report.Result);
  return Report;
}

AttackResult AttackCampaign::runOneBatch(uint64_t NumAttacks, uint64_t Seed,
                                         unsigned Jobs,
                                         const RecoveryConfig *Recovery,
                                         telemetry::FlightRecorder *Recorder) {
  EngineConfig Engine = oneBatch(NumAttacks, Jobs);
  Engine.Seed = Seed;
  Engine.Recovery = Recovery;
  Engine.Recorder = Recorder;
  telemetry::RegistrySnapshot Snap = runAttackPlan(*this, Engine).Registry;
  Metrics.merge(Snap);
  return attackResultFromSnapshot(Snap);
}

AttackResult AttackCampaign::run(uint64_t NumAttacks, uint64_t Seed,
                                 unsigned Jobs,
                                 telemetry::FlightRecorder *Recorder) {
  return runOneBatch(NumAttacks, Seed, Jobs, nullptr, Recorder);
}

AttackResult AttackCampaign::runWithRecovery(uint64_t NumAttacks,
                                             uint64_t Seed,
                                             const RecoveryConfig &Recovery,
                                             unsigned Jobs) {
  return runOneBatch(NumAttacks, Seed, Jobs, &Recovery, nullptr);
}
