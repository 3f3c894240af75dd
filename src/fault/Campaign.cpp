//===- Campaign.cpp - Fault-injection campaigns --------------------------------===//

#include "fault/Campaign.h"

#include "fault/BatchLoop.h"
#include "support/Diagnostics.h"
#include "support/Format.h"
#include "support/Prng.h"
#include "vm/Layout.h"

#include <algorithm>
#include <optional>
#include <set>

using namespace cfed;

const char *cfed::getOutcomeName(Outcome O) {
  switch (O) {
  case Outcome::DetectedSignature:
    return "det-sig";
  case Outcome::DetectedHardware:
    return "det-hw";
  case Outcome::Masked:
    return "masked";
  case Outcome::Sdc:
    return "SDC";
  case Outcome::Timeout:
    return "timeout";
  case Outcome::Recovered:
    return "recovered";
  case Outcome::RecoveryFailed:
    return "rec-fail";
  }
  return "?";
}

std::string cfed::getOutcomeCounterName(BranchErrorCategory Cat, Outcome O) {
  return std::string("fault.cat_") + getCategoryName(Cat) + '.' +
         getOutcomeName(O);
}

telemetry::PropOutcome cfed::toPropOutcome(Outcome O) {
  switch (O) {
  case Outcome::DetectedSignature:
  case Outcome::DetectedHardware:
  case Outcome::Recovered:
    return telemetry::PropOutcome::Detected;
  case Outcome::Sdc:
  case Outcome::RecoveryFailed:
    return telemetry::PropOutcome::Sdc;
  case Outcome::Masked:
    return telemetry::PropOutcome::Masked;
  case Outcome::Timeout:
    return telemetry::PropOutcome::Timeout;
  }
  cfed_unreachable("covered switch");
}

std::string cfed::getPropagationCounterName(BranchErrorCategory Cat,
                                            telemetry::PropClass C) {
  return telemetry::getPropCounterName(getCategoryName(Cat), C);
}

std::string cfed::getPropagationDistanceName(BranchErrorCategory Cat) {
  return telemetry::getPropDistanceHistogramName(getCategoryName(Cat));
}

std::string
cfed::renderPropagationFunnel(const telemetry::RegistrySnapshot &Snap) {
  // Column order mirrors the funnel: detection first, then the bad
  // outcomes, then the benign tail.
  static constexpr telemetry::PropClass Cols[] = {
      telemetry::PropClass::DetectedClean,
      telemetry::PropClass::DetectedAfterDivergence,
      telemetry::PropClass::SdcExplained,
      telemetry::PropClass::SdcUnexplained,
      telemetry::PropClass::MaskedClean,
      telemetry::PropClass::MaskedConverged,
      telemetry::PropClass::MaskedLatent,
      telemetry::PropClass::TimeoutClean,
      telemetry::PropClass::TimeoutAfterDivergence,
  };
  static constexpr const char *ColNames[] = {
      "det-cln", "det-div", "sdc-exp", "sdc-unx", "msk-cln",
      "msk-cnv", "msk-lat", "to-cln",  "to-div",
  };
  constexpr size_t NumCols = sizeof(Cols) / sizeof(Cols[0]);

  uint64_t Grand = 0;
  uint64_t ColTotals[NumCols] = {};
  std::string Rows;
  for (unsigned C = 0; C < NumBranchErrorCategories; ++C) {
    BranchErrorCategory Cat = static_cast<BranchErrorCategory>(C);
    uint64_t RowTotal = 0;
    uint64_t Counts[NumCols];
    for (size_t I = 0; I < NumCols; ++I) {
      Counts[I] = Snap.counterOr(getPropagationCounterName(Cat, Cols[I]));
      RowTotal += Counts[I];
      ColTotals[I] += Counts[I];
    }
    if (!RowTotal)
      continue;
    Grand += RowTotal;
    Rows += formatString("  %-9s %7llu", getCategoryName(Cat),
                         static_cast<unsigned long long>(RowTotal));
    for (size_t I = 0; I < NumCols; ++I)
      Rows += formatString(" %7llu",
                           static_cast<unsigned long long>(Counts[I]));
    std::string Dist = "-";
    for (const auto &[Name, H] : Snap.Histograms)
      if (Name == getPropagationDistanceName(Cat) && H.Count)
        Dist = formatString("%s/%s", H.quantileText(0.5).c_str(),
                            H.quantileText(0.9).c_str());
    Rows += formatString("  %s\n", Dist.c_str());
  }
  if (!Grand)
    return "";

  std::string Out =
      "propagation funnel (first divergence -> outcome, per category):\n";
  Out += formatString("  %-9s %7s", "cell", "inj");
  for (size_t I = 0; I < NumCols; ++I)
    Out += formatString(" %7s", ColNames[I]);
  Out += formatString("  %s\n", "dist p50/p90");
  Out += Rows;
  Out += formatString("  %-9s %7llu", "total",
                      static_cast<unsigned long long>(Grand));
  for (size_t I = 0; I < NumCols; ++I)
    Out += formatString(" %7llu",
                        static_cast<unsigned long long>(ColTotals[I]));
  Out += "  -\n";
  return Out;
}

CampaignResult
cfed::campaignResultFromSnapshot(const telemetry::RegistrySnapshot &Snap) {
  CampaignResult Result;
  for (unsigned C = 0; C < NumBranchErrorCategories; ++C) {
    auto Cat = static_cast<BranchErrorCategory>(C);
    for (unsigned O = 0; O < NumOutcomes; ++O)
      Result.of(Cat).of(static_cast<Outcome>(O)) =
          Snap.counterOr(getOutcomeCounterName(Cat, static_cast<Outcome>(O)));
  }
  Result.Injections = Snap.counterOr("fault.injections");
  return Result;
}

/// OutcomeCounts' tallies in Outcome order.
static constexpr uint64_t OutcomeCounts::*OutcomeFields[NumOutcomes] = {
    &OutcomeCounts::DetectedSig, &OutcomeCounts::DetectedHw,
    &OutcomeCounts::Masked,      &OutcomeCounts::Sdc,
    &OutcomeCounts::Timeout,     &OutcomeCounts::Recovered,
    &OutcomeCounts::RecoveryFailed};

uint64_t &OutcomeCounts::of(Outcome O) {
  return this->*OutcomeFields[static_cast<unsigned>(O)];
}

void OutcomeCounts::merge(const OutcomeCounts &Other) {
  for (uint64_t OutcomeCounts::*Field : OutcomeFields)
    this->*Field += Other.*Field;
}

OutcomeCounts CampaignResult::totals() const {
  OutcomeCounts Totals;
  for (const OutcomeCounts &Row : PerCategory)
    Totals.merge(Row);
  return Totals;
}

namespace {

/// Shared logic: decide whether a branch will be taken given the real
/// architectural state.
bool branchTaken(const Instruction &I, const Flags &F,
                 const CpuState &State) {
  switch (getOpcodeKind(I.Op)) {
  case OpKind::Jump:
  case OpKind::Call:
    return true;
  case OpKind::CondJump:
    return evalCondCode(I.cond(), F);
  case OpKind::RegZeroJump:
    return I.Op == Opcode::Jzr ? State.Regs[I.A] == 0
                               : State.Regs[I.A] != 0;
  default:
    cfed_unreachable("not an offset branch");
  }
}

/// Classifies an erroneous transfer from the cache branch at \p SiteAddr
/// to \p Target against the translator's live block layout.
BranchErrorCategory classifyCacheTarget(const Dbt &Translator,
                                        uint64_t SiteAddr, uint64_t Target) {
  const TranslatedBlock *Own = Translator.cacheBlockContaining(SiteAddr);
  const TranslatedBlock *Dest = Translator.cacheBlockContaining(Target);
  if (!Dest)
    return BranchErrorCategory::F;
  if (Own && Dest->CacheAddr == Own->CacheAddr)
    return Target == Own->CacheAddr ? BranchErrorCategory::B
                                    : BranchErrorCategory::C;
  return Target == Dest->CacheAddr ? BranchErrorCategory::D
                                   : BranchErrorCategory::E;
}

} // namespace

BranchErrorCategory cfed::categorizeFault(const Dbt &Translator,
                                          uint64_t InsnAddr,
                                          const Instruction &I, const Flags &F,
                                          const CpuState &State, FaultKind Kind,
                                          uint64_t Mask) {
  if (Kind == FaultKind::FlagBit) {
    if (I.Op != Opcode::Jcc)
      return BranchErrorCategory::NoError;
    bool Orig = evalCondCode(I.cond(), F);
    bool Mutated = evalCondCode(
        I.cond(), F.withMaskFlipped(static_cast<uint8_t>(Mask)));
    return Orig == Mutated ? BranchErrorCategory::NoError
                           : BranchErrorCategory::A;
  }
  if (!branchTaken(I, F, State))
    return BranchErrorCategory::NoError;
  uint32_t MutatedImm =
      static_cast<uint32_t>(I.Imm) ^ static_cast<uint32_t>(Mask);
  uint64_t Target = InsnAddr + InsnSize +
                    static_cast<int64_t>(static_cast<int32_t>(MutatedImm));
  uint64_t FallThrough = InsnAddr + InsnSize;
  if (Target == FallThrough)
    return BranchErrorCategory::A; // Behaves like a mistaken branch.
  return classifyCacheTarget(Translator, InsnAddr, Target);
}

namespace {

/// Where the planning hook takes over before one candidate: the golden
/// run's index entry just before it.
using PlanWindow = BranchCounter::IndexEntry;

/// Planning hook: indexes dynamic branch executions within the site
/// class and, at each candidate's instance, records the analytic category
/// and retired-instruction index for the pre-drawn fault. It offers
/// deviating candidates to the snapshot set and ends the run at the last
/// candidate, or at a candidate whose successor's window starts later:
/// the planner runs hook-free up to that window and seeks the hook there.
class PlanningHook : public FaultHook {
public:
  PlanningHook(SiteClass Sites, const std::unordered_set<uint64_t> &InstrSites,
               GuestRun &Planner, std::vector<PlannedFault> &Faults,
               const std::vector<PlanWindow> &Windows, SnapshotSet &Snaps,
               RecoveryManager *Manager)
      : Sites(Sites), InstrSites(InstrSites), Planner(Planner),
        Faults(Faults), Windows(Windows), Snaps(Snaps), Manager(Manager) {}

  bool apply(uint64_t InsnAddr, Instruction &I, Flags &F,
             CpuState &State) override {
    bool Instr = InstrSites.count(InsnAddr) != 0;
    if (Sites != SiteClass::Any &&
        (Sites == SiteClass::InstrumentationOnly) != Instr)
      return true;
    ++Counter;
    while (Next < Faults.size() && Faults[Next].Instance == Counter) {
      PlannedFault &Fault = Faults[Next++];
      Fault.Category = categorizeFault(Planner.Translator, InsnAddr, I, F,
                                       State, Fault.Kind, Fault.Mask);
      Fault.InstrSite = Instr;
      Fault.SiteAddr = InsnAddr;
      Fault.InsnIndex = Planner.Interp.instructionCount();
      if (Fault.Category != BranchErrorCategory::NoError)
        Snaps.offer(Planner, I.Op, Manager);
    }
    // Inside a window the next candidate's window never opens later, so
    // this stops only right after a candidate.
    if (Next == Faults.size() ||
        Windows[Next].Insns > Planner.Interp.instructionCount())
      Planner.Interp.requestStop();
    return true;
  }

  /// The next candidate to reach.
  size_t next() const { return Next; }
  /// The planner stands at \p Window, which holds the next candidate.
  /// Windows exist for SiteClass::Any only, so Window.Any is the count.
  void seek(const PlanWindow &Window) { Counter = Window.Any; }

private:
  SiteClass Sites;
  const std::unordered_set<uint64_t> &InstrSites;
  GuestRun &Planner;
  std::vector<PlannedFault> &Faults; // Sorted by Instance.
  const std::vector<PlanWindow> &Windows; // One per fault.
  SnapshotSet &Snaps;
  RecoveryManager *Manager;
  uint64_t Counter = 0;
  size_t Next = 0;
};

/// Applies one planned fault to the branch it is armed for
/// (Interpreter::armFault at the fault's retired-instruction index).
class FaultApplier : public FaultHook {
public:
  explicit FaultApplier(const PlannedFault &Fault) : Fault(Fault) {}

  bool Fired = false;

  bool apply(uint64_t, Instruction &I, Flags &F, CpuState &) override {
    Fired = true;
    if (Fault.Kind == FaultKind::AddrBit)
      I.Imm = static_cast<int32_t>(static_cast<uint32_t>(I.Imm) ^
                                   static_cast<uint32_t>(Fault.Mask));
    else
      F = F.withMaskFlipped(static_cast<uint8_t>(Fault.Mask));
    return true;
  }

private:
  const PlannedFault &Fault;
};

} // namespace

FaultCampaign::FaultCampaign(const AsmProgram &Program, DbtConfig Config)
    : Program(Program), Config(Config) {}

bool FaultCampaign::prepare(uint64_t MaxInsns) {
  Prepared = false;
  GuestRun Ref(Program, Config, PropEnabled);
  if (!Ref.Loaded)
    return false;
  // The load-time snapshot, instant 0: every later run forks from it or
  // from a plan-time snapshot, never loads again.
  Snaps.reset(Ref);
  // The hook-free counting loop counts the golden run's branches.
  BranchCounter Counter(CacheBase, CacheMaxSize);
  Ref.Interp.setBranchCounter(&Counter);
  if (!Ref.golden(MaxInsns, Reference))
    return false;
  if (PropEnabled) {
    Golden.Records = Ref.Digests->takeRecords();
    // Fingerprint the reference execution, not the bytes of the image:
    // the output hash and retired count together reject an oracle
    // recorded from a different program or configuration.
    Golden.ProgramFp = Reference.Hash;
    Golden.ConfigFp = Reference.Insns;
  }

  InstrSites.clear();
  for (const BranchSiteInfo &Site : Ref.Translator.enumerateBranchSites())
    if (Site.IsInstrumentation)
      InstrSites.insert(Site.CacheAddr);

  // Populations go by each site's end-state class, which the planning
  // hook classifies by too.
  BranchExecs = {};
  for (const BranchCounter::Site &Site : Counter.sites()) {
    SiteClass Class = InstrSites.count(Site.Addr)
                          ? SiteClass::InstrumentationOnly
                          : SiteClass::OriginalOnly;
    BranchExecs[static_cast<unsigned>(SiteClass::Any)] += Site.Count;
    BranchExecs[static_cast<unsigned>(Class)] += Site.Count;
  }
  Index = Counter.index();
  Prepared = true;
  return true;
}

uint64_t FaultCampaign::branchExecutions(SiteClass Class) const {
  return BranchExecs[static_cast<unsigned>(Class)];
}

std::vector<PlannedFault> FaultCampaign::plan(uint64_t NumCandidates,
                                              uint64_t Seed, SiteClass Class,
                                              FaultModel Model,
                                              bool TakeSnapshots,
                                              const RecoveryConfig *Recovery) {
  assert(Prepared && "call prepare() first");
  Snaps.beginPlan(Reference.Insns, TakeSnapshots, Recovery);
  uint64_t Population = branchExecutions(Class);
  if (Population == 0)
    return {};

  Prng Rng(Seed);
  std::set<uint64_t> Instances;
  uint64_t Want = std::min(NumCandidates, Population);
  while (Instances.size() < Want)
    Instances.insert(1 + Rng.nextBelow(Population));

  std::vector<PlannedFault> Faults;
  Faults.reserve(Instances.size());
  for (uint64_t InstanceIdx : Instances) {
    PlannedFault Fault;
    Fault.Instance = InstanceIdx;
    // 32 addr bits + 4 flag bits, uniformly (the Section 2 model). The
    // domain draw doubles as the SingleBit mask draw, so single-bit
    // plans reproduce the pre-FaultModel sequences bit-for-bit.
    uint64_t Pick = Rng.nextBelow(36);
    if (Pick < 32) {
      Fault.Kind = FaultKind::AddrBit;
      Fault.Mask = Model == FaultModel::SingleBit
                       ? uint64_t(1) << Pick
                       : drawFaultMask(Rng, Model, 32);
    } else {
      Fault.Kind = FaultKind::FlagBit;
      Fault.Mask = Model == FaultModel::SingleBit
                       ? uint64_t(1) << (Pick - 32)
                       : drawFaultMask(Rng, Model, Flags::NumFlagBits);
    }
    Fault.Bit = static_cast<unsigned>(__builtin_ctzll(Fault.Mask));
    Faults.push_back(Fault);
  }

  // Each candidate's window opens at the last indexed branch before it.
  // The index counts every branch, so class-restricted plans open every
  // window at instant 0: one hooked run.
  std::vector<PlanWindow> Windows(Faults.size());
  if (!Index.empty() && Class == SiteClass::Any)
    for (size_t I = 0; I < Faults.size(); ++I)
      // Entry 0 stands before the first branch, so it precedes every
      // instance.
      Windows[I] = *std::prev(std::partition_point(
          Index.begin(), Index.end(), [&](const PlanWindow &Entry) {
            return Entry.Any < Faults[I].Instance;
          }));

  // The planning run forks the load-time snapshot, so a prop-enabled
  // campaign's Digest markers (and with them the cache layout and the
  // site addresses recorded in prepare()) reproduce. It runs hook-free
  // to each window the hook did not reach, then hooked until the hook
  // stops it. A recovery plan's runs under a RecoveryManager, whose
  // pauses leave the run as it would have been, and on to the end.
  GuestRun Planner(Snaps.start());
  Interpreter &Interp = Planner.Interp;
  const uint64_t Budget = Reference.budget();
  std::optional<RecoveryManager> Manager;
  if (Recovery && TakeSnapshots) {
    Manager.emplace(Interp, Planner.Translator, *Recovery);
    Manager->start(Budget);
  }
  PlanningHook Hook(Class, InstrSites, Planner, Faults, Windows, Snaps,
                    Manager ? &*Manager : nullptr);
  // Runs the planner up to instant Until (the budget: to the end) or
  // until the hook stops it; false once the run has ended.
  auto Advance = [&](uint64_t Until) {
    if (Manager)
      return !Manager->advance(Until);
    StopInfo Stop =
        Planner.Translator.run(Interp, Until - Interp.instructionCount());
    return Stop.Kind == StopKind::InsnLimit &&
           Interp.instructionCount() < Budget;
  };
  while (Hook.next() < Faults.size()) {
    const PlanWindow &Window = Windows[Hook.next()];
    if (Window.Insns > Interp.instructionCount()) {
      if (!Advance(Window.Insns))
        break;
      assert(Interp.instructionCount() == Window.Insns);
      Hook.seek(Window);
    }
    Interp.setFaultHook(&Hook);
    bool Running = Advance(Budget);
    Interp.setFaultHook(nullptr);
    if (!Running)
      break;
  }
  if (Manager) {
    Manager->advance();
    Snaps.endRecoveryPlan(Planner, *Manager, Reference);
  }
  return Faults;
}

Outcome FaultCampaign::inject(const PlannedFault &Fault) const {
  return injectDetailed(Fault).Result;
}

namespace {

/// Annotates and writes one "campaign-injection" bundle.
void writeInjectionBundle(telemetry::FlightRecorder &Recorder, GuestRun &Run,
                          const RunEnd &End, const PlannedFault &Fault,
                          const InjectionReport &Report) {
  telemetry::PostMortem PM = Run.Translator.buildPostMortem(
      "campaign-injection", End.Stop, Run.Interp);
  if (End.UnderRecovery) {
    PM.Recovery.Present = true;
    PM.Recovery.Checkpoints = End.Recovery.NumCheckpoints;
    PM.Recovery.Rollbacks = End.Recovery.NumRollbacks;
    PM.Recovery.WatchdogFires = End.Recovery.NumWatchdogFires;
    PM.Recovery.Degraded = End.Recovery.Degraded;
    PM.Recovery.InterpreterFallback = End.Recovery.InterpreterFallback;
  }
  PM.Annotations.emplace_back("instance", Fault.Instance);
  PM.Annotations.emplace_back("bit", Fault.Bit);
  PM.Annotations.emplace_back(
      "flag_bit_fault", Fault.Kind == FaultKind::FlagBit ? 1 : 0);
  PM.Annotations.emplace_back("site_addr", Fault.SiteAddr);
  PM.Annotations.emplace_back("fired", Report.Fired ? 1 : 0);
  const telemetry::PropagationReport &Prop = Report.Prop;
  if (Prop.Enabled) {
    PM.Propagation.Present = true;
    PM.Propagation.Class = telemetry::getPropClassName(Prop.Class);
    PM.Propagation.Diverged = Prop.Diverged;
    PM.Propagation.DivergenceOrdinal = Prop.DivergenceOrdinal;
    PM.Propagation.DivergenceKey = Prop.DivergenceKey;
    PM.Propagation.DivergencePC = Prop.DivergencePC;
    PM.Propagation.TaintedBlocks = Prop.TaintedBlocks;
    PM.Propagation.ChecksCrossed = Prop.ChecksCrossed;
    PM.Propagation.InsnsCrossed = Prop.InsnsCrossed;
  }
  PM.Note = getOutcomeName(Report.Result);
  Recorder.write(PM);
}

} // namespace

InjectionReport
FaultCampaign::injectFrom(const PlannedFault &Fault, RunFrom From,
                          const RecoveryConfig *Recovery,
                          telemetry::FlightRecorder *Recorder,
                          telemetry::RegistrySnapshot *Final) const {
  assert(Prepared && "call prepare() first");
  // Under recovery a run from a snapshot needs the plan's recovery
  // snapshots for this configuration; without them (or with a bundle to
  // write) it runs from instant 0 to the end.
  bool Rejoin = Recovery && From == RunFrom::Snapshot && !Recorder &&
                Snaps.forksRecovery(*Recovery);
  if (Recovery && !Rejoin && From == RunFrom::Snapshot)
    From = RunFrom::Start;
  std::optional<GuestRun> Run;
  if (From == RunFrom::Load)
    Run.emplace(Program, Config, PropEnabled);
  else
    Run.emplace(From == RunFrom::Start ? Snaps.start()
                                       : Snaps.before(Fault.InsnIndex));
  FaultApplier Hook(Fault);
  Run->Interp.armFault(&Hook, Fault.InsnIndex);
  std::unique_ptr<telemetry::EventTracer> Tracer;
  if (Recorder) {
    Tracer = std::make_unique<telemetry::EventTracer>(Recorder->maxEvents());
    Run->Translator.setTracer(Tracer.get());
  }
  RunEnd End = Run->finish(Reference, Recovery, Rejoin ? &Snaps : nullptr,
                           Fault.InsnIndex);

  InjectionReport Report;
  Report.Result = toOutcome(classifyRun(FaultDetectors, End));
  Report.Fired = Hook.Fired;
  Report.LatencyInsns = Hook.Fired ? End.Insns - Fault.InsnIndex : 0;
  Report.RejoinedAt = End.RejoinedAt;
  if (PropEnabled && !Recovery)
    Report.Prop = telemetry::analyzePropagation(
        Golden.Records, Run->Digests->records(), toPropOutcome(Report.Result),
        Run->Digests->firstRecord());
  if (Recorder)
    writeInjectionBundle(*Recorder, *Run, End, Fault, Report);
  if (Final)
    *Final = Run->Translator.metrics().snapshot();
  Report.Recovery = std::move(End.Recovery);
  return Report;
}

InjectionReport
FaultCampaign::injectDetailed(const PlannedFault &Fault,
                              telemetry::FlightRecorder *Recorder) const {
  // A bundle replay starts at instant 0 so its event ring starts at
  // program start.
  return injectFrom(Fault, Recorder ? RunFrom::Start : RunFrom::Snapshot,
                    nullptr, Recorder);
}

FaultCampaign::RecoveryInjection
FaultCampaign::injectWithRecovery(const PlannedFault &Fault,
                                  const RecoveryConfig &Recovery,
                                  telemetry::FlightRecorder *Recorder) const {
  // A bundle replay starts at instant 0 so its event ring starts at
  // program start.
  return injectFrom(Fault, Recorder ? RunFrom::Start : RunFrom::Snapshot,
                    &Recovery, Recorder);
}

CampaignResult FaultCampaign::runOneBatch(uint64_t NumInjections,
                                          uint64_t Seed, SiteClass Sites,
                                          unsigned Jobs,
                                          const RecoveryConfig *Recovery) {
  EngineConfig Engine = oneBatch(NumInjections, Jobs);
  Engine.Seed = Seed;
  Engine.Sites = Sites;
  Engine.Recovery = Recovery;
  telemetry::RegistrySnapshot Snap = runFaultPlan(*this, Engine).Registry;
  Metrics.merge(Snap);
  return campaignResultFromSnapshot(Snap);
}

CampaignResult FaultCampaign::run(uint64_t NumInjections, uint64_t Seed,
                                  SiteClass Sites, unsigned Jobs) {
  return runOneBatch(NumInjections, Seed, Sites, Jobs, nullptr);
}

CampaignResult FaultCampaign::runWithRecovery(uint64_t NumInjections,
                                              uint64_t Seed, SiteClass Sites,
                                              const RecoveryConfig &Recovery,
                                              unsigned Jobs) {
  CampaignResult Result =
      runOneBatch(NumInjections, Seed, Sites, Jobs, &Recovery);
  // The ladder counters are present even when nothing was injected.
  for (const char *Name :
       {"recovery.checkpoints", "recovery.rollbacks", "recovery.watchdog_fires",
        "recovery.degradations", "recovery.interp_fallbacks"})
    Metrics.counter(Name);
  return Result;
}
