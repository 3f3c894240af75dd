//===- ForkReplayTest.cpp - Forked injections equal their replays ---------===//
//
// An injection forks the latest plan-time snapshot at or before its
// instant and applies the fault at the branch's retired-instruction index
// (DESIGN.md §12). These tests hold every fork to the run it stands for:
// the same fault forked from the load-time snapshot (instant 0), and, for
// a sample, from a fresh load of the program. They compare the
// InjectionReport and the run's final translator registry, whose counters
// (translations, dispatches, chains, IBTC hits, scrubs, integrity
// mismatches) see host state a fork might drop even where the outcome
// does not. The sample is also held to a whole hooked run from a fresh
// load that counts dynamic branch executions to find the fault's
// instance, so the index-armed fault fires where the counting one did.
//
// Planning runs hook-free between short hooked windows, opened at the
// golden run's index of branch instants (DESIGN.md §12); every plan is
// held to one hooked run from instant 0 over the whole program: the same
// candidates, categories, sites, instants and snapshot count, for every
// site class.
//
// Attack, register and integrity faults take the same path, and each is
// held to a fresh-load replay under the instance-counting injector its
// kind used before arming: outcome, Fired and latency, plain and under
// recovery, and the campaign's tallies to the replays' fold.
//
//===----------------------------------------------------------------------===//

#include "fault/Attack.h"
#include "fault/Campaign.h"
#include "fault/IntegrityFault.h"
#include "fault/RegisterFault.h"
#include "support/Prng.h"
#include "vm/Layout.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <set>
#include <tuple>
#include <utility>

using namespace cfed;

namespace {

constexpr uint64_t GoldenBudget = 50000000ULL;
/// The engine's shape for a 16-injection campaign: a 4x over-plan. Its
/// snapshots stand at some deviating candidates, so some forks start
/// right at their fault and the rest replay from an earlier snapshot.
constexpr uint64_t PlanCandidates = 64;

using RunFrom = FaultCampaign::RunFrom;

std::string describe(const PlannedFault &F) {
  return "instance " + std::to_string(F.Instance) + " (insn " +
         std::to_string(F.InsnIndex) + ", bit " + std::to_string(F.Bit) +
         (F.Kind == FaultKind::FlagBit ? " flag" : " addr") + ")";
}

/// Names every instrument whose value differs between \p A and \p B.
std::string registryDiff(const telemetry::RegistrySnapshot &A,
                         const telemetry::RegistrySnapshot &B) {
  std::string Out;
  auto Check = [&Out](const auto &L, const auto &R) {
    for (const auto &[Name, Value] : L) {
      bool Same = false;
      for (const auto &[OtherName, OtherValue] : R)
        if (OtherName == Name)
          Same = OtherValue == Value;
      if (!Same)
        Out += " " + Name;
    }
  };
  Check(A.Counters, B.Counters);
  Check(B.Counters, A.Counters);
  Check(A.Gauges, B.Gauges);
  Check(B.Gauges, A.Gauges);
  Check(A.Histograms, B.Histograms);
  Check(B.Histograms, A.Histograms);
  return Out;
}

/// Injects \p F from \p From and \p Reference and expects the same report
/// and final translator registry. Returns the report from \p From.
InjectionReport expectSameRun(const FaultCampaign &Campaign,
                              const PlannedFault &F, RunFrom From,
                              RunFrom Reference,
                              const RecoveryConfig *Recovery,
                              const std::string &Where) {
  telemetry::RegistrySnapshot FinalA, FinalB;
  InjectionReport A =
      Campaign.injectFrom(F, From, Recovery, nullptr, &FinalA);
  InjectionReport B =
      Campaign.injectFrom(F, Reference, Recovery, nullptr, &FinalB);
  std::string What = Where + ", " + describe(F);
  EXPECT_EQ(A.Result, B.Result) << What;
  EXPECT_EQ(A.Fired, B.Fired) << What;
  EXPECT_EQ(A.LatencyInsns, B.LatencyInsns) << What;
  const RecoveryReport &RA = A.Recovery, &RB = B.Recovery;
  EXPECT_EQ(RA.Completed, RB.Completed) << What;
  EXPECT_EQ(RA.FinalStop.Kind, RB.FinalStop.Kind) << What;
  EXPECT_EQ(RA.FinalStop.Trap, RB.FinalStop.Trap) << What;
  EXPECT_EQ(RA.FinalStop.PC, RB.FinalStop.PC) << What;
  EXPECT_EQ(RA.GuestStopPC, RB.GuestStopPC) << What;
  EXPECT_EQ(RA.NumCheckpoints, RB.NumCheckpoints) << What;
  EXPECT_EQ(RA.NumRollbacks, RB.NumRollbacks) << What;
  EXPECT_EQ(RA.NumWatchdogFires, RB.NumWatchdogFires) << What;
  EXPECT_EQ(RA.Degraded, RB.Degraded) << What;
  EXPECT_EQ(RA.InterpreterFallback, RB.InterpreterFallback) << What;
  EXPECT_EQ(RA.FirstDetection, RB.FirstDetection) << What;
  EXPECT_EQ(RA.TotalExecuted, RB.TotalExecuted) << What;
  const telemetry::PropagationReport &PA = A.Prop, &PB = B.Prop;
  EXPECT_EQ(PA.Enabled, PB.Enabled) << What;
  EXPECT_EQ(PA.Class, PB.Class) << What;
  EXPECT_EQ(PA.Diverged, PB.Diverged) << What;
  EXPECT_EQ(PA.DivergenceOrdinal, PB.DivergenceOrdinal) << What;
  EXPECT_EQ(PA.DivergenceKey, PB.DivergenceKey) << What;
  EXPECT_EQ(PA.DivergencePC, PB.DivergencePC) << What;
  EXPECT_EQ(PA.TaintedBlocks, PB.TaintedBlocks) << What;
  EXPECT_EQ(PA.ChecksCrossed, PB.ChecksCrossed) << What;
  EXPECT_EQ(PA.InsnsCrossed, PB.InsnsCrossed) << What;
  EXPECT_TRUE(FinalA == FinalB)
      << What << ": final registries differ in" << registryDiff(FinalA, FinalB);
  return A;
}

/// Applies one planned fault the way injections did before they were
/// armed at an instruction index: counts dynamic branch executions
/// (SiteClass::Any) over the whole run and strikes the fault's instance.
class CountingInjector : public FaultHook {
public:
  CountingInjector(const PlannedFault &Fault, const Interpreter &Interp)
      : Fault(Fault), Interp(Interp) {}

  bool Fired = false;
  uint64_t InsnsAtFire = 0;

  bool apply(uint64_t, Instruction &I, Flags &F, CpuState &) override {
    if (Fired || ++Counter != Fault.Instance)
      return true;
    Fired = true;
    InsnsAtFire = Interp.instructionCount();
    if (Fault.Kind == FaultKind::AddrBit)
      I.Imm = static_cast<int32_t>(static_cast<uint32_t>(I.Imm) ^
                                   static_cast<uint32_t>(Fault.Mask));
    else
      F = F.withMaskFlipped(static_cast<uint8_t>(Fault.Mask));
    return true;
  }

private:
  const PlannedFault &Fault;
  const Interpreter &Interp;
  uint64_t Counter = 0;
};

DbtConfig techConfig(Technique Tech) {
  DbtConfig Config;
  Config.Tech = Tech;
  return Config;
}

/// EdgCF with every self-integrity layer: the scrubber, per-dispatch
/// verification, shadow signatures and the shadow return stack.
DbtConfig assuredConfig() {
  DbtConfig Config = techConfig(Technique::EdgCf);
  Config.ScrubInterval = 16;
  Config.VerifyDispatchInterval = 1;
  Config.ShadowSignature = true;
  Config.ShadowStack = true;
  return Config;
}

/// A prepared and planned campaign over one workload.
struct PlannedCampaign {
  AsmProgram Program;
  FaultCampaign Campaign;
  std::vector<PlannedFault> Plan;

  PlannedCampaign(const std::string &Workload, const DbtConfig &Config,
                  bool Propagation = false)
      : Program(assembleWorkload(Workload)), Campaign(Program, Config) {
    Campaign.enablePropagation(Propagation);
    EXPECT_TRUE(Campaign.prepare(GoldenBudget)) << Workload;
    Plan = Campaign.plan(PlanCandidates, 7, SiteClass::Any);
    EXPECT_FALSE(Plan.empty()) << Workload;
  }

  /// Runs \p F under a CountingInjector from a fresh load and expects
  /// it to fire at the planned instant with \p Report's latency.
  void expectCountingReplay(const PlannedFault &F, const DbtConfig &Config,
                            const InjectionReport &Report,
                            const std::string &Where) {
    GuestRun Run(Program, Config);
    CountingInjector Hook(F, Run.Interp);
    Run.Interp.setFaultHook(&Hook);
    GoldenRun Golden;
    Golden.Insns = Campaign.goldenInsns();
    Golden.Hash = Campaign.goldenHash();
    Run.finish(Golden);
    std::string What = Where + ", " + describe(F);
    ASSERT_TRUE(Hook.Fired) << What;
    EXPECT_EQ(Hook.InsnsAtFire, F.InsnIndex) << What;
    EXPECT_EQ(Report.LatencyInsns,
              Run.Interp.instructionCount() - Hook.InsnsAtFire)
        << What;
  }
};

using CellParam = std::tuple<std::string, Technique>;

class ForkReplayTest : public ::testing::TestWithParam<CellParam> {};

} // namespace

TEST_P(ForkReplayTest, EveryCandidateMatchesInstantZero) {
  const auto &[Workload, Tech] = GetParam();
  PlannedCampaign C(Workload, techConfig(Tech));
  for (size_t I = 0; I < C.Plan.size(); ++I) {
    const PlannedFault &F = C.Plan[I];
    ASSERT_NE(F.InsnIndex, 0u) << describe(F);
    InjectionReport Report =
        expectSameRun(C.Campaign, F, RunFrom::Snapshot, RunFrom::Start,
                      nullptr, Workload + " snapshot vs instant 0");
    // The fault-free prefix always reaches the planned branch.
    EXPECT_TRUE(Report.Fired) << Workload << ", " << describe(F);
    if (I % 16 == 0) {
      expectSameRun(C.Campaign, F, RunFrom::Start, RunFrom::Load, nullptr,
                    Workload + " instant 0 vs fresh load");
      C.expectCountingReplay(F, techConfig(Tech), Report,
                             Workload + " vs counting replay");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCells, ForkReplayTest,
    ::testing::Combine(::testing::ValuesIn([] {
                         std::vector<std::string> Names;
                         for (const WorkloadInfo &Info : getWorkloadSuite())
                           Names.push_back(Info.Name);
                         return Names;
                       }()),
                       ::testing::Values(Technique::Ecf, Technique::EdgCf,
                                         Technique::Rcf)),
    [](const ::testing::TestParamInfo<CellParam> &Info) {
      std::string Name = std::get<0>(Info.param) + "_" +
                         getTechniqueName(std::get<1>(Info.param));
      for (char &Ch : Name)
        if (!isalnum(static_cast<unsigned char>(Ch)))
          Ch = '_';
      return Name;
    });

TEST(ForkReplaySubsetTest, PropagationMatchesInstantZero) {
  for (const char *Workload : {"164.gzip", "186.crafty", "179.art"}) {
    PlannedCampaign C(Workload, techConfig(Technique::EdgCf),
                      /*Propagation=*/true);
    for (const PlannedFault &F : C.Plan)
      expectSameRun(C.Campaign, F, RunFrom::Snapshot, RunFrom::Start,
                    nullptr, std::string(Workload) + " with propagation");
    expectSameRun(C.Campaign, C.Plan.front(), RunFrom::Start, RunFrom::Load,
                  nullptr, std::string(Workload) + " with propagation");
  }
}

TEST(ForkReplaySubsetTest, RecoveryFromInstantZeroMatchesFreshLoad) {
  RecoveryConfig Recovery;
  for (const char *Workload : {"164.gzip", "186.crafty", "254.gap"})
    for (Technique Tech : {Technique::Ecf, Technique::Rcf}) {
      PlannedCampaign C(Workload, techConfig(Tech));
      for (size_t I = 0; I < C.Plan.size(); I += 4)
        expectSameRun(C.Campaign, C.Plan[I], RunFrom::Start, RunFrom::Load,
                      &Recovery, std::string(Workload) + " under recovery");
    }
}

TEST(ForkReplaySubsetTest, AssuredConfigurationMatches) {
  RecoveryConfig Recovery;
  for (const char *Workload : {"164.gzip", "186.crafty", "181.mcf"}) {
    PlannedCampaign C(Workload, assuredConfig());
    for (size_t I = 0; I < C.Plan.size(); ++I) {
      expectSameRun(C.Campaign, C.Plan[I], RunFrom::Snapshot, RunFrom::Start,
                    nullptr, std::string(Workload) + " assured");
      if (I % 8 == 0)
        expectSameRun(C.Campaign, C.Plan[I], RunFrom::Start, RunFrom::Load,
                      &Recovery, std::string(Workload) + " assured, recovery");
    }
  }
}

namespace {

uint64_t foldPlan(const std::vector<PlannedFault> &Plan) {
  uint64_t Hash = 0xcbf29ce484222325ULL;
  for (const PlannedFault &F : Plan)
    for (uint64_t V : {F.Instance, uint64_t(F.Kind), uint64_t(F.Bit), F.Mask,
                       uint64_t(F.Category), uint64_t(F.InstrSite),
                       F.SiteAddr})
      for (unsigned Byte = 0; Byte < 8; ++Byte) {
        Hash ^= (V >> (8 * Byte)) & 0xff;
        Hash *= 0x100000001b3ULL;
      }
  return Hash;
}

/// Counts the dynamic branches of one site class over a whole hooked run
/// and, at each wanted instance, records what a planner records: the
/// fault's analytic category, the site, its class and the
/// retired-instruction index. Sites are classed by \p InstrSites, the
/// golden run's end state.
class InstanceProbe : public FaultHook {
public:
  InstanceProbe(const GuestRun &Run, SiteClass Sites,
                const std::set<uint64_t> &InstrSites,
                std::vector<PlannedFault> &Wanted)
      : Run(Run), Sites(Sites), InstrSites(InstrSites), Wanted(Wanted) {}

  /// Branches of the class seen so far.
  uint64_t Counter = 0;

  bool apply(uint64_t InsnAddr, Instruction &I, Flags &F,
             CpuState &State) override {
    bool Instr = InstrSites.count(InsnAddr) != 0;
    if (Sites != SiteClass::Any &&
        (Sites == SiteClass::InstrumentationOnly) != Instr)
      return true;
    ++Counter;
    for (; Next < Wanted.size() && Wanted[Next].Instance == Counter; ++Next) {
      PlannedFault &Fault = Wanted[Next];
      Fault.Category = categorizeFault(Run.Translator, InsnAddr, I, F, State,
                                       Fault.Kind, Fault.Mask);
      Fault.InstrSite = Instr;
      Fault.SiteAddr = InsnAddr;
      Fault.InsnIndex = Run.Interp.instructionCount();
    }
    return true;
  }

private:
  const GuestRun &Run;
  SiteClass Sites;
  const std::set<uint64_t> &InstrSites;
  std::vector<PlannedFault> &Wanted; // Sorted by Instance.
  size_t Next = 0;
};

/// The whole-run hooked plan of an indexed plan's draws.
struct HookedPlan {
  std::vector<PlannedFault> Plan;
  /// Branches of the site class in the whole run.
  uint64_t Population = 0;
  /// Snapshots the plan's deviating candidates earn under SnapshotSet's
  /// spacing (one per 1/MaxPlanSnapshots of the golden run).
  size_t Snapshots = 0;
};

/// Replans \p Indexed's instances, kinds and masks with an InstanceProbe
/// over a fresh load, after a golden run for the end-state site classes.
HookedPlan hookedPlan(const AsmProgram &Program, const DbtConfig &Config,
                      bool Propagation, SiteClass Sites,
                      const std::vector<PlannedFault> &Indexed) {
  std::set<uint64_t> InstrSites;
  GoldenRun Golden;
  {
    GuestRun Run(Program, Config, Propagation);
    EXPECT_TRUE(Run.golden(GoldenBudget, Golden));
    for (const BranchSiteInfo &Site : Run.Translator.enumerateBranchSites())
      if (Site.IsInstrumentation)
        InstrSites.insert(Site.CacheAddr);
  }
  HookedPlan Out;
  for (const PlannedFault &F : Indexed) {
    PlannedFault Draw;
    Draw.Instance = F.Instance;
    Draw.Kind = F.Kind;
    Draw.Bit = F.Bit;
    Draw.Mask = F.Mask;
    Out.Plan.push_back(Draw);
  }
  GuestRun Run(Program, Config, Propagation);
  InstanceProbe Probe(Run, Sites, InstrSites, Out.Plan);
  Run.Interp.setFaultHook(&Probe);
  EXPECT_EQ(Run.Translator.run(Run.Interp, Golden.budget()).Kind,
            StopKind::Halted);
  Out.Population = Probe.Counter;
  const uint64_t Spacing =
      (Golden.Insns + SnapshotSet::MaxPlanSnapshots - 1) /
      SnapshotSet::MaxPlanSnapshots;
  uint64_t Last = 0;
  for (const PlannedFault &F : Out.Plan)
    if (F.Category != BranchErrorCategory::NoError &&
        F.InsnIndex >= Last + Spacing) {
      ++Out.Snapshots;
      Last = F.InsnIndex;
    }
  return Out;
}

/// Plans plan(PlanCandidates, 7, \p Sites) on \p Campaign (prepared
/// over \p Program) and holds it to the hooked plan.
void expectHookedPlan(FaultCampaign &Campaign, const AsmProgram &Program,
                      const DbtConfig &Config, bool Propagation,
                      SiteClass Sites, const std::string &Where) {
  std::vector<PlannedFault> Plan = Campaign.plan(PlanCandidates, 7, Sites);
  HookedPlan Ref = hookedPlan(Program, Config, Propagation, Sites, Plan);
  EXPECT_EQ(Campaign.branchExecutions(Sites), Ref.Population) << Where;
  EXPECT_EQ(Plan.size(), std::min(PlanCandidates, Ref.Population)) << Where;
  EXPECT_EQ(foldPlan(Plan), foldPlan(Ref.Plan)) << Where;
  for (size_t I = 0; I < Plan.size(); ++I) {
    EXPECT_NE(Plan[I].InsnIndex, 0u) << Where << ", " << describe(Plan[I]);
    EXPECT_EQ(Plan[I].InsnIndex, Ref.Plan[I].InsnIndex)
        << Where << ", " << describe(Plan[I]);
  }
  EXPECT_EQ(Campaign.numSnapshots(), Ref.Snapshots) << Where;
}

constexpr SiteClass AllSiteClasses[] = {
    SiteClass::Any, SiteClass::OriginalOnly, SiteClass::InstrumentationOnly};

std::string siteClassName(SiteClass Sites) {
  return Sites == SiteClass::Any            ? "any"
         : Sites == SiteClass::OriginalOnly ? "original"
                                            : "instrumentation";
}

class FaultPlanIndexTest : public ::testing::TestWithParam<std::string> {};

} // namespace

TEST(FaultPlanTest, PlanningStopAtTheLastCandidateMovesNoCandidate) {
  // Fingerprints of (instance, kind, bit, mask, category, instrumentation
  // flag, site) over plan(64, seed 7), as the planner that ran every
  // planning run to halt produced them.
  struct Pin {
    const char *Workload;
    Technique Tech;
    SiteClass Sites;
    uint64_t Fingerprint;
  };
  const Pin Pins[] = {
      {"164.gzip", Technique::Ecf, SiteClass::Any, 0x6b9fd60180ac59c1ULL},
      {"164.gzip", Technique::EdgCf, SiteClass::Any, 0x9eee5c6ddf6074b1ULL},
      {"164.gzip", Technique::Rcf, SiteClass::Any, 0x79470fe0c077b2c5ULL},
      {"164.gzip", Technique::Rcf, SiteClass::InstrumentationOnly,
       0xd97738207fca7a79ULL},
      {"186.crafty", Technique::Ecf, SiteClass::Any, 0x81513599030a927eULL},
      {"186.crafty", Technique::EdgCf, SiteClass::OriginalOnly,
       0x4ee6a6d596493a80ULL},
      {"186.crafty", Technique::Rcf, SiteClass::Any, 0x16c5e62dba36f11cULL},
      {"252.eon", Technique::EdgCf, SiteClass::Any, 0x088c81eb68791453ULL},
  };
  for (const Pin &P : Pins) {
    std::string Where = std::string(P.Workload) + " " +
                        getTechniqueName(P.Tech) + " sites " +
                        std::to_string(int(P.Sites));
    AsmProgram Program = assembleWorkload(P.Workload);
    FaultCampaign Campaign(Program, techConfig(P.Tech));
    ASSERT_TRUE(Campaign.prepare(GoldenBudget)) << Where;
    std::vector<PlannedFault> Plan = Campaign.plan(64, 7, P.Sites);
    ASSERT_EQ(Plan.size(), 64u) << Where;
    EXPECT_EQ(foldPlan(Plan), P.Fingerprint) << Where;
    // Snapshots do not move candidates either.
    EXPECT_EQ(foldPlan(Campaign.plan(64, 7, P.Sites, FaultModel::SingleBit,
                                     /*TakeSnapshots=*/false)),
              P.Fingerprint)
        << Where;
    // Every candidate's site and instant match a whole run's, counted
    // within the pin's site class.
    HookedPlan Ref =
        hookedPlan(Program, techConfig(P.Tech), false, P.Sites, Plan);
    ASSERT_EQ(Ref.Plan.size(), Plan.size()) << Where;
    for (size_t I = 0; I < Plan.size(); ++I) {
      ASSERT_NE(Ref.Plan[I].InsnIndex, 0u) << Where;
      EXPECT_EQ(Plan[I].SiteAddr, Ref.Plan[I].SiteAddr) << Where;
      EXPECT_EQ(Plan[I].InsnIndex, Ref.Plan[I].InsnIndex) << Where;
    }
  }
}

TEST(FaultPlanTest, SnapshotsAreBoundedWhateverThePlanSize) {
  // A campaign of thousands of injections plans four times as many
  // candidates; its snapshots stay spaced over the golden run, and
  // injections of the large plan still equal their instant-0 replays.
  AsmProgram Program = assembleWorkload("164.gzip");
  FaultCampaign Campaign(Program, techConfig(Technique::EdgCf));
  ASSERT_TRUE(Campaign.prepare(GoldenBudget));
  std::vector<PlannedFault> Plan = Campaign.plan(8000, 7, SiteClass::Any);
  ASSERT_EQ(Plan.size(), 8000u);
  EXPECT_GT(Campaign.numSnapshots(), SnapshotSet::MaxPlanSnapshots / 2);
  EXPECT_LE(Campaign.numSnapshots(), SnapshotSet::MaxPlanSnapshots);
  for (size_t I = 0; I < Plan.size(); I += 500)
    expectSameRun(Campaign, Plan[I], RunFrom::Snapshot, RunFrom::Start,
                  nullptr, "164.gzip, 8000-candidate plan");
  Campaign.plan(8000, 7, SiteClass::Any, FaultModel::SingleBit,
                /*TakeSnapshots=*/false);
  EXPECT_EQ(Campaign.numSnapshots(), 0u);
}

TEST_P(FaultPlanIndexTest, IndexedPlanEqualsHookedPlan) {
  const std::string &Workload = GetParam();
  AsmProgram Program = assembleWorkload(Workload);
  for (Technique Tech : {Technique::Ecf, Technique::EdgCf, Technique::Rcf}) {
    FaultCampaign Campaign(Program, techConfig(Tech));
    ASSERT_TRUE(Campaign.prepare(GoldenBudget)) << Workload;
    for (SiteClass Sites : AllSiteClasses)
      expectHookedPlan(Campaign, Program, techConfig(Tech), false, Sites,
                       Workload + " " + getTechniqueName(Tech) + " " +
                           siteClassName(Sites));
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, FaultPlanIndexTest,
                         ::testing::ValuesIn([] {
                           std::vector<std::string> Names;
                           for (const WorkloadInfo &Info : getWorkloadSuite())
                             Names.push_back(Info.Name);
                           return Names;
                         }()),
                         [](const auto &Info) {
                           std::string Name = Info.param;
                           for (char &Ch : Name)
                             if (Ch == '.')
                               Ch = '_';
                           return Name;
                         });

TEST(FaultPlanTest, IndexedPlanWithPropagationEqualsHookedPlan) {
  // Digest markers change the cache layout and retire no instruction.
  for (const char *Workload : {"164.gzip", "186.crafty", "179.art"}) {
    AsmProgram Program = assembleWorkload(Workload);
    FaultCampaign Campaign(Program, techConfig(Technique::EdgCf));
    Campaign.enablePropagation(true);
    ASSERT_TRUE(Campaign.prepare(GoldenBudget)) << Workload;
    for (SiteClass Sites : AllSiteClasses)
      expectHookedPlan(Campaign, Program, techConfig(Technique::EdgCf), true,
                       Sites,
                       std::string(Workload) + " with propagation, " +
                           siteClassName(Sites));
  }
}

TEST(FaultPlanTest, SelfModifyingProgramPlansLikeTheHookedRun) {
  // The program of DbtTest.SelfModifyingCodeIsRetranslated: its store
  // flushes the cache and the retranslation reuses the flushed slots, so
  // the index spans two cache layouts. Plans over all sites seek through
  // it; class-restricted plans class by the end state, as the hooked
  // run does.
  AsmResult Source = assembleProgram(R"(
.entry main
main:
  movi r1, patch
  movi r2, 99
  stb [r1+4], r2
  jmp cont
cont:
patch:
  movi r3, 7
  out r3
  halt
)");
  ASSERT_TRUE(Source.succeeded()) << Source.errorText();
  const AsmProgram &Program = Source.Program;
  for (Technique Tech : {Technique::Ecf, Technique::EdgCf, Technique::Rcf}) {
    std::string Where = getTechniqueName(Tech);
    {
      // The premise: the golden run flushes the cache once.
      GuestRun Run(Program, techConfig(Tech));
      GoldenRun Golden;
      ASSERT_TRUE(Run.golden(GoldenBudget, Golden)) << Where;
      EXPECT_EQ(Run.Translator.flushCount(), 1u) << Where;
    }
    FaultCampaign Campaign(Program, techConfig(Tech));
    ASSERT_TRUE(Campaign.prepare(GoldenBudget)) << Where;
    for (SiteClass Sites : AllSiteClasses) {
      EXPECT_GT(Campaign.branchExecutions(Sites), 0u) << Where;
      expectHookedPlan(Campaign, Program, techConfig(Tech), false, Sites,
                       Where + " " + siteClassName(Sites));
    }
  }
}

//===----------------------------------------------------------------------===//
// Attack, register and integrity faults
//===----------------------------------------------------------------------===//

namespace {

/// How a counting replay ended, in the fields every kind reports.
struct Replay {
  AttackOutcome Result = AttackOutcome::Masked;
  bool Fired = false;
  /// Retired instructions when the injector struck, and at the end.
  uint64_t InsnsAtFire = 0;
  uint64_t InsnsAtEnd = 0;
};

/// Runs \p Run (a fresh load) to its end under the counting \p Hook,
/// plain or under \p Recovery, and classifies it under \p Kind. The hook
/// is the interpreter's own pre-instruction hook; under recovery it runs
/// beside the manager, after the manager's safe-point bookkeeping.
template <typename Hook>
Replay finishCounting(GuestRun &Run, Hook &Injector, const GoldenRun &Golden,
                      const DetectorTable &Kind,
                      const RecoveryConfig *Recovery) {
  RunEnd End;
  Run.Interp.setPreInsnHook(&Injector);
  if (Recovery) {
    RecoveryManager Manager(Run.Interp, Run.Translator, *Recovery);
    End.UnderRecovery = true;
    End.Recovery = Manager.run(Golden.budget());
    End.Stop = End.Recovery.FinalStop;
    End.GoldenOutput = End.Stop.Kind == StopKind::Halted &&
                       hashOutput(Run.Interp.output()) == Golden.Hash;
    End.Healed = Run.Translator.integrityMismatchCount() > 0;
  } else {
    End = Run.finish(Golden);
  }
  Replay R;
  R.Result = classifyRun(Kind, End);
  R.Fired = Injector.Fired;
  R.InsnsAtFire = Injector.InsnsAtFire;
  R.InsnsAtEnd = Run.Interp.instructionCount();
  return R;
}

/// The attack event streams (as the campaign classifies them).
bool attackEvent(uint64_t InsnAddr, const Instruction &I, AttackFamily &F) {
  if (InsnAddr < CacheBase)
    return false;
  if (I.Op == Opcode::Pop && I.A == RegAUX2)
    F = AttackFamily::Return;
  else if (I.Op == Opcode::TrampR && I.A < FirstReservedReg)
    F = AttackFamily::Indirect;
  else if (I.Op == Opcode::Tramp || I.Op == Opcode::Jmp)
    F = AttackFamily::CodePatch;
  else
    return false;
  return true;
}

/// Applies one planned attack the way injections did before they were
/// armed at an instruction index: counts its family's dynamic events
/// over the whole run and strikes the planned instance.
class CountingAttackInjector : public PreInsnHook {
public:
  CountingAttackInjector(const PlannedAttack &Attack, GuestRun &Run)
      : Attack(Attack), Run(Run) {}

  bool Fired = false;
  uint64_t InsnsAtFire = 0;

  void onInsn(uint64_t InsnAddr, const Instruction &I,
              CpuState &State) override {
    AttackFamily F;
    if (Fired || !attackEvent(InsnAddr, I, F) || F != Attack.Family ||
        ++Counter != Attack.Instance)
      return;
    Fired = true;
    InsnsAtFire = Run.Interp.instructionCount();
    switch (Attack.Family) {
    case AttackFamily::Return:
      Run.Mem.writeRaw(State.Regs[RegSP], &Attack.ForgedTarget, 8);
      break;
    case AttackFamily::Indirect:
      Run.Translator.attackSwapIbtcEntry(State.Regs[I.A],
                                         Attack.ForgedTarget);
      break;
    case AttackFamily::CodePatch:
      Run.Translator.attackPatchDirectExit(InsnAddr, Attack.ForgedTarget);
      break;
    }
  }

private:
  const PlannedAttack &Attack;
  GuestRun &Run;
  uint64_t Counter = 0;
};

/// XORs a mask into a register before the Instance-th executed
/// instruction, counting every one.
class CountingRegisterInjector : public PreInsnHook {
public:
  CountingRegisterInjector(uint64_t Instance, uint8_t Reg, uint64_t Mask,
                           const Interpreter &Interp)
      : Instance(Instance), Reg(Reg), Mask(Mask), Interp(Interp) {}

  bool Fired = false;
  uint64_t InsnsAtFire = 0;

  void onInsn(uint64_t, const Instruction &, CpuState &State) override {
    if (Fired || ++Counter != Instance)
      return;
    Fired = true;
    InsnsAtFire = Interp.instructionCount();
    State.Regs[Reg] ^= Mask;
  }

private:
  uint64_t Instance;
  uint8_t Reg;
  uint64_t Mask;
  const Interpreter &Interp;
  uint64_t Counter = 0;
};

/// Counts executed instructions and, from the Instance-th on, offers
/// each to an (unarmed) production integrity injector until it strikes.
class CountingIntegrityInjector : public PreInsnHook {
public:
  CountingIntegrityInjector(uint64_t Instance, IntegrityTarget Target,
                            uint64_t Pick, unsigned Bit, GuestRun &Run)
      : Instance(Instance), Strike(Run.Mem, Run.Translator, Target, Pick, Bit),
        Interp(Run.Interp) {}

  bool Fired = false;
  uint64_t InsnsAtFire = 0;

  void onInsn(uint64_t InsnAddr, const Instruction &I,
              CpuState &State) override {
    if (Fired || ++Counter < Instance)
      return;
    Instruction Copy = I;
    Flags F = State.F;
    Fired = Strike.apply(InsnAddr, Copy, F, State);
    InsnsAtFire = Interp.instructionCount();
  }

private:
  uint64_t Instance;
  IntegrityFaultInjector Strike;
  const Interpreter &Interp;
  uint64_t Counter = 0;
};

/// Records the retired-instruction count at which an armed injector
/// strikes.
template <typename Injector> class Stamped : public Injector {
public:
  template <typename... Args>
  Stamped(const Interpreter &Interp, Args &&...A)
      : Injector(std::forward<Args>(A)...), Interp(Interp) {}

  uint64_t InsnsAtFire = 0;

  bool apply(uint64_t InsnAddr, Instruction &I, Flags &F,
             CpuState &State) override {
    bool Struck = Injector::apply(InsnAddr, I, F, State);
    if (Struck)
      InsnsAtFire = Interp.instructionCount();
    return Struck;
  }

private:
  const Interpreter &Interp;
};

std::string describeAttack(const PlannedAttack &A) {
  return std::string(getAttackFamilyName(A.Family)) + " instance " +
         std::to_string(A.Instance) + " (insn " +
         std::to_string(A.InsnIndex) + ")";
}

} // namespace

/// Calls through a function-pointer table, so its indirect dispatches
/// are attackable too (the suite's workloads offer returns and direct
/// exits).
constexpr const char *IndirectCalls = ".entry main\n"
                                      ".data\n"
                                      "ops: .word op_a, op_b\n"
                                      ".code\n"
                                      "op_a:\n  add r1, r1, r2\n  ret\n"
                                      "op_b:\n  mul r1, r1, r2\n  ret\n"
                                      "main:\n"
                                      "  movi r1, 5\n  movi r2, 3\n"
                                      "  movi r5, 0\n"
                                      "loop:\n"
                                      "  andi r6, r5, 1\n"
                                      "  shli r6, r6, 3\n"
                                      "  movi r4, ops\n"
                                      "  add r4, r4, r6\n"
                                      "  ld r7, [r4]\n"
                                      "  callr r7\n"
                                      "  out r1\n"
                                      "  addi r5, r5, 1\n"
                                      "  cmpi r5, 8\n"
                                      "  jcc lt, loop\n"
                                      "  halt\n";

TEST(ForkReplaySubsetTest, AttacksMatchCountingReplays) {
  RecoveryConfig Recovery;
  bool Families[NumAttackFamilies] = {};
  for (const char *Workload : {"186.crafty", "252.eon", "indirect-calls"})
    for (bool Shadow : {false, true}) {
      AsmProgram Program;
      if (Workload == std::string("indirect-calls")) {
        AsmResult Assembled = assembleProgram(IndirectCalls);
        ASSERT_TRUE(Assembled.succeeded()) << Assembled.errorText();
        Program = Assembled.Program;
      } else {
        Program = assembleWorkload(Workload);
      }
      DbtConfig Config = techConfig(Technique::EdgCf);
      Config.ShadowStack = Shadow;
      AttackCampaign Campaign(Program, Config);
      ASSERT_TRUE(Campaign.prepare(GoldenBudget)) << Workload;
      std::vector<PlannedAttack> Plan = Campaign.plan(24, 7);
      EXPECT_GT(Campaign.numSnapshots(), 0u) << Workload;
      GoldenRun Golden{Campaign.goldenInsns(), Campaign.goldenHash()};
      for (size_t I = 0; I < Plan.size(); ++I) {
        const PlannedAttack &A = Plan[I];
        if (!A.ForgedTarget)
          continue;
        Families[static_cast<unsigned>(A.Family)] = true;
        for (const RecoveryConfig *Rec : {static_cast<RecoveryConfig *>(nullptr),
                                          &Recovery}) {
          // Under recovery every injection forks instant 0; a sample
          // keeps the subset fast.
          if (Rec && I % 3)
            continue;
          std::string What = std::string(Workload) +
                             (Shadow ? " shadow-stack" : "") +
                             (Rec ? " recovery, " : ", ") + describeAttack(A);
          AttackCampaign::AttackReport Fork = Campaign.injectAttack(A, Rec);
          GuestRun Run(Program, Config);
          CountingAttackInjector Hook(A, Run);
          Replay Ref =
              finishCounting(Run, Hook, Golden, AttackDetectors, Rec);
          ASSERT_TRUE(Ref.Fired) << What;
          EXPECT_EQ(Ref.InsnsAtFire, A.InsnIndex) << What;
          EXPECT_EQ(Fork.Result, Ref.Result) << What;
          EXPECT_EQ(Fork.Fired, Ref.Fired) << What;
          EXPECT_EQ(Fork.LatencyInsns, Ref.InsnsAtEnd - Ref.InsnsAtFire)
              << What;
        }
      }
    }
  EXPECT_TRUE(Families[0] && Families[1] && Families[2])
      << "the subset does not cover every attack family";
}

namespace {

uint64_t foldAttackPlan(const std::vector<PlannedAttack> &Plan) {
  uint64_t Hash = 0xcbf29ce484222325ULL;
  for (const PlannedAttack &A : Plan)
    for (uint64_t V : {A.Instance, uint64_t(A.Family), A.SiteAddr,
                       A.RealTarget, A.ForgedTarget, uint64_t(A.GadgetValid),
                       A.InsnIndex})
      for (unsigned Byte = 0; Byte < 8; ++Byte) {
        Hash ^= (V >> (8 * Byte)) & 0xff;
        Hash *= 0x100000001b3ULL;
      }
  return Hash;
}

/// Records the site and retired-instruction index of chosen instances of
/// each attack family's event stream over a whole run.
class AttackInstanceProbe : public PreInsnHook {
public:
  AttackInstanceProbe(const Interpreter &Interp,
                      const std::vector<PlannedAttack> &Plan)
      : Interp(Interp) {
    for (const PlannedAttack &A : Plan)
      Seen[{A.Family, A.Instance}];
  }

  /// (family, instance) -> (site, insn index); (0, 0) until reached.
  std::map<std::pair<AttackFamily, uint64_t>, std::pair<uint64_t, uint64_t>>
      Seen;

  void onInsn(uint64_t InsnAddr, const Instruction &I, CpuState &) override {
    AttackFamily F;
    if (!attackEvent(InsnAddr, I, F))
      return;
    auto It = Seen.find({F, ++Counter[static_cast<unsigned>(F)]});
    if (It != Seen.end())
      It->second = {InsnAddr, Interp.instructionCount()};
  }

private:
  const Interpreter &Interp;
  std::array<uint64_t, NumAttackFamilies> Counter{};
};

} // namespace

TEST(FaultPlanTest, AttackPlanningStopAtTheLastAttackMovesNoAttack) {
  // Fingerprints of (instance, family, site, real and forged target,
  // gadget verdict, instant) over plan(64, seed 7), as the attack planner
  // that ran every planning run to halt produced them.
  struct Pin {
    const char *Workload;
    Technique Tech;
    bool ShadowStack;
    uint64_t Fingerprint;
  };
  const Pin Pins[] = {
      {"164.gzip", Technique::EdgCf, false, 0xaef5c2a0034ccfbaULL},
      {"186.crafty", Technique::Ecf, false, 0x5602c0a5e746a550ULL},
      {"186.crafty", Technique::Rcf, true, 0xe97fd0a180ca3fa2ULL},
      {"252.eon", Technique::EdgCf, false, 0xeadcb7aa4f263048ULL},
      {"181.mcf", Technique::Rcf, false, 0x290860552f9a4fceULL},
  };
  for (const Pin &P : Pins) {
    std::string Where = std::string(P.Workload) + " " +
                        getTechniqueName(P.Tech) +
                        (P.ShadowStack ? " shadow-stack" : "");
    AsmProgram Program = assembleWorkload(P.Workload);
    DbtConfig Config = techConfig(P.Tech);
    Config.ShadowStack = P.ShadowStack;
    AttackCampaign Campaign(Program, Config);
    ASSERT_TRUE(Campaign.prepare(GoldenBudget)) << Where;
    std::vector<PlannedAttack> Plan = Campaign.plan(64, 7);
    ASSERT_EQ(Plan.size(), 64u) << Where;
    EXPECT_EQ(foldAttackPlan(Plan), P.Fingerprint) << Where;
    // Snapshots do not move attacks either.
    EXPECT_EQ(foldAttackPlan(Campaign.plan(64, 7, /*TakeSnapshots=*/false)),
              P.Fingerprint)
        << Where;
    // Every attack's site and instant match a whole run's.
    GuestRun Run(Program, Config);
    AttackInstanceProbe Probe(Run.Interp, Plan);
    Run.Interp.setPreInsnHook(&Probe);
    GoldenRun Golden;
    ASSERT_TRUE(Run.golden(GoldenBudget, Golden)) << Where;
    for (const PlannedAttack &A : Plan) {
      auto [Site, Insn] = Probe.Seen.at({A.Family, A.Instance});
      EXPECT_EQ(A.SiteAddr, Site) << Where << ", " << describeAttack(A);
      EXPECT_EQ(A.InsnIndex, Insn) << Where << ", " << describeAttack(A);
    }
  }
}

TEST(ForkReplaySubsetTest, RegisterFaultsMatchCountingReplays) {
  constexpr uint64_t Injections = 24, Seed = 5;
  for (const char *Workload : {"164.gzip", "186.crafty", "181.mcf"}) {
    AsmProgram Program = assembleWorkload(Workload);
    DbtConfig Config = techConfig(Technique::EdgCf);
    Config.DataFlowCheck = true;
    std::unique_ptr<GuestRun> Start = GuestRun(Program, Config).snapshot();
    GoldenRun Golden;
    ASSERT_TRUE(GuestRun(*Start).golden(GoldenBudget, Golden)) << Workload;
    // The campaign's draws, in its order.
    Prng Rng(Seed);
    RegisterCampaignReport Expected;
    for (uint64_t I = 0; I < Injections; ++I) {
      uint64_t Instance = 1 + Rng.nextBelow(Golden.Insns);
      uint8_t Reg = static_cast<uint8_t>(Rng.nextBelow(15));
      uint64_t Mask = drawFaultMask(Rng, FaultModel::SingleBit, 64);
      std::string What = std::string(Workload) + ", instant " +
                         std::to_string(Instance) + " r" +
                         std::to_string(Reg);

      GuestRun Fork(*Start);
      Stamped<RegisterFaultInjector> Armed(Fork.Interp, Reg, Mask);
      Fork.Interp.armFault(&Armed, Instance);
      AttackOutcome ForkResult =
          classifyRun(RegisterDetectors, Fork.finish(Golden));

      GuestRun Run(Program, Config);
      CountingRegisterInjector Hook(Instance, Reg, Mask, Run.Interp);
      Replay Ref =
          finishCounting(Run, Hook, Golden, RegisterDetectors, nullptr);
      ASSERT_TRUE(Ref.Fired) << What;
      EXPECT_EQ(Ref.InsnsAtFire, Instance) << What;
      EXPECT_EQ(ForkResult, Ref.Result) << What;
      EXPECT_TRUE(Armed.fired()) << What;
      EXPECT_EQ(Armed.InsnsAtFire, Instance) << What;
      EXPECT_EQ(Fork.Interp.instructionCount(), Ref.InsnsAtEnd) << What;

      Outcome O = toOutcome(Ref.Result);
      Expected.Counts.add(O);
      if (O == Outcome::DetectedSignature || O == Outcome::DetectedHardware)
        Expected.DetectionLatencies.push_back(Ref.InsnsAtEnd -
                                              (Instance - 1));
    }
    RegisterCampaignReport Campaign = runRegisterFaultCampaignDetailed(
        Program, Config, Injections, Seed, GoldenBudget);
    EXPECT_TRUE(Campaign.Counts == Expected.Counts) << Workload;
    EXPECT_EQ(Campaign.DetectionLatencies, Expected.DetectionLatencies)
        << Workload;
  }
}

TEST(ForkReplaySubsetTest, IntegrityFaultsMatchCountingReplays) {
  constexpr uint64_t PerTarget = 6, Seed = 3;
  DbtConfig Config = assuredConfig();
  Config.ChainDirectExits = false;
  RecoveryConfig Recovery;
  for (const char *Workload : {"186.crafty", "181.mcf"})
    for (const RecoveryConfig *Rec :
         {static_cast<RecoveryConfig *>(nullptr), &Recovery}) {
      AsmProgram Program = assembleWorkload(Workload);
      std::unique_ptr<GuestRun> Start = GuestRun(Program, Config).snapshot();
      GoldenRun Golden;
      ASSERT_TRUE(GuestRun(*Start).golden(GoldenBudget, Golden))
          << Workload;
      Prng Rng(Seed);
      IntegrityCampaignResult Expected;
      for (IntegrityTarget Target : AllIntegrityTargets)
        for (uint64_t I = 0; I < PerTarget; ++I) {
          uint64_t Instance = 1 + Rng.nextBelow(Golden.Insns);
          uint64_t Pick = Rng.next();
          unsigned Bit = static_cast<unsigned>(Rng.nextBelow(64));
          std::string What = std::string(Workload) +
                             (Rec ? " recovery, " : ", ") +
                             getIntegrityTargetName(Target) + " instant " +
                             std::to_string(Instance);

          GuestRun Fork(*Start);
          Stamped<IntegrityFaultInjector> Armed(
              Fork.Interp, Fork.Mem, Fork.Translator, Target, Pick, Bit);
          Fork.Interp.armFault(&Armed, Instance);
          AttackOutcome ForkResult =
              classifyRun(IntegrityDetectors, Fork.finish(Golden, Rec));

          GuestRun Run(Program, Config);
          CountingIntegrityInjector Hook(Instance, Target, Pick, Bit, Run);
          Replay Ref =
              finishCounting(Run, Hook, Golden, IntegrityDetectors, Rec);
          EXPECT_EQ(ForkResult, Ref.Result) << What;
          EXPECT_EQ(Armed.fired(), Ref.Fired) << What;
          EXPECT_EQ(Armed.InsnsAtFire, Ref.InsnsAtFire) << What;
          EXPECT_EQ(Fork.Interp.instructionCount(), Ref.InsnsAtEnd) << What;
          Expected.of(Target).add(toOutcome(Ref.Result));
        }
      IntegrityCampaignResult Campaign = runIntegrityCampaign(
          Program, Config, PerTarget, Seed, GoldenBudget, 1, Rec);
      for (IntegrityTarget Target : AllIntegrityTargets)
        EXPECT_TRUE(Campaign.of(Target) == Expected.of(Target))
            << Workload << (Rec ? " recovery " : " ")
            << getIntegrityTargetName(Target);
    }
}
