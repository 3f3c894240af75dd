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
//===----------------------------------------------------------------------===//

#include "fault/Campaign.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <tuple>

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

  void apply(uint64_t, Instruction &I, Flags &F, const CpuState &) override {
    if (Fired || ++Counter != Fault.Instance)
      return;
    Fired = true;
    InsnsAtFire = Interp.instructionCount();
    if (Fault.Kind == FaultKind::AddrBit)
      I.Imm = static_cast<int32_t>(static_cast<uint32_t>(I.Imm) ^
                                   static_cast<uint32_t>(Fault.Mask));
    else
      F = F.withMaskFlipped(static_cast<uint8_t>(Fault.Mask));
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

/// Records the site and retired-instruction index of chosen dynamic
/// branch instances over a whole run.
class InstanceProbe : public FaultHook {
public:
  InstanceProbe(const Interpreter &Interp, std::vector<uint64_t> Wanted)
      : Interp(Interp), Wanted(std::move(Wanted)) {}

  std::vector<std::pair<uint64_t, uint64_t>> Seen; // (site, insn index)

  void apply(uint64_t InsnAddr, Instruction &, Flags &,
             const CpuState &) override {
    ++Counter;
    if (Seen.size() < Wanted.size() && Wanted[Seen.size()] == Counter)
      Seen.emplace_back(InsnAddr, Interp.instructionCount());
  }

private:
  const Interpreter &Interp;
  std::vector<uint64_t> Wanted;
  uint64_t Counter = 0;
};

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
    if (P.Sites != SiteClass::Any)
      continue;
    // Every candidate's site and instant match a whole run's.
    std::vector<uint64_t> Instances;
    for (const PlannedFault &F : Plan)
      Instances.push_back(F.Instance);
    GuestRun Run(Program, techConfig(P.Tech));
    InstanceProbe Probe(Run.Interp, Instances);
    Run.Interp.setFaultHook(&Probe);
    GoldenRun Golden;
    ASSERT_TRUE(Run.golden(GoldenBudget, Golden)) << Where;
    ASSERT_EQ(Probe.Seen.size(), Plan.size()) << Where;
    for (size_t I = 0; I < Plan.size(); ++I) {
      EXPECT_EQ(Plan[I].SiteAddr, Probe.Seen[I].first) << Where;
      EXPECT_EQ(Plan[I].InsnIndex, Probe.Seen[I].second) << Where;
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
  EXPECT_GT(Campaign.numSnapshots(), FaultCampaign::MaxPlanSnapshots / 2);
  EXPECT_LE(Campaign.numSnapshots(), FaultCampaign::MaxPlanSnapshots);
  for (size_t I = 0; I < Plan.size(); I += 500)
    expectSameRun(Campaign, Plan[I], RunFrom::Snapshot, RunFrom::Start,
                  nullptr, "164.gzip, 8000-candidate plan");
  Campaign.plan(8000, 7, SiteClass::Any, FaultModel::SingleBit,
                /*TakeSnapshots=*/false);
  EXPECT_EQ(Campaign.numSnapshots(), 0u);
}
