//===- FaultTest.cpp - Unit tests for the error model and campaigns ------------===//

#include "fault/Attack.h"
#include "fault/Campaign.h"
#include "fault/ErrorModel.h"
#include "fault/GuestRun.h"
#include "vm/Layout.h"
#include "workloads/RandomProgram.h"

#include <gtest/gtest.h>

using namespace cfed;

namespace {

Cfg buildCfgFrom(const std::string &Source, AsmProgram &ProgramOut) {
  AsmResult Result = assembleProgram(Source);
  EXPECT_TRUE(Result.succeeded()) << Result.errorText();
  ProgramOut = std::move(Result.Program);
  return Cfg::build(ProgramOut.Code.data(), ProgramOut.Code.size(),
                    CodeBase, ProgramOut.Entry, ProgramOut.CodeLabels);
}

} // namespace

TEST(ClassifyTest, TargetCategories) {
  AsmProgram Program;
  Cfg G = buildCfgFrom("a:\nmovi r1, 1\nmovi r2, 2\ncmpi r1, 0\n"
                       "jcc eq, c\n"
                       "b:\nmovi r3, 3\njmp c\n"
                       "c:\nmovi r4, 4\nhalt\n",
                       Program);
  // Block a: [CodeBase, +4 insns). Branch at +3 insns.
  uint64_t BranchAddr = CodeBase + 3 * InsnSize;
  uint64_t BlockB = CodeBase + 4 * InsnSize;
  uint64_t BlockC = CodeBase + 6 * InsnSize;

  // Beginning of own block: B.
  EXPECT_EQ(classifyBranchTarget(G, BranchAddr, CodeBase),
            BranchErrorCategory::B);
  // Middle of own block (including the branch itself): C.
  EXPECT_EQ(classifyBranchTarget(G, BranchAddr, CodeBase + InsnSize),
            BranchErrorCategory::C);
  EXPECT_EQ(classifyBranchTarget(G, BranchAddr, BranchAddr),
            BranchErrorCategory::C);
  // Misaligned middle of own block is still C.
  EXPECT_EQ(classifyBranchTarget(G, BranchAddr, CodeBase + 9),
            BranchErrorCategory::C);
  // Beginning of another block: D.
  EXPECT_EQ(classifyBranchTarget(G, BranchAddr, BlockB),
            BranchErrorCategory::D);
  EXPECT_EQ(classifyBranchTarget(G, BranchAddr, BlockC),
            BranchErrorCategory::D);
  // Middle of another block: E.
  EXPECT_EQ(classifyBranchTarget(G, BranchAddr, BlockB + InsnSize),
            BranchErrorCategory::E);
  // Outside the code region: F.
  EXPECT_EQ(classifyBranchTarget(G, BranchAddr, DataBase),
            BranchErrorCategory::F);
  EXPECT_EQ(classifyBranchTarget(G, BranchAddr, CodeBase - 8),
            BranchErrorCategory::F);
  EXPECT_EQ(classifyBranchTarget(G, BranchAddr, G.codeEnd()),
            BranchErrorCategory::F);
}

TEST(ErrorModelTest, SiteAccounting) {
  // Each executed offset branch contributes exactly 36 fault sites.
  AsmResult R = assembleProgram(
      "movi r1, 3\nloop:\naddi r1, r1, -1\njcc ne, loop\nhalt\n");
  ASSERT_TRUE(R.succeeded());
  ErrorModelResult Model = runErrorModel(R.Program, 1000);
  EXPECT_EQ(Model.BranchExecutions, 3u); // Taken, taken, not-taken.
  EXPECT_EQ(Model.totalSites(), 3u * 36u);
}

TEST(ErrorModelTest, NotTakenAddressFaultsAreNoError) {
  AsmResult R = assembleProgram(
      "movi r1, 1\ncmpi r1, 2\njcc eq, skip\nskip:\nhalt\n");
  ASSERT_TRUE(R.succeeded());
  ErrorModelResult Model = runErrorModel(R.Program, 1000);
  // The branch is never taken: all 32 address sites are No Error, and
  // its 4 flag sites split between A (direction flips) and No Error.
  const CategoryCounts &NoError = Model.of(BranchErrorCategory::NoError);
  EXPECT_EQ(NoError.NotTakenAddr, 32u);
  const CategoryCounts &A = Model.of(BranchErrorCategory::A);
  EXPECT_EQ(A.TakenAddr, 0u);
  EXPECT_GT(A.NotTakenFlags, 0u); // Flipping ZF flips an eq branch.
}

TEST(ErrorModelTest, TakenFallthroughFaultIsCategoryA) {
  // jmp +8 over one insn: flipping the offset to land on the
  // fall-through behaves like a mistaken branch (category A).
  AsmResult R = assembleProgram("jmp skip\nnop\nskip:\nhalt\n");
  ASSERT_TRUE(R.succeeded());
  ErrorModelResult Model = runErrorModel(R.Program, 1000);
  const CategoryCounts &A = Model.of(BranchErrorCategory::A);
  // Offset 8 -> flipping bit 3 gives offset 0 = fall-through.
  EXPECT_EQ(A.TakenAddr, 1u);
}

TEST(ErrorModelTest, MergeAccumulates) {
  AsmResult R = assembleProgram("jmp skip\nnop\nskip:\nhalt\n");
  ASSERT_TRUE(R.succeeded());
  ErrorModelResult A = runErrorModel(R.Program, 1000);
  ErrorModelResult B = runErrorModel(R.Program, 1000);
  uint64_t Single = A.totalSites();
  A.merge(B);
  EXPECT_EQ(A.totalSites(), 2 * Single);
  EXPECT_EQ(A.BranchExecutions, 2u);
}

TEST(ErrorModelTest, ProbabilitiesSumToOne) {
  RandomProgramOptions Options;
  Options.Seed = 3;
  AsmResult R = assembleProgram(generateRandomProgram(Options));
  ASSERT_TRUE(R.succeeded());
  ErrorModelResult Model = runErrorModel(R.Program, 10000000);
  double Sum = 0;
  for (unsigned I = 0; I < NumBranchErrorCategories; ++I)
    Sum += Model.probability(static_cast<BranchErrorCategory>(I));
  EXPECT_NEAR(Sum, 1.0, 1e-12);
  double SumAtoE = 0;
  for (BranchErrorCategory Cat :
       {BranchErrorCategory::A, BranchErrorCategory::B,
        BranchErrorCategory::C, BranchErrorCategory::D,
        BranchErrorCategory::E})
    SumAtoE += Model.probabilityAmongAtoE(Cat);
  EXPECT_NEAR(SumAtoE, 1.0, 1e-12);
}

TEST(CampaignTest, InjectDetailedReportsLatency) {
  RandomProgramOptions Options;
  Options.Seed = 4;
  AsmResult R = assembleProgram(generateRandomProgram(Options));
  ASSERT_TRUE(R.succeeded());
  DbtConfig Config;
  Config.Tech = Technique::Rcf;
  FaultCampaign Campaign(R.Program, Config);
  ASSERT_TRUE(Campaign.prepare(10000000));
  auto Faults = Campaign.plan(60, 11, SiteClass::OriginalOnly);
  unsigned Checked = 0;
  for (const PlannedFault &Fault : Faults) {
    if (Fault.Category == BranchErrorCategory::NoError)
      continue;
    InjectionReport Report = Campaign.injectDetailed(Fault);
    EXPECT_TRUE(Report.Fired);
    if (Report.Result == Outcome::DetectedSignature) {
      // Detection strictly after the fault, within the run budget.
      EXPECT_GT(Report.LatencyInsns, 0u);
      EXPECT_LT(Report.LatencyInsns, Campaign.goldenInsns() * 4 + 100000);
      ++Checked;
    }
  }
  EXPECT_GT(Checked, 0u);
}

TEST(CampaignTest, LatencyGrowsWithRelaxedPolicies) {
  // Average signature-detection latency under ALLBB must be below the
  // latency under END (Section 6's delay trade-off).
  RandomProgramOptions Options;
  Options.Seed = 8;
  Options.LoopTrip = 20;
  AsmResult R = assembleProgram(generateRandomProgram(Options));
  ASSERT_TRUE(R.succeeded());
  auto AvgLatency = [&](CheckPolicy Policy) {
    DbtConfig Config;
    Config.Tech = Technique::Rcf;
    Config.Policy = Policy;
    FaultCampaign Campaign(R.Program, Config);
    EXPECT_TRUE(Campaign.prepare(10000000));
    auto Faults = Campaign.plan(120, 21, SiteClass::OriginalOnly);
    uint64_t Sum = 0, Count = 0;
    for (const PlannedFault &Fault : Faults) {
      if (Fault.Category == BranchErrorCategory::NoError)
        continue;
      InjectionReport Report = Campaign.injectDetailed(Fault);
      if (Report.Result == Outcome::DetectedSignature) {
        Sum += Report.LatencyInsns;
        ++Count;
      }
    }
    EXPECT_GT(Count, 0u);
    return double(Sum) / double(Count ? Count : 1);
  };
  EXPECT_LT(AvgLatency(CheckPolicy::AllBB), AvgLatency(CheckPolicy::End));
}

TEST(CampaignTest, OutcomeCountsArithmetic) {
  OutcomeCounts Counts;
  Counts.add(Outcome::DetectedSignature);
  Counts.add(Outcome::DetectedSignature);
  Counts.add(Outcome::Sdc);
  Counts.add(Outcome::Timeout);
  Counts.add(Outcome::Masked);
  Counts.add(Outcome::DetectedHardware);
  EXPECT_EQ(Counts.total(), 6u);
  EXPECT_EQ(Counts.DetectedSig, 2u);
  OutcomeCounts Other;
  Other.add(Outcome::Sdc);
  Counts.merge(Other);
  EXPECT_EQ(Counts.Sdc, 2u);
  EXPECT_EQ(Counts.total(), 7u);
}

TEST(CampaignTest, SiteClassPartition) {
  // Planning per class picks only matching sites.
  RandomProgramOptions Options;
  Options.Seed = 12;
  AsmResult R = assembleProgram(generateRandomProgram(Options));
  ASSERT_TRUE(R.succeeded());
  DbtConfig Config;
  Config.Tech = Technique::Rcf; // Plenty of instrumentation branches.
  FaultCampaign Campaign(R.Program, Config);
  ASSERT_TRUE(Campaign.prepare(10000000));
  for (const PlannedFault &Fault :
       Campaign.plan(40, 3, SiteClass::InstrumentationOnly))
    EXPECT_TRUE(Fault.InstrSite) << std::hex << Fault.SiteAddr;
  for (const PlannedFault &Fault :
       Campaign.plan(40, 3, SiteClass::OriginalOnly))
    EXPECT_FALSE(Fault.InstrSite) << std::hex << Fault.SiteAddr;
}

TEST(CampaignTest, PrepareFailsOnNonHaltingProgram) {
  AsmResult R = assembleProgram("spin:\njmp spin\n");
  ASSERT_TRUE(R.succeeded());
  FaultCampaign Campaign(R.Program, DbtConfig{});
  EXPECT_FALSE(Campaign.prepare(100000));
}

TEST(CampaignTest, ParallelRunMatchesSerial) {
  // The thread-pool campaign must produce tallies identical to the
  // serial one: selection and merge are serial and position-indexed, so
  // the job count can only change scheduling, never results.
  RandomProgramOptions Options;
  Options.Seed = 19;
  AsmResult R = assembleProgram(generateRandomProgram(Options));
  ASSERT_TRUE(R.succeeded());
  DbtConfig Config;
  Config.Tech = Technique::EdgCf;
  FaultCampaign Campaign(R.Program, Config);
  ASSERT_TRUE(Campaign.prepare(10000000));

  CampaignResult Serial = Campaign.run(30, 77, SiteClass::Any, 1);
  CampaignResult Parallel = Campaign.run(30, 77, SiteClass::Any, 4);
  EXPECT_GT(Serial.Injections, 0u);
  EXPECT_TRUE(Serial == Parallel);
  EXPECT_TRUE(Serial.totals() == Parallel.totals());

  // Rerunning with the same seed and yet another job count stays stable.
  CampaignResult Again = Campaign.run(30, 77, SiteClass::Any, 3);
  EXPECT_TRUE(Serial == Again);

  // Tallies flow through the campaign's metrics registry; the three
  // identical runs merged to exactly three times one run's counts, and
  // the result round-trips from the cumulative snapshot.
  telemetry::RegistrySnapshot Snap = Campaign.metrics().snapshot();
  EXPECT_EQ(Snap.counterOr("fault.injections"), 3 * Serial.Injections);
  CampaignResult Cumulative = campaignResultFromSnapshot(Snap);
  EXPECT_EQ(Cumulative.Injections, 3 * Serial.Injections);
  EXPECT_EQ(Cumulative.totals().total(), 3 * Serial.totals().total());
}

TEST(CampaignTest, MetricsRegistryIsJobsInvariant) {
  // Two fresh campaigns over the same program and seed, differing only
  // in job count, must leave byte-identical registry snapshots: the
  // parallel path tallies through the same serial merge.
  RandomProgramOptions Options;
  Options.Seed = 19;
  AsmResult R = assembleProgram(generateRandomProgram(Options));
  ASSERT_TRUE(R.succeeded());
  DbtConfig Config;
  Config.Tech = Technique::EdgCf;

  FaultCampaign SerialCampaign(R.Program, Config);
  ASSERT_TRUE(SerialCampaign.prepare(10000000));
  CampaignResult Serial = SerialCampaign.run(30, 77, SiteClass::Any, 1);

  FaultCampaign ParallelCampaign(R.Program, Config);
  ASSERT_TRUE(ParallelCampaign.prepare(10000000));
  CampaignResult Parallel = ParallelCampaign.run(30, 77, SiteClass::Any, 4);

  EXPECT_GT(Serial.Injections, 0u);
  EXPECT_TRUE(Serial == Parallel);
  EXPECT_TRUE(SerialCampaign.metrics().snapshot() ==
              ParallelCampaign.metrics().snapshot());
}

//===----------------------------------------------------------------------===//
// Outcome classification
//===----------------------------------------------------------------------===//

namespace {

/// A run that ended with \p Stop; plain unless \p Rollbacks >= 0.
RunEnd endOf(StopInfo Stop, bool Golden = false, bool Healed = false,
             int Rollbacks = -1) {
  RunEnd End;
  End.Stop = Stop;
  End.GoldenOutput = Golden;
  End.Healed = Healed;
  End.UnderRecovery = Rollbacks >= 0;
  End.Recovery.NumRollbacks = Rollbacks > 0 ? Rollbacks : 0;
  return End;
}

StopInfo stopOf(StopKind Kind) {
  StopInfo Stop;
  Stop.Kind = Kind;
  return Stop;
}

StopInfo trapOf(TrapKind Trap, int32_t BreakCode = 0) {
  StopInfo Stop = stopOf(StopKind::Trapped);
  Stop.Trap = Trap;
  Stop.BreakCode = BreakCode;
  return Stop;
}

} // namespace

TEST(ClassifyTest, DetectorTablesPinEveryKindsOutcomes) {
  // Columns: branch-fault, attack, register-fault, checker-targeted
  // campaigns. Fault-style kinds report the projected fault outcome.
  RunEnd EccaDiv = endOf(trapOf(TrapKind::DivByZero));
  EccaDiv.TrapInInstrumentation = true;
  const StopInfo Halted = stopOf(StopKind::Halted);
  const StopInfo Limit = stopOf(StopKind::InsnLimit);
  const StopInfo Cfe = trapOf(TrapKind::BreakTrap, BrkControlFlowError);
  struct Row {
    const char *Name;
    RunEnd End;
    std::array<const char *, 4> Expected;
  } Rows[] = {
      {"halted golden", endOf(Halted, true),
       {"masked", "masked", "masked", "masked"}},
      {"halted corrupted", endOf(Halted),
       {"SDC", "evaded", "SDC", "SDC"}},
      {"halted golden, healed", endOf(Halted, true, true),
       {"masked", "det-integ", "masked", "recovered"}},
      {"insn limit", endOf(Limit), {"timeout", "timeout", "timeout", "timeout"}},
      {"0xCFE", endOf(Cfe), {"det-sig", "det-sig", "det-sig", "det-sig"}},
      {"0x5EC", endOf(trapOf(TrapKind::BreakTrap, BrkMonitorCorruption)),
       {"det-hw", "det-sig", "det-hw", "det-sig"}},
      {"0x5AC", endOf(trapOf(TrapKind::BreakTrap, BrkShadowStackViolation)),
       {"det-hw", "det-shadow", "det-hw", "det-hw"}},
      {"0xDFE", endOf(trapOf(TrapKind::BreakTrap, BrkDataFlowError)),
       {"det-hw", "det-hw", "det-sig", "det-sig"}},
      {"div-by-zero in instrumentation", EccaDiv,
       {"det-sig", "det-sig", "det-hw", "det-hw"}},
      {"div-by-zero in guest code", endOf(trapOf(TrapKind::DivByZero)),
       {"det-hw", "det-hw", "det-hw", "det-hw"}},
      {"exec violation", endOf(trapOf(TrapKind::ExecViolation)),
       {"det-hw", "det-hw", "det-hw", "det-hw"}},
      // Under recovery.
      {"recovery: halted golden", endOf(Halted, true, false, 0),
       {"masked", "masked", "masked", "masked"}},
      {"recovery: halted golden, healed", endOf(Halted, true, true, 0),
       {"masked", "masked", "masked", "recovered"}},
      {"recovery: rolled back, golden", endOf(Halted, true, false, 2),
       {"recovered", "recovered", "recovered", "recovered"}},
      {"recovery: halted corrupted", endOf(Halted, false, false, 0),
       {"SDC", "evaded", "SDC", "SDC"}},
      {"recovery: rolled back, corrupted", endOf(Halted, false, false, 1),
       {"rec-fail", "rec-fail", "rec-fail", "rec-fail"}},
      {"recovery: insn limit", endOf(Limit, false, false, 0),
       {"timeout", "timeout", "timeout", "timeout"}},
      {"recovery: rolled back, insn limit", endOf(Limit, false, false, 3),
       {"rec-fail", "rec-fail", "rec-fail", "rec-fail"}},
      {"recovery: final trap", endOf(Cfe, false, false, 1),
       {"rec-fail", "rec-fail", "rec-fail", "rec-fail"}},
  };
  for (const Row &R : Rows) {
    SCOPED_TRACE(R.Name);
    EXPECT_STREQ(getOutcomeName(toOutcome(classifyRun(FaultDetectors, R.End))),
                 R.Expected[0]);
    EXPECT_STREQ(getAttackOutcomeName(classifyRun(AttackDetectors, R.End)),
                 R.Expected[1]);
    EXPECT_STREQ(
        getOutcomeName(toOutcome(classifyRun(RegisterDetectors, R.End))),
        R.Expected[2]);
    EXPECT_STREQ(
        getOutcomeName(toOutcome(classifyRun(IntegrityDetectors, R.End))),
        R.Expected[3]);
  }
}
