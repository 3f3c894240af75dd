//===- RecoveryTest.cpp - Tests for checkpoint/rollback recovery ---------------===//

#include "fault/Campaign.h"
#include "recovery/Recovery.h"
#include "vm/Layout.h"
#include "vm/Loader.h"
#include "workloads/RandomProgram.h"

#include <gtest/gtest.h>

using namespace cfed;

namespace {

AsmProgram assembleOk(const std::string &Source) {
  AsmResult Result = assembleProgram(Source);
  EXPECT_TRUE(Result.succeeded()) << Result.errorText();
  return Result.Program;
}

AsmProgram randomProgram(uint64_t Seed) {
  RandomProgramOptions Options;
  Options.Seed = Seed;
  return assembleOk(generateRandomProgram(Options));
}

/// Golden output hash of a clean DBT run.
uint64_t goldenHashOf(const AsmProgram &Program, DbtConfig Config) {
  Memory Mem;
  Interpreter Interp(Mem);
  Dbt Translator(Mem, Config);
  EXPECT_TRUE(Translator.load(Program, Interp.state()))
      << Translator.loadError();
  StopInfo Stop = Translator.run(Interp, 10000000);
  EXPECT_EQ(Stop.Kind, StopKind::Halted);
  return hashOutput(Interp.output());
}

/// Persistent stuck-at fault: flips one offset bit of *every* executed
/// offset branch in the code cache. Rollback and retranslation cannot
/// shake it — only abandoning the cache (interpreter fallback) can.
class StuckAtCacheBranchFault : public FaultHook {
public:
  explicit StuckAtCacheBranchFault(unsigned Bit) : Bit(Bit) {}
  bool apply(uint64_t InsnAddr, Instruction &I, Flags &,
             CpuState &) override {
    if (isCacheAddr(InsnAddr))
      I.Imm = static_cast<int32_t>(static_cast<uint32_t>(I.Imm) ^ (1u << Bit));
    return true;
  }

private:
  unsigned Bit;
};

} // namespace

TEST(RecoveryTest, CleanRunTakesCheckpointsWithoutRollbacks) {
  AsmProgram Program = randomProgram(5);
  DbtConfig Config;
  Config.Tech = Technique::EdgCf;
  uint64_t Golden = goldenHashOf(Program, Config);

  Memory Mem;
  Interpreter Interp(Mem);
  Dbt Translator(Mem, Config);
  ASSERT_TRUE(Translator.load(Program, Interp.state()));
  RecoveryConfig RC;
  RC.CheckpointInterval = 500;
  RecoveryManager Manager(Interp, Translator, RC);
  RecoveryReport Report = Manager.run(10000000);

  EXPECT_TRUE(Report.Completed);
  EXPECT_EQ(Report.NumRollbacks, 0u);
  EXPECT_EQ(Report.NumWatchdogFires, 0u);
  EXPECT_GT(Report.NumCheckpoints, 1u);
  EXPECT_FALSE(Report.Degraded);
  EXPECT_FALSE(Report.InterpreterFallback);
  EXPECT_TRUE(Report.FirstDetection.empty()) << Report.FirstDetection;
  EXPECT_EQ(hashOutput(Interp.output()), Golden);
}

TEST(RecoveryTest, TransientFaultRollsBackToGoldenOutput) {
  // A single injected branch fault is transient: the injection hook
  // latches after one firing, so rollback + re-execution is clean and
  // must reproduce the golden output.
  AsmProgram Program = randomProgram(4);
  DbtConfig Config;
  Config.Tech = Technique::EdgCf;
  FaultCampaign Campaign(Program, Config);
  ASSERT_TRUE(Campaign.prepare(10000000));

  RecoveryConfig RC;
  RC.CheckpointInterval = 1000;
  unsigned Recovered = 0, Examined = 0;
  for (const PlannedFault &Fault :
       Campaign.plan(40, 7, SiteClass::OriginalOnly)) {
    if (Fault.Category == BranchErrorCategory::NoError)
      continue;
    ++Examined;
    auto Injection = Campaign.injectWithRecovery(Fault, RC);
    if (Injection.Result == Outcome::Recovered) {
      EXPECT_GT(Injection.Recovery.NumRollbacks, 0u);
      EXPECT_FALSE(Injection.Recovery.FirstDetection.empty());
      ++Recovered;
    }
  }
  ASSERT_GT(Examined, 0u);
  EXPECT_GT(Recovered, 0u);
}

TEST(RecoveryTest, SignatureDetectedCategoryDEFaultsMostlyRecover) {
  // Acceptance gate: >= 90% of the faults the baseline campaign reports
  // as signature-detected in categories D and E must classify as
  // Recovered (golden hash reproduced) when re-run under recovery. The
  // fault sets are identical by construction (same plan + selection).
  AsmProgram Program = randomProgram(4);
  DbtConfig Config;
  Config.Tech = Technique::EdgCf;

  FaultCampaign Baseline(Program, Config);
  ASSERT_TRUE(Baseline.prepare(10000000));
  CampaignResult Plain = Baseline.run(60, 11, SiteClass::OriginalOnly);

  FaultCampaign WithRecovery(Program, Config);
  ASSERT_TRUE(WithRecovery.prepare(10000000));
  RecoveryConfig RC;
  RC.CheckpointInterval = 2000;
  CampaignResult Rec =
      WithRecovery.runWithRecovery(60, 11, SiteClass::OriginalOnly, RC);

  uint64_t SigDetected = 0, Survived = 0;
  for (BranchErrorCategory Cat :
       {BranchErrorCategory::D, BranchErrorCategory::E}) {
    SigDetected += Plain.of(Cat).DetectedSig;
    Survived += Rec.of(Cat).Recovered;
  }
  ASSERT_GT(SigDetected, 0u);
  EXPECT_GE(Survived * 10, SigDetected * 9)
      << "recovered " << Survived << " of " << SigDetected
      << " signature-detected D/E faults";
}

TEST(RecoveryTest, RecoveryCampaignIsJobCountInvariant) {
  AsmProgram Program = randomProgram(9);
  DbtConfig Config;
  Config.Tech = Technique::Rcf;
  RecoveryConfig RC;
  RC.CheckpointInterval = 2000;

  auto RunWith = [&](unsigned Jobs) {
    FaultCampaign Campaign(Program, Config);
    EXPECT_TRUE(Campaign.prepare(10000000));
    return Campaign.runWithRecovery(30, 23, SiteClass::Any, RC, Jobs);
  };
  CampaignResult Serial = RunWith(1);
  CampaignResult Parallel4 = RunWith(4);
  CampaignResult Parallel7 = RunWith(7);
  EXPECT_GT(Serial.Injections, 0u);
  EXPECT_TRUE(Serial == Parallel4);
  EXPECT_TRUE(Serial == Parallel7);
}

TEST(RecoveryTest, WatchdogFiresInsideChainedSuperblockAndSelfHeals) {
  // Under the End policy a long loop nest runs check-free; with chaining
  // and superblocks on, it spins entirely inside the cache without a
  // single dispatch. A tight watchdog bound must fire mid-superblock,
  // and the degradation ladder (conservative retranslation with AllBB
  // checks) must let the run complete all the same.
  RandomProgramOptions Options;
  Options.Seed = 13;
  Options.LoopTrip = 40;
  AsmProgram Program = assembleOk(generateRandomProgram(Options));

  DbtConfig Config;
  Config.Tech = Technique::Rcf;
  Config.Policy = CheckPolicy::End;
  Config.SuperblockLimit = 4;
  Config.ChainDirectExits = true;
  uint64_t Golden = goldenHashOf(Program, Config);

  Memory Mem;
  Interpreter Interp(Mem);
  Dbt Translator(Mem, Config);
  ASSERT_TRUE(Translator.load(Program, Interp.state()));
  RecoveryConfig RC;
  RC.CheckpointInterval = 200;
  RC.WatchdogBound = 60; // Far below the loop nest's check-free stretch.
  RecoveryManager Manager(Interp, Translator, RC);
  RecoveryReport Report = Manager.run(10000000);

  EXPECT_GT(Report.NumWatchdogFires, 0u);
  EXPECT_TRUE(Report.Degraded);
  EXPECT_TRUE(Report.Completed) << getTrapKindName(Report.FinalStop.Trap);
  EXPECT_EQ(hashOutput(Interp.output()), Golden);
  EXPECT_GT(Translator.degradeCount(), 0u);
  EXPECT_FALSE(Report.FirstDetection.empty());
}

TEST(RecoveryTest, PersistentFaultFallsBackToInterpreterAndCompletes) {
  // A stuck-at fault on every cache branch was previously fatal: the DBT
  // detects, terminates, and rerunning cannot help because the fault
  // rides the code cache itself. The ladder must end in interpreter-only
  // execution (guest pages, no cache, fault can't fire) and complete
  // with the golden output.
  AsmProgram Program = randomProgram(6);
  DbtConfig Config;
  Config.Tech = Technique::EdgCf;
  uint64_t Golden = goldenHashOf(Program, Config);

  Memory Mem;
  Interpreter Interp(Mem);
  Dbt Translator(Mem, Config);
  ASSERT_TRUE(Translator.load(Program, Interp.state()));
  StuckAtCacheBranchFault Fault(20); // Lands far outside any block.
  Interp.setFaultHook(&Fault);

  RecoveryConfig RC;
  RC.CheckpointInterval = 1000;
  RC.MaxSiteRollbacks = 1;
  RC.MaxTotalRollbacks = 3;
  RecoveryManager Manager(Interp, Translator, RC);
  RecoveryReport Report = Manager.run(10000000);

  EXPECT_TRUE(Report.InterpreterFallback);
  EXPECT_TRUE(Report.Completed) << getTrapKindName(Report.FinalStop.Trap);
  EXPECT_EQ(hashOutput(Interp.output()), Golden);
  EXPECT_GT(Report.NumRollbacks, RC.MaxTotalRollbacks);
  EXPECT_FALSE(Report.FirstDetection.empty());
}

TEST(RecoveryTest, DegradedTranslatorUsesConservativeConfig) {
  AsmProgram Program = randomProgram(3);
  DbtConfig Config;
  Config.Tech = Technique::Rcf;
  Config.Policy = CheckPolicy::End;
  Config.SuperblockLimit = 4;
  Config.FoldSignatureUpdates = true;

  Memory Mem;
  Interpreter Interp(Mem);
  Dbt Translator(Mem, Config);
  ASSERT_TRUE(Translator.load(Program, Interp.state()));
  Translator.degradeToConservative();
  EXPECT_EQ(Translator.config().Policy, CheckPolicy::AllBB);
  EXPECT_FALSE(Translator.config().ChainDirectExits);
  EXPECT_EQ(Translator.config().SuperblockLimit, 1u);
  EXPECT_FALSE(Translator.config().FoldSignatureUpdates);
  EXPECT_EQ(Translator.degradeCount(), 1u);
  // The flush dropped all safe points; retranslation repopulates them.
  EXPECT_TRUE(Translator.safePoints().empty());
  Interp.state().PC = Translator.resolveGuestTarget(Translator.guestEntry());
  StopInfo Stop = Translator.run(Interp, 10000000);
  EXPECT_EQ(Stop.Kind, StopKind::Halted);
  EXPECT_FALSE(Translator.safePoints().empty());
}

TEST(RecoveryTest, EagerWholeProgramTechniqueRecoversAfterDegrade) {
  // CFCSS requires eager whole-program translation; after a degrade
  // flush the translator must retranslate static leaders on demand (the
  // signature assignment is still valid) instead of running them raw.
  AsmProgram Program = randomProgram(7);
  DbtConfig Config;
  Config.Tech = Technique::Cfcss;
  Config.EagerTranslate = true;
  uint64_t Golden = goldenHashOf(Program, Config);

  Memory Mem;
  Interpreter Interp(Mem);
  Dbt Translator(Mem, Config);
  ASSERT_TRUE(Translator.load(Program, Interp.state()));
  Translator.degradeToConservative();
  Interp.state().PC = Translator.resolveGuestTarget(Translator.guestEntry());
  StopInfo Stop = Translator.run(Interp, 10000000);
  EXPECT_EQ(Stop.Kind, StopKind::Halted) << getTrapKindName(Stop.Trap);
  EXPECT_EQ(hashOutput(Interp.output()), Golden);
}

TEST(RecoveryTest, TrapDiagnosticFormatsAllFields) {
  StopInfo Stop;
  Stop.Kind = StopKind::Trapped;
  Stop.Trap = TrapKind::BreakTrap;
  Stop.BreakCode = BrkControlFlowError;
  Stop.PC = 0x4000100;
  CpuState State;
  State.Regs[RegPCP] = 0x1234;
  State.Regs[RegRTS] = 0x5678;
  std::string Diag = formatTrapDiagnostic(Stop, State, 0x10020);
  EXPECT_NE(Diag.find("break"), std::string::npos) << Diag;
  EXPECT_NE(Diag.find("guest-pc=0x10020"), std::string::npos) << Diag;
  EXPECT_NE(Diag.find("break-code=0xcfe"), std::string::npos) << Diag;
  EXPECT_NE(Diag.find("pcp=0x1234"), std::string::npos) << Diag;
  EXPECT_NE(Diag.find("rts=0x5678"), std::string::npos) << Diag;

  Stop.Trap = TrapKind::ExecViolation;
  Stop.TrapAddr = 0xdead000;
  Diag = formatTrapDiagnostic(Stop, State, 0x10020);
  EXPECT_NE(Diag.find("exec-violation"), std::string::npos) << Diag;
  EXPECT_NE(Diag.find("fault-addr=0xdead000"), std::string::npos) << Diag;
}
