//===- RecoveryTest.cpp - Tests for checkpoint/rollback recovery ---------------===//

#include "fault/Campaign.h"
#include "recovery/Recovery.h"
#include "vm/Layout.h"
#include "vm/Loader.h"
#include "workloads/RandomProgram.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

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
  // Safe points are tags, not a per-instruction hook: the run took the
  // hook-free loop.
  EXPECT_GT(Interp.fusedInsnCount(), 0u);
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

//===----------------------------------------------------------------------===//
// Safe-point tags against the per-instruction rule
//
// The manager learns of safe points from predecode tags, which keep its
// runs on the hook-free loop (DESIGN.md §7). SafePointDiffTest holds it,
// on every workload and configuration, to a reference that applies the
// rule the manager used before tags: probe the translator's safe points
// at every instruction on the hooked loop. The trace (checkpoint instants
// and guest PCs, rollbacks, watchdog fires), the report, the registry,
// the counts and the output must agree, clean and with faults injected.
//===----------------------------------------------------------------------===//

namespace {

/// A recovery manager driven by the per-instruction rule. It ignores its
/// tags and, installed as the interpreter's pre-instruction hook (which
/// selects the hooked loop), probes the translator's safe points at every
/// instruction.
class PerInsnRecovery : public RecoveryManager, public PreInsnHook {
public:
  PerInsnRecovery(Interpreter &Interp, Dbt &Translator, RecoveryConfig Config)
      : RecoveryManager(Interp, Translator, Config), Interp(Interp),
        Translator(Translator) {
    Interp.setPreInsnHook(this);
  }
  ~PerInsnRecovery() override { Interp.setPreInsnHook(nullptr); }

  void onSafePoint(uint64_t, bool, uint64_t, uint64_t) override {}

  void onInsn(uint64_t InsnAddr, const Instruction &I, CpuState &) override {
    // The counters were charged for this instruction, which has not run.
    if (const SafePointInfo *SP = Translator.safePoints().find(InsnAddr))
      RecoveryManager::onSafePoint(InsnAddr, SP->Checked,
                                   Interp.instructionCount() - 1,
                                   Interp.cycleCount() - getOpcodeCost(I.Op));
  }

private:
  Interpreter &Interp;
  const Dbt &Translator;
};

/// XORs \p Mask into a register at the instruction it is armed for.
class RegisterFlip : public FaultHook {
public:
  RegisterFlip(uint8_t Reg, uint64_t Mask) : Reg(Reg), Mask(Mask) {}
  bool apply(uint64_t, Instruction &, Flags &, CpuState &State) override {
    State.Regs[Reg] ^= Mask;
    return true;
  }

private:
  uint8_t Reg;
  uint64_t Mask;
};

struct DiffConfig {
  const char *Name;
  DbtConfig Dbt;
  RecoveryConfig Recovery;
};

std::vector<DiffConfig> diffConfigs() {
  auto Tech = [](Technique T) {
    DbtConfig Config;
    Config.Tech = T;
    return Config;
  };
  RecoveryConfig Plain;
  Plain.CheckpointInterval = 2000;
  // A budget of a few pages forces checkpoints by undo-log size too.
  RecoveryConfig Budgeted = Plain;
  Budgeted.MemoryBudget = 8 * PageSize;
  DbtConfig Opt = Tech(Technique::EdgCf);
  Opt.Tier = DbtTier::Opt;
  DbtConfig Assured = Tech(Technique::EdgCf);
  Assured.ScrubInterval = 16;
  Assured.VerifyDispatchInterval = 1;
  Assured.ShadowSignature = true;
  Assured.ShadowStack = true;
  // Checks only at the End: chained superblocks run check-free far past
  // the watchdog bound, which fires and degrades the translator.
  DbtConfig Relaxed = Tech(Technique::Rcf);
  Relaxed.Policy = CheckPolicy::End;
  Relaxed.SuperblockLimit = 4;
  Relaxed.ChainDirectExits = true;
  RecoveryConfig Watchdog = Plain;
  Watchdog.CheckpointInterval = 500;
  Watchdog.WatchdogBound = 3000;
  return {{"ecf", Tech(Technique::Ecf), Plain},
          {"edgcf", Tech(Technique::EdgCf), Budgeted},
          {"rcf", Tech(Technique::Rcf), Plain},
          {"edgcf-opt", Opt, Plain},
          {"assured", Assured, Plain},
          {"rcf-end-watchdog", Relaxed, Watchdog}};
}

/// What one recovered run did, as far as the two rules must agree.
struct RecoveredRun {
  RecoveryReport Report;
  std::vector<telemetry::TraceEvent> Events;
  telemetry::RegistrySnapshot Registry;
  uint64_t Insns = 0;
  uint64_t Cycles = 0;
  uint64_t OutputHash = 0;
  uint64_t FusedInsns = 0;
};

/// Loads \p Program and runs it to the end under recovery, with tags or
/// (\p PerInsn) the reference rule, and \p Fault armed at \p FaultAt when
/// given.
RecoveredRun runRecovered(const AsmProgram &Program, const DiffConfig &C,
                          bool PerInsn, uint64_t MaxInsns,
                          FaultHook *Fault = nullptr, uint64_t FaultAt = 0) {
  RecoveredRun R;
  Memory Mem;
  Interpreter Interp(Mem);
  Dbt Translator(Mem, C.Dbt);
  telemetry::EventTracer Tracer(1 << 16);
  Translator.setTracer(&Tracer);
  EXPECT_TRUE(Translator.load(Program, Interp.state()));
  if (Fault)
    Interp.armFault(Fault, FaultAt);
  if (PerInsn)
    R.Report = PerInsnRecovery(Interp, Translator, C.Recovery).run(MaxInsns);
  else
    R.Report = RecoveryManager(Interp, Translator, C.Recovery).run(MaxInsns);
  EXPECT_EQ(Tracer.dropped(), 0u);
  R.Events = Tracer.events();
  R.Registry = Translator.metrics().snapshot();
  R.Insns = Interp.instructionCount();
  R.Cycles = Interp.cycleCount();
  R.OutputHash = hashOutput(Interp.output());
  R.FusedInsns = Interp.fusedInsnCount();
  return R;
}

/// The (instant, guest PC) of every checkpoint in \p Events.
std::vector<std::pair<uint64_t, uint64_t>>
checkpointsOf(const std::vector<telemetry::TraceEvent> &Events) {
  std::vector<std::pair<uint64_t, uint64_t>> Out;
  for (const telemetry::TraceEvent &E : Events)
    if (E.Kind == telemetry::TraceEventKind::CheckpointTaken)
      Out.emplace_back(E.Ts, E.Addr);
  return Out;
}

void expectSameRecovery(const RecoveredRun &Tags, const RecoveredRun &Ref,
                        const std::string &What) {
  EXPECT_EQ(checkpointsOf(Tags.Events), checkpointsOf(Ref.Events)) << What;
  EXPECT_TRUE(Tags.Events == Ref.Events) << What << ": trace events differ";
  const RecoveryReport &A = Tags.Report, &B = Ref.Report;
  EXPECT_EQ(A.Completed, B.Completed) << What;
  EXPECT_EQ(A.FinalStop.Kind, B.FinalStop.Kind) << What;
  EXPECT_EQ(A.FinalStop.Trap, B.FinalStop.Trap) << What;
  EXPECT_EQ(A.FinalStop.PC, B.FinalStop.PC) << What;
  EXPECT_EQ(A.GuestStopPC, B.GuestStopPC) << What;
  EXPECT_EQ(A.NumCheckpoints, B.NumCheckpoints) << What;
  EXPECT_EQ(A.NumRollbacks, B.NumRollbacks) << What;
  EXPECT_EQ(A.NumWatchdogFires, B.NumWatchdogFires) << What;
  EXPECT_EQ(A.Degraded, B.Degraded) << What;
  EXPECT_EQ(A.InterpreterFallback, B.InterpreterFallback) << What;
  EXPECT_EQ(A.FirstDetection, B.FirstDetection) << What;
  EXPECT_EQ(A.TotalExecuted, B.TotalExecuted) << What;
  EXPECT_TRUE(Tags.Registry == Ref.Registry) << What << ": registries differ";
  EXPECT_EQ(Tags.Insns, Ref.Insns) << What;
  EXPECT_EQ(Tags.Cycles, Ref.Cycles) << What;
  EXPECT_EQ(Tags.OutputHash, Ref.OutputHash) << What;
  EXPECT_EQ(Ref.FusedInsns, 0u) << What << ": the reference ran hook-free";
}

class SafePointDiffTest : public ::testing::TestWithParam<std::string> {};

} // namespace

TEST_P(SafePointDiffTest, TagsMatchThePerInstructionRule) {
  const std::string &Workload = GetParam();
  AsmProgram Program = assembleWorkload(Workload);
  for (const DiffConfig &C : diffConfigs()) {
    std::string What = Workload + " " + C.Name;
    RecoveredRun Clean = runRecovered(Program, C, false, 50000000);
    expectSameRecovery(Clean, runRecovered(Program, C, true, 50000000),
                       What + ", clean");
    ASSERT_TRUE(Clean.Report.Completed) << What;
    EXPECT_GT(Clean.Report.NumCheckpoints, 1u) << What;
    // An exact check that the run took the hook-free loop.
    EXPECT_GT(Clean.FusedInsns, 0u) << What;
    if (C.Recovery.WatchdogBound < RecoveryConfig().WatchdogBound) {
      EXPECT_GT(Clean.Report.NumWatchdogFires, 0u) << What;
    } else {
      EXPECT_EQ(Clean.Report.NumRollbacks, 0u) << What;
    }

    // A flipped signature register is caught at the next check and rolls
    // back; a wild stack pointer traps at the next stack access, if any.
    uint64_t Budget = Clean.Insns * 4 + 100000;
    RegisterFlip Signature(RegPCP, 1ull << 7), Stack(RegSP, 1ull << 40);
    for (auto [Fault, At] : {std::pair<FaultHook *, uint64_t>(
                                 &Signature, Clean.Insns / 3),
                             {&Stack, Clean.Insns * 2 / 3}}) {
      std::string Where = What + ", fault at " + std::to_string(At);
      RecoveredRun Tags = runRecovered(Program, C, false, Budget, Fault, At);
      expectSameRecovery(Tags,
                         runRecovered(Program, C, true, Budget, Fault, At),
                         Where);
      if (Fault == &Signature) {
        EXPECT_GT(Tags.Report.NumRollbacks, 0u) << Where;
      }
      EXPECT_GT(Tags.FusedInsns, 0u) << Where;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, SafePointDiffTest, ::testing::ValuesIn([] {
      std::vector<std::string> Names;
      for (const WorkloadInfo &Info : getWorkloadSuite())
        Names.push_back(Info.Name);
      return Names;
    }()),
    [](const ::testing::TestParamInfo<std::string> &Info) {
      std::string Name = Info.param;
      for (char &Ch : Name)
        if (!isalnum(static_cast<unsigned char>(Ch)))
          Ch = '_';
      return Name;
    });

namespace {

/// Counts the safe points a run reaches.
struct CountingSafePoints : SafePointHook {
  uint64_t Calls = 0;
  void onSafePoint(uint64_t, bool, uint64_t, uint64_t) override { ++Calls; }
};

} // namespace

TEST(SafePointTagTest, EvictedSafePointsLoseTheirTags) {
  // Without chaining nothing rewrites a translated page once it is
  // complete, so only eviction's own predecode invalidation can drop the
  // tags of the safe points it erases. The program is large enough for
  // its translations to fill several cache pages.
  RandomProgramOptions Options;
  Options.Seed = 21;
  Options.NumSegments = 40;
  Options.MaxBodyInsns = 12;
  Options.NumHelpers = 4;
  AsmProgram Program = assembleOk(generateRandomProgram(Options));
  DbtConfig Config;
  Config.Tech = Technique::EdgCf;
  Config.ChainDirectExits = false;
  Memory Mem;
  Interpreter Interp(Mem);
  Dbt Translator(Mem, Config);
  ASSERT_TRUE(Translator.load(Program, Interp.state()));
  CountingSafePoints Hook;
  Interp.setSafePointHook(&Hook, &Translator.safePoints());
  ASSERT_EQ(Translator.run(Interp, 50000000).Kind, StopKind::Halted);
  EXPECT_GT(Hook.Calls, 0u);
  EXPECT_GT(Interp.fusedInsnCount(), 0u);

  std::vector<SafePointInfo> Before(Translator.safePoints().begin(),
                                    Translator.safePoints().end());
  ASSERT_GT(Before.size(), 2u);
  MemResult R;
  for (const SafePointInfo &SP : Before) {
    const Instruction *I = Mem.fetchDecoded(SP.CacheAddr, R);
    ASSERT_TRUE(I && I->Op == SafePointTag) << std::hex << SP.CacheAddr;
  }
  // Quarantine every unit on the first cache page; their retranslations
  // land at the end of the cache.
  uint64_t FirstPage = Before.front().CacheAddr / PageSize;
  ASSERT_NE(Before.back().CacheAddr / PageSize, FirstPage);
  for (const SafePointInfo &SP : Before)
    if (SP.CacheAddr / PageSize == FirstPage)
      Translator.quarantineGuestBlock(SP.GuestAddr);
  unsigned Evicted = 0;
  for (const SafePointInfo &SP : Before) {
    const Instruction *I = Mem.fetchDecoded(SP.CacheAddr, R);
    ASSERT_NE(I, nullptr);
    if (Translator.safePoints().find(SP.CacheAddr)) {
      EXPECT_EQ(I->Op, SafePointTag) << std::hex << SP.CacheAddr;
    } else {
      ++Evicted;
      EXPECT_NE(I->Op, SafePointTag)
          << "stale tag at evicted safe point 0x" << std::hex << SP.CacheAddr;
    }
  }
  EXPECT_GT(Evicted, 0u);
  Interp.setSafePointHook(nullptr, nullptr);
}

TEST(RecoveryTest, UndoBudgetCheckpointsAreUnchanged) {
  // A budget of two pages forces a checkpoint at almost every safe point
  // once the ring's undo logs outgrow it, across ring pops and rollbacks.
  // Pinned: checkpoint count, rollbacks, and a fold of every checkpoint's
  // (instant, guest PC), as the manager that re-summed the ring at every
  // safe point produced them.
  struct Pin {
    const char *Workload;
    uint64_t Checkpoints;
    uint64_t Rollbacks;
    uint64_t Fold;
  };
  const Pin Pins[] = {
      {"164.gzip", 58575, 3, 0x4b190a55745e3d5eULL},
      {"181.mcf", 727, 1, 0x1bd13830a275dc13ULL},
      {"186.crafty", 4282, 1, 0x197608704d603502ULL},
  };
  /// Flips the signature register once, where it is armed.
  struct FlipPcp : FaultHook {
    bool apply(uint64_t, Instruction &, Flags &, CpuState &State) override {
      State.Regs[RegPCP] ^= 1ull << 5;
      return true;
    }
  };
  for (const Pin &P : Pins) {
    AsmProgram Program = assembleWorkload(P.Workload);
    DbtConfig Config;
    Config.Tech = Technique::EdgCf;
    Memory Mem;
    Interpreter Interp(Mem);
    Dbt Translator(Mem, Config);
    telemetry::EventTracer Tracer(1 << 18);
    Translator.setTracer(&Tracer);
    ASSERT_TRUE(Translator.load(Program, Interp.state()));
    FlipPcp Fault;
    Interp.armFault(&Fault, 200000);
    RecoveryConfig RC;
    RC.CheckpointInterval = 5000;
    RC.MemoryBudget = 2 * PageSize;
    RC.MaxCheckpoints = 3;
    RecoveryReport Report =
        RecoveryManager(Interp, Translator, RC).run(50000000);
    ASSERT_EQ(Tracer.dropped(), 0u);
    uint64_t Fold = 0xcbf29ce484222325ULL;
    for (const telemetry::TraceEvent &E : Tracer.events())
      if (E.Kind == telemetry::TraceEventKind::CheckpointTaken)
        for (uint64_t V : {E.Ts, E.Addr, E.Arg}) {
          Fold ^= V;
          Fold *= 0x100000001b3ULL;
        }
    EXPECT_TRUE(Report.Completed) << P.Workload;
    EXPECT_EQ(Report.NumCheckpoints, P.Checkpoints) << P.Workload;
    EXPECT_EQ(Report.NumRollbacks, P.Rollbacks) << P.Workload;
    EXPECT_EQ(Fold, P.Fold) << P.Workload;
  }
}
