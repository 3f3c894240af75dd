//===- RecoveryForkTest.cpp - Recovery forks equal instant-0 runs ---------===//
//
// A recovery plan's planning run runs under a RecoveryManager, so its
// snapshots carry the recovery run: a recovery injection forks the
// latest one before its fault and stops at the first later snapshot
// instant where it stands exactly where the golden recovery run stood
// (DESIGN.md §7, §12). These tests hold every such run to the same fault
// run from instant 0 to the end (RunFrom::Start): the outcome, Fired and
// latency, and every RecoveryReport field, over the hostbench recovery
// cells and over recovery configurations that stress the checkpoint
// schedule, the watchdog and the translator. They also check the
// fallbacks to the instant-0 run, a fork's first rollback into a
// checkpoint it inherited, and concurrent forks of one snapshot.
//
//===----------------------------------------------------------------------===//

#include "fault/Campaign.h"
#include "support/ThreadPool.h"
#include "telemetry/FlightRecorder.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>

using namespace cfed;

namespace {

constexpr uint64_t GoldenBudget = 50000000ULL;
using RunFrom = FaultCampaign::RunFrom;

std::string describe(const PlannedFault &F) {
  return "instance " + std::to_string(F.Instance) + " (insn " +
         std::to_string(F.InsnIndex) + ", bit " + std::to_string(F.Bit) +
         (F.Kind == FaultKind::FlagBit ? " flag" : " addr") + ")";
}

DbtConfig techConfig(Technique Tech) {
  DbtConfig Config;
  Config.Tech = Tech;
  return Config;
}

/// The engine's primaries: the first \p N deviating candidates of a 4x
/// over-plan, planned under \p Recovery.
std::vector<PlannedFault> primaries(FaultCampaign &Campaign, uint64_t N,
                                    uint64_t Seed, SiteClass Sites,
                                    const RecoveryConfig &Recovery) {
  std::vector<PlannedFault> Out;
  for (const PlannedFault &F : Campaign.plan(N * 4, Seed, Sites,
                                             FaultModel::SingleBit, true,
                                             &Recovery))
    if (F.Category != BranchErrorCategory::NoError && Out.size() < N)
      Out.push_back(F);
  return Out;
}

/// Injects \p F forked and cut off, and from instant 0 to the end, and
/// expects the same report. Returns the forked one.
InjectionReport expectSameAsStart(const FaultCampaign &Campaign,
                                  const PlannedFault &F,
                                  const RecoveryConfig &Recovery,
                                  const std::string &Where) {
  InjectionReport A = Campaign.injectFrom(F, RunFrom::Snapshot, &Recovery);
  InjectionReport B = Campaign.injectFrom(F, RunFrom::Start, &Recovery);
  std::string What = Where + ", " + describe(F);
  EXPECT_EQ(A.Result, B.Result) << What;
  EXPECT_EQ(A.Fired, B.Fired) << What;
  EXPECT_EQ(A.LatencyInsns, B.LatencyInsns) << What;
  const RecoveryReport &RA = A.Recovery, &RB = B.Recovery;
  EXPECT_EQ(RA.Completed, RB.Completed) << What;
  EXPECT_EQ(RA.FinalStop.Kind, RB.FinalStop.Kind) << What;
  EXPECT_EQ(RA.FinalStop.Trap, RB.FinalStop.Trap) << What;
  EXPECT_EQ(RA.FinalStop.TrapAddr, RB.FinalStop.TrapAddr) << What;
  EXPECT_EQ(RA.FinalStop.BreakCode, RB.FinalStop.BreakCode) << What;
  EXPECT_EQ(RA.FinalStop.PC, RB.FinalStop.PC) << What;
  EXPECT_EQ(RA.GuestStopPC, RB.GuestStopPC) << What;
  EXPECT_EQ(RA.NumCheckpoints, RB.NumCheckpoints) << What;
  EXPECT_EQ(RA.NumRollbacks, RB.NumRollbacks) << What;
  EXPECT_EQ(RA.NumWatchdogFires, RB.NumWatchdogFires) << What;
  EXPECT_EQ(RA.Degraded, RB.Degraded) << What;
  EXPECT_EQ(RA.InterpreterFallback, RB.InterpreterFallback) << What;
  EXPECT_EQ(RA.FirstDetection, RB.FirstDetection) << What;
  EXPECT_EQ(RA.TotalExecuted, RB.TotalExecuted) << What;
  EXPECT_EQ(B.RejoinedAt, 0u) << What;
  return A;
}

struct Tally {
  uint64_t Runs = 0;
  uint64_t Rejoined = 0;
};

/// Plans \p N primaries of \p Workload under \p Recovery and holds each
/// fork to its instant-0 run.
Tally checkCell(const std::string &Workload, const DbtConfig &Config,
                uint64_t N, uint64_t Seed, SiteClass Sites,
                const RecoveryConfig &Recovery, const std::string &Where) {
  AsmProgram Program = assembleWorkload(Workload);
  FaultCampaign Campaign(Program, Config);
  Tally T;
  if (!Campaign.prepare(GoldenBudget)) {
    ADD_FAILURE() << Where << ": golden run did not complete";
    return T;
  }
  for (const PlannedFault &F :
       primaries(Campaign, N, Seed, Sites, Recovery)) {
    InjectionReport R = expectSameAsStart(Campaign, F, Recovery, Where);
    ++T.Runs;
    T.Rejoined += R.RejoinedAt != 0;
    if (R.RejoinedAt) {
      EXPECT_GE(R.RejoinedAt, F.InsnIndex) << Where << ", " << describe(F);
    }
  }
  return T;
}

/// A fault applied at its retired-instruction index, for runs driven
/// here rather than through the campaign.
class ArmedFault : public FaultHook {
public:
  explicit ArmedFault(const PlannedFault &Fault) : Fault(Fault) {}
  bool apply(uint64_t, Instruction &I, Flags &F, CpuState &) override {
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

bool sameCpu(const CpuState &A, const CpuState &B) {
  return std::memcmp(A.Regs, B.Regs, sizeof(A.Regs)) == 0 &&
         std::memcmp(A.FpRegs, B.FpRegs, sizeof(A.FpRegs)) == 0 &&
         A.F.pack() == B.F.pack() && A.PC == B.PC;
}

} // namespace

// Every primary of the 78 hostbench recovery cells (26 programs x ECF,
// EdgCF, RCF, 4 primaries each, default recovery configuration).
TEST(RecoveryForkTest, HostbenchCellsMatchInstantZero) {
  const Technique Techs[] = {Technique::Ecf, Technique::EdgCf,
                             Technique::Rcf};
  Tally All;
  const std::vector<WorkloadInfo> &Suite = getWorkloadSuite();
  for (size_t P = 0; P < Suite.size(); ++P)
    for (unsigned K = 0; K < 3; ++K) {
      Tally T = checkCell(Suite[P].Name, techConfig(Techs[K]), 4, 1 + 3 * P + K,
                          SiteClass::Any, RecoveryConfig(),
                          Suite[P].Name + " " + getTechniqueName(Techs[K]));
      All.Runs += T.Runs;
      All.Rejoined += T.Rejoined;
    }
  EXPECT_EQ(All.Runs, 78u * 4);
  std::printf("hostbench cells: %llu of %llu rejoined\n",
              static_cast<unsigned long long>(All.Rejoined),
              static_cast<unsigned long long>(All.Runs));
  // Most runs are cut off where they rejoin the golden run.
  EXPECT_GT(All.Rejoined * 2, All.Runs)
      << All.Rejoined << " of " << All.Runs << " rejoined";
}

// Recovery configurations that move the checkpoint schedule, the ring,
// the watchdog and the translator.
TEST(RecoveryForkTest, StressedConfigurationsMatchInstantZero) {
  struct Variant {
    const char *Name;
    DbtConfig Config;
    RecoveryConfig Recovery;
    SiteClass Sites = SiteClass::Any;
  };
  std::vector<Variant> Variants;
  {
    Variant V{"8-page undo budget", techConfig(Technique::EdgCf), {}};
    V.Recovery.MemoryBudget = 8 * PageSize;
    Variants.push_back(V);
  }
  for (unsigned Depth : {1u, 4u}) {
    Variant V{Depth == 1 ? "ring depth 1" : "ring depth 4",
              techConfig(Technique::Rcf),
              {}};
    V.Recovery.MaxCheckpoints = Depth;
    Variants.push_back(V);
  }
  {
    Variant V{"2000-insn interval, original sites",
              techConfig(Technique::Ecf),
              {}};
    V.Recovery.CheckpointInterval = 2000;
    V.Sites = SiteClass::OriginalOnly;
    Variants.push_back(V);
  }
  {
    Variant V{"assured", techConfig(Technique::EdgCf), {}};
    V.Config.ScrubInterval = 16;
    V.Config.VerifyDispatchInterval = 1;
    V.Config.ShadowSignature = true;
    V.Config.ShadowStack = true;
    Variants.push_back(V);
  }
  {
    Variant V{"opt tier", techConfig(Technique::EdgCf), {}};
    V.Config.Tier = DbtTier::Opt;
    Variants.push_back(V);
  }
  // Without a checking technique the faults a hardware trap does not
  // catch corrupt data the CPU state soon stops showing: the memory and
  // output compares decide these.
  Variants.push_back({"no checking technique", techConfig(Technique::None), {}});
  {
    Variant V{"RCF End policy, 3000-insn watchdog",
              techConfig(Technique::Rcf),
              {}};
    V.Config.Policy = CheckPolicy::End;
    V.Recovery.WatchdogBound = 3000;
    Variants.push_back(V);
  }
  for (const Variant &V : Variants) {
    Tally All;
    for (const char *Workload : {"164.gzip", "186.crafty", "181.mcf"}) {
      Tally T = checkCell(Workload, V.Config, 12, 11, V.Sites, V.Recovery,
                          std::string(Workload) + ", " + V.Name);
      All.Runs += T.Runs;
      All.Rejoined += T.Rejoined;
    }
    EXPECT_GT(All.Runs, 0u) << V.Name;
    std::printf("%s: %llu of %llu rejoined\n", V.Name,
                static_cast<unsigned long long>(All.Rejoined),
                static_cast<unsigned long long>(All.Runs));
  }
}

// A fault that only changes a stored value (through a branch the golden
// run has taken and chained before, into a path as long as the other)
// leaves registers, FLAGS, PC, cycles, output and translations as the
// golden run has them at every later snapshot. Only the pages tell the
// run apart, and with no checking technique to catch the mistaken branch
// it ends in silent data corruption.
TEST(RecoveryForkTest, MemoryOnlyCorruptionDoesNotRejoin) {
  AsmResult Asm = assembleProgram(R"(
.entry main
.data
arr: .space 32768
.code
main:
  movi r1, arr
  movi r2, 0
fill:
  cmpi r2, 16
  jcc lt, low           ; taken (and chained) for the first 16 only
  movi r5, 7
  jmp store
low:
  movi r5, 9
  jmp store
store:
  st [r1], r5
  movi r5, 0
  addi r1, r1, 8
  addi r2, r2, 1
  cmpi r2, 4096
  jcc lt, fill
  movi r1, arr
  movi r2, 0
  movi r3, 0
sum:
  ld r4, [r1]
  add r3, r3, r4
  addi r1, r1, 8
  addi r2, r2, 1
  cmpi r2, 4096
  jcc lt, sum
  out r3
  halt
)");
  ASSERT_TRUE(Asm.succeeded()) << Asm.errorText();
  FaultCampaign Campaign(Asm.Program, techConfig(Technique::None));
  ASSERT_TRUE(Campaign.prepare(GoldenBudget));
  RecoveryConfig Recovery;
  uint64_t Sdc = 0;
  for (const PlannedFault &F :
       primaries(Campaign, 40, 13, SiteClass::OriginalOnly, Recovery)) {
    InjectionReport R =
        expectSameAsStart(Campaign, F, Recovery, "store-skipping program");
    Sdc += R.Result == Outcome::Sdc;
  }
  EXPECT_GT(Sdc, 0u);
}

// Plans without recovery snapshots for the injection's configuration,
// and bundle replays, run from instant 0 to the end.
TEST(RecoveryForkTest, FallsBackToInstantZero) {
  AsmProgram Program = assembleWorkload("164.gzip");
  FaultCampaign Campaign(Program, techConfig(Technique::EdgCf));
  ASSERT_TRUE(Campaign.prepare(GoldenBudget));
  RecoveryConfig Recovery, Other;
  Other.CheckpointInterval = 5000;

  // A plain plan.
  std::vector<PlannedFault> Plain = Campaign.plan(16, 3, SiteClass::Any);
  ASSERT_GT(Campaign.numSnapshots(), 0u);
  for (const PlannedFault &F : Plain) {
    if (F.Category != BranchErrorCategory::NoError) {
      EXPECT_EQ(expectSameAsStart(Campaign, F, Recovery, "plain plan")
                    .RejoinedAt,
                0u);
    }
  }

  // A recovery plan under another configuration, and bundle replays.
  std::vector<PlannedFault> Faults = primaries(Campaign, 6, 3, SiteClass::Any,
                                               Recovery);
  uint64_t Rejoined = 0;
  std::filesystem::path Dir = std::filesystem::temp_directory_path() /
                              ("cfed_recovery_fork_" +
                               std::to_string(::testing::UnitTest::GetInstance()
                                                  ->random_seed()));
  std::filesystem::create_directories(Dir);
  telemetry::FlightRecorder Recorder(Dir.string(), 64);
  for (const PlannedFault &F : Faults) {
    EXPECT_EQ(expectSameAsStart(Campaign, F, Other, "other configuration")
                  .RejoinedAt,
              0u);
    InjectionReport Bundled = Campaign.injectWithRecovery(F, Recovery,
                                                          &Recorder);
    EXPECT_EQ(Bundled.RejoinedAt, 0u) << describe(F);
    Rejoined += Campaign.injectWithRecovery(F, Recovery).RejoinedAt != 0;
  }
  std::filesystem::remove_all(Dir);
  // The plan's own configuration does fork and rejoin.
  EXPECT_GT(Rejoined, 0u);
}

// A fork whose first rollback lands on a checkpoint older than its
// snapshot restores it from the undo log the snapshot carried; the
// resumed manager keeps the snapshot's watchdog anchor and checkpoint
// instant and seeds nothing.
TEST(RecoveryForkTest, FirstRollbackIntoInheritedCheckpoint) {
  RecoveryConfig Recovery;
  unsigned Checked = 0;
  for (const char *Workload : {"164.gzip", "186.crafty", "254.gap"}) {
    AsmProgram Program = assembleWorkload(Workload);
    DbtConfig Config = techConfig(Technique::EdgCf);
    FaultCampaign Campaign(Program, Config);
    ASSERT_TRUE(Campaign.prepare(GoldenBudget)) << Workload;
    GoldenRun Golden;
    Golden.Insns = Campaign.goldenInsns();
    Golden.Hash = Campaign.goldenHash();
    for (const PlannedFault &F : Campaign.plan(40, 5, SiteClass::Any)) {
      if (F.Category == BranchErrorCategory::NoError || F.InsnIndex < 2)
        continue;
      std::string What = std::string(Workload) + ", " + describe(F);
      // The golden recovery run, paused just before the fault.
      GuestRun Planner(Program, Config);
      RecoveryManager PlanManager(Planner.Interp, Planner.Translator,
                                  Recovery);
      PlanManager.start(Golden.budget());
      ASSERT_FALSE(PlanManager.advance(F.InsnIndex - 1)) << What;
      PlanManager.settle();
      std::unique_ptr<GuestRun> Snap = Planner.snapshot();
      Snap->RecoveryState = std::make_shared<const RecoveryManager::RunState>(
          PlanManager.runState());
      const RecoveryManager::RunState &At = *Snap->RecoveryState;
      uint64_t Inherited = At.CheckpointInsns;
      if (Inherited >= F.InsnIndex - 1 || At.Checkpoints.back().UndoLog.empty())
        continue;

      GuestRun Fork(*Snap);
      ArmedFault ForkHook(F);
      Fork.Interp.armFault(&ForkHook, F.InsnIndex);
      RecoveryManager ForkManager(Fork.Interp, Fork.Translator, Recovery);
      ForkManager.resume(*Fork.RecoveryState, Golden.budget());
      EXPECT_EQ(ForkManager.runState().LastCheck, At.LastCheck) << What;
      EXPECT_EQ(ForkManager.runState().CheckpointInsns, Inherited) << What;
      EXPECT_EQ(ForkManager.runState().Report.NumCheckpoints,
                At.Report.NumCheckpoints)
          << What;

      GuestRun Ref(Program, Config);
      ArmedFault RefHook(F);
      Ref.Interp.armFault(&RefHook, F.InsnIndex);
      RecoveryManager RefManager(Ref.Interp, Ref.Translator, Recovery);
      RefManager.start(Golden.budget());
      ASSERT_FALSE(RefManager.advance(F.InsnIndex)) << What;

      // Both come back to the inherited checkpoint only by rolling back.
      bool ForkEnded = ForkManager.advance(Inherited);
      bool RefEnded = RefManager.advance(Inherited);
      ASSERT_EQ(ForkEnded, RefEnded) << What;
      if (ForkEnded || ForkManager.runState().Report.NumRollbacks != 1)
        continue;
      EXPECT_EQ(RefManager.runState().Report.NumRollbacks, 1u) << What;
      EXPECT_TRUE(sameCpu(Fork.Interp.state(), Ref.Interp.state())) << What;
      EXPECT_EQ(Fork.Interp.output(), Ref.Interp.output()) << What;
      EXPECT_EQ(Fork.Interp.cycleCount(), Ref.Interp.cycleCount()) << What;
      std::unique_ptr<GuestRun> RefImage = Ref.snapshot();
      EXPECT_TRUE(Fork.Mem.sameContents(RefImage->Mem)) << What;
      ++Checked;
      ForkManager.finish();
      RefManager.finish();
    }
  }
  EXPECT_GE(Checked, 3u);
}

// Four workers fork one recovery snapshot at once, each running the same
// fault to the same report.
TEST(RecoveryForkTest, ConcurrentForksOfOneSnapshot) {
  AsmProgram Program = assembleWorkload("186.crafty");
  FaultCampaign Campaign(Program, techConfig(Technique::Rcf));
  ASSERT_TRUE(Campaign.prepare(GoldenBudget));
  RecoveryConfig Recovery;
  std::vector<PlannedFault> Faults =
      primaries(Campaign, 4, 9, SiteClass::Any, Recovery);
  ASSERT_FALSE(Faults.empty());
  ThreadPool Pool(4);
  for (const PlannedFault &F : Faults) {
    InjectionReport Serial = Campaign.injectWithRecovery(F, Recovery);
    std::vector<InjectionReport> Parallel(4);
    Pool.parallelFor(4, [&](uint64_t I) {
      Parallel[I] = Campaign.injectWithRecovery(F, Recovery);
    });
    for (const InjectionReport &R : Parallel) {
      EXPECT_EQ(R.Result, Serial.Result) << describe(F);
      EXPECT_EQ(R.LatencyInsns, Serial.LatencyInsns) << describe(F);
      EXPECT_EQ(R.RejoinedAt, Serial.RejoinedAt) << describe(F);
      EXPECT_EQ(R.Recovery.NumCheckpoints, Serial.Recovery.NumCheckpoints);
      EXPECT_EQ(R.Recovery.TotalExecuted, Serial.Recovery.TotalExecuted);
    }
  }
}
