//===- AttackTest.cpp - Adversarial campaign tests ------------------------------===//
//
// The adversarial mode of DESIGN.md §15: gadget-oracle soundness, plan
// determinism, jobs/shard invariance, byte-identical checkpoint resume,
// evasion proof bundles, and the category-registry compatibility the
// appended attack categories must preserve.
//
//===----------------------------------------------------------------------===//

#include "fault/Attack.h"
#include "fault/CampaignEngine.h"
#include "support/Format.h"
#include "telemetry/FlightRecorder.h"
#include "telemetry/Metrics.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <unistd.h>

using namespace cfed;

namespace {

AsmProgram assembleOk(const std::string &Source) {
  AsmResult Result = assembleProgram(Source);
  EXPECT_TRUE(Result.succeeded()) << Result.errorText();
  return std::move(Result.Program);
}

/// All three event streams in one small program: direct calls with
/// returns, an indirect call through a function-pointer table, and a
/// loop with direct exits for the code-patch family.
AsmProgram allFamiliesProgram() {
  return assembleOk(".entry main\n"
                    ".data\n"
                    "ops: .word op_a, op_b\n"
                    ".code\n"
                    "op_a:\n  add r1, r1, r2\n  ret\n"
                    "op_b:\n  mul r1, r1, r2\n  ret\n"
                    "helper:\n  addi r1, r1, 3\n  ret\n"
                    "main:\n"
                    "  movi r1, 5\n  movi r2, 3\n  movi r5, 0\n"
                    "loop:\n"
                    "  call helper\n"
                    "  andi r6, r5, 1\n"
                    "  movi r4, ops\n"
                    "  shli r6, r6, 3\n"
                    "  add r4, r4, r6\n"
                    "  ld r7, [r4]\n"
                    "  callr r7\n"
                    "  out r1\n"
                    "  addi r5, r5, 1\n"
                    "  cmpi r5, 6\n"
                    "  jcc lt, loop\n"
                    "  halt\n");
}

DbtConfig edgcfConfig(bool ShadowStack = false) {
  DbtConfig Config;
  Config.Tech = Technique::EdgCf;
  Config.ShadowStack = ShadowStack;
  return Config;
}

std::string tempPath(const std::string &Name) {
  std::string Path = ::testing::TempDir() + "cfed_attack_" +
                     std::to_string(::getpid()) + "_" + Name;
  std::remove(Path.c_str());
  return Path;
}

EngineConfig makeEngine(uint64_t Seed, uint64_t NumAttacks,
                        uint64_t Interval) {
  EngineConfig Engine;
  Engine.NumInjections = NumAttacks;
  Engine.Seed = Seed;
  Engine.CheckpointInterval = Interval;
  Engine.MaxInsns = 10000000;
  Engine.Jobs = 1;
  return Engine;
}

} // namespace

//===----------------------------------------------------------------------===//
// Categories: appended, never renumbered
//===----------------------------------------------------------------------===//

TEST(AttackTest, AttackCategoriesAppendWithoutRenumbering) {
  // The seven fault-era categories keep their numeric IDs — checkpoint
  // reserve cursors and result files index by them.
  EXPECT_EQ(static_cast<unsigned>(BranchErrorCategory::A), 0u);
  EXPECT_EQ(static_cast<unsigned>(BranchErrorCategory::B), 1u);
  EXPECT_EQ(static_cast<unsigned>(BranchErrorCategory::C), 2u);
  EXPECT_EQ(static_cast<unsigned>(BranchErrorCategory::D), 3u);
  EXPECT_EQ(static_cast<unsigned>(BranchErrorCategory::E), 4u);
  EXPECT_EQ(static_cast<unsigned>(BranchErrorCategory::F), 5u);
  EXPECT_EQ(static_cast<unsigned>(BranchErrorCategory::NoError), 6u);
  EXPECT_EQ(NumBranchErrorCategories, 7u);
  // The attack categories extend the enum past the fault range.
  EXPECT_EQ(static_cast<unsigned>(BranchErrorCategory::AttackReturn), 7u);
  EXPECT_EQ(static_cast<unsigned>(BranchErrorCategory::AttackIndirect), 8u);
  EXPECT_EQ(static_cast<unsigned>(BranchErrorCategory::AttackCodePatch),
            9u);
  EXPECT_EQ(NumTotalErrorCategories, 10u);
  EXPECT_STREQ(getCategoryName(BranchErrorCategory::AttackReturn),
               "AttackReturn");
  EXPECT_EQ(attackCategory(AttackFamily::Return),
            BranchErrorCategory::AttackReturn);
  EXPECT_EQ(attackCategory(AttackFamily::CodePatch),
            BranchErrorCategory::AttackCodePatch);
}

TEST(AttackTest, PreAttackEraCheckpointStillLoads) {
  // A checkpoint written before the attack categories existed carries
  // exactly NumBranchErrorCategories reserve cursors. That shape is
  // frozen: the appended categories must not grow the array, or every
  // old campaign checkpoint would be rejected mid-resume.
  EngineCheckpoint Ckpt;
  EXPECT_EQ(Ckpt.ReserveCursors.size(), 7u);

  Ckpt.Version = EngineCheckpointVersion;
  Ckpt.PlanHash = 0x1234ABCDULL;
  Ckpt.Shard = 0;
  Ckpt.NumShards = 1;
  Ckpt.Cursor = 9;
  Ckpt.Completed = 9;
  Ckpt.ReserveCursors[3] = 2;
  telemetry::MetricsRegistry Registry;
  Registry.counter("fault.injections").inc(9);
  Ckpt.Registry = Registry.snapshot();

  std::string Path = tempPath("preattack.ckpt");
  std::string Error;
  ASSERT_TRUE(CampaignEngine::writeCheckpoint(Path, Ckpt, Error)) << Error;
  EngineCheckpoint Loaded;
  ASSERT_EQ(CampaignEngine::loadCheckpoint(Path, Loaded, Error),
            CampaignEngine::LoadStatus::Ok)
      << Error;
  EXPECT_EQ(Loaded.ReserveCursors, Ckpt.ReserveCursors);
  std::remove(Path.c_str());
}

TEST(AttackTest, FaultAndAttackCheckpointKindsNeverMix) {
  std::string Path = tempPath("kindmix.ckpt");
  EngineCheckpoint Ckpt;
  Ckpt.Version = EngineCheckpointVersion;
  std::string Error;

  ASSERT_TRUE(AttackEngine::writeCheckpoint(Path, Ckpt, Error)) << Error;
  EngineCheckpoint Out;
  EXPECT_EQ(CampaignEngine::loadCheckpoint(Path, Out, Error),
            CampaignEngine::LoadStatus::Corrupt);
  EXPECT_NE(Error.find("not a campaign checkpoint"), std::string::npos)
      << Error;

  ASSERT_TRUE(CampaignEngine::writeCheckpoint(Path, Ckpt, Error)) << Error;
  EXPECT_EQ(AttackEngine::loadCheckpoint(Path, Out, Error),
            CampaignEngine::LoadStatus::Corrupt);
  EXPECT_NE(Error.find("not an attack campaign checkpoint"),
            std::string::npos)
      << Error;
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Planning: determinism and oracle soundness
//===----------------------------------------------------------------------===//

TEST(AttackTest, PlanIsDeterministic) {
  AsmProgram Program = allFamiliesProgram();
  AttackCampaign Campaign(Program, edgcfConfig());
  ASSERT_TRUE(Campaign.prepare(10000000));
  EXPECT_GT(Campaign.eventExecutions(AttackFamily::Return), 0u);
  EXPECT_GT(Campaign.eventExecutions(AttackFamily::Indirect), 0u);
  EXPECT_GT(Campaign.eventExecutions(AttackFamily::CodePatch), 0u);

  std::vector<PlannedAttack> A = Campaign.plan(24, 42);
  std::vector<PlannedAttack> B = Campaign.plan(24, 42);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].Instance, B[I].Instance);
    EXPECT_EQ(A[I].Family, B[I].Family);
    EXPECT_EQ(A[I].SiteAddr, B[I].SiteAddr);
    EXPECT_EQ(A[I].RealTarget, B[I].RealTarget);
    EXPECT_EQ(A[I].ForgedTarget, B[I].ForgedTarget);
    EXPECT_EQ(A[I].GadgetValid, B[I].GadgetValid);
  }
  // A different seed reshuffles at least something.
  std::vector<PlannedAttack> C = Campaign.plan(24, 43);
  bool Different = C.size() != A.size();
  for (size_t I = 0; !Different && I < A.size(); ++I)
    Different = A[I].Instance != C[I].Instance ||
                A[I].ForgedTarget != C[I].ForgedTarget;
  EXPECT_TRUE(Different);
}

TEST(AttackTest, ForgedReturnsNeverTargetTheRealAddress) {
  AsmProgram Program = assembleWorkload("186.crafty");
  AttackCampaign Campaign(Program, edgcfConfig());
  ASSERT_TRUE(Campaign.prepare(10000000));
  for (const PlannedAttack &Attack : Campaign.plan(30, 7)) {
    if (Attack.ForgedTarget == 0)
      continue;
    EXPECT_NE(Attack.ForgedTarget, Attack.RealTarget)
        << "an attack that redirects to the genuine target is a no-op";
  }
}

TEST(AttackTest, OracleAcceptedReturnGadgetsEvadeTheSignatureCheck) {
  // The whole point of GadgetValid: when the checker's algebra accepts
  // the forged edge, the signature detector must never fire on it. The
  // run may still end in det-hw (the gadget executes garbage) or masked
  // — but 0xCFE would mean the oracle lied.
  AsmProgram Program = assembleWorkload("186.crafty");
  for (bool Eager : {false, true}) {
    DbtConfig Config;
    Config.Tech = Eager ? Technique::Cfcss : Technique::EdgCf;
    Config.EagerTranslate = Eager;
    AttackCampaign Campaign(Program, Config);
    ASSERT_TRUE(Campaign.prepare(10000000));
    unsigned Checked = 0;
    for (const PlannedAttack &Attack : Campaign.plan(24, 11)) {
      if (Attack.Family != AttackFamily::Return || !Attack.GadgetValid)
        continue;
      AttackCampaign::AttackReport Report = Campaign.injectAttack(Attack);
      if (!Report.Fired)
        continue;
      ++Checked;
      EXPECT_NE(Report.Result, AttackOutcome::DetectedSignature)
          << (Eager ? "cfcss" : "edgcf")
          << " signature fired on an oracle-accepted gadget (instance "
          << Attack.Instance << ")";
    }
    EXPECT_GT(Checked, 0u);
  }
}

//===----------------------------------------------------------------------===//
// Campaign invariances
//===----------------------------------------------------------------------===//

TEST(AttackTest, JobCountDoesNotChangeResults) {
  AsmProgram Program = allFamiliesProgram();
  AttackCampaign Serial(Program, edgcfConfig());
  ASSERT_TRUE(Serial.prepare(10000000));
  AttackResult Ref = Serial.run(20, 9, 1);

  AttackCampaign Parallel(Program, edgcfConfig());
  ASSERT_TRUE(Parallel.prepare(10000000));
  EXPECT_TRUE(Ref == Parallel.run(20, 9, 4));
}

TEST(AttackTest, ResultsRebuildExactlyFromTheRegistry) {
  AsmProgram Program = allFamiliesProgram();
  AttackCampaign Campaign(Program, edgcfConfig());
  ASSERT_TRUE(Campaign.prepare(10000000));
  AttackResult Result = Campaign.run(20, 9, 2);
  telemetry::RegistrySnapshot Snap = Campaign.metrics().snapshot();
  EXPECT_TRUE(hasAttackTallies(Snap));
  EXPECT_TRUE(attackResultFromSnapshot(Snap) == Result);
  EXPECT_EQ(Snap.counterOr("attack.attacks"), Result.Attacks);
}

//===----------------------------------------------------------------------===//
// The precision-matrix claims
//===----------------------------------------------------------------------===//

TEST(AttackTest, SignatureOnlySchemeMissesSomeReturnAttack) {
  // Acceptance gate: under a signature-only scheme at least one forged
  // return goes completely undetected — the matrix row the shadow stack
  // exists to zero out.
  AsmProgram Program = assembleWorkload("186.crafty");
  AttackCampaign Campaign(Program, edgcfConfig(false));
  ASSERT_TRUE(Campaign.prepare(10000000));
  AttackResult Result = Campaign.run(30, 7, 2);
  const AttackOutcomeCounts &Returns = Result.of(AttackFamily::Return);
  ASSERT_GT(Returns.total(), 0u);
  EXPECT_GT(Returns.undetected(), 0u);
  EXPECT_EQ(Returns.DetectedSig, 0u)
      << "EdgCF derives the signature from the popped value; it can "
         "never catch a forged return";
}

TEST(AttackTest, ShadowStackZeroesUndetectedReturnAttacks) {
  AsmProgram Program = assembleWorkload("186.crafty");
  AttackCampaign Campaign(Program, edgcfConfig(true));
  ASSERT_TRUE(Campaign.prepare(10000000));
  AttackResult Result = Campaign.run(30, 7, 2);
  const AttackOutcomeCounts &Returns = Result.of(AttackFamily::Return);
  ASSERT_GT(Returns.total(), 0u);
  EXPECT_EQ(Returns.undetected(), 0u);
  EXPECT_EQ(Returns.DetectedShadow, Returns.total())
      << "every forged return must be caught by the shadow stack alone";
}

TEST(AttackTest, EvasionsLeaveFlightRecorderBundles) {
  AsmProgram Program = assembleWorkload("186.crafty");
  AttackCampaign Campaign(Program, edgcfConfig(false));
  ASSERT_TRUE(Campaign.prepare(10000000));
  std::string Dir = tempPath("evasion_bundles");
  telemetry::FlightRecorder Recorder(Dir, 128);
  AttackResult Result = Campaign.run(30, 7, 1, &Recorder);
  uint64_t Undetected = Result.totals().undetected();
  ASSERT_GT(Undetected, 0u);
  EXPECT_GE(Recorder.bundleCount(), Undetected)
      << "every undetected attack must leave a proof bundle";
  std::ifstream In(Recorder.lastPath());
  ASSERT_TRUE(In.is_open()) << Recorder.lastPath();
  std::string Text((std::istreambuf_iterator<char>(In)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(Text.find("attack-evasion"), std::string::npos);
  EXPECT_NE(Text.find("forged_target"), std::string::npos);
}

TEST(AttackTest, RecoveryVariantRollsAttacksBack) {
  AsmProgram Program = assembleWorkload("186.crafty");
  AttackCampaign Campaign(Program, edgcfConfig(true));
  ASSERT_TRUE(Campaign.prepare(10000000));
  RecoveryConfig Recovery;
  Recovery.CheckpointInterval = 500;
  AttackResult Result = Campaign.runWithRecovery(16, 7, Recovery, 2);
  EXPECT_EQ(Result.totals().total(), Result.Attacks);
  EXPECT_GT(Result.totals().Recovered, 0u)
      << "shadow-stack detections feed the rollback path like any trap";
}

//===----------------------------------------------------------------------===//
// The attack engine: checkpoints, shards, rendering
//===----------------------------------------------------------------------===//

TEST(AttackTest, EngineResumeIsByteIdentical) {
  AsmProgram Program = allFamiliesProgram();
  EngineConfig Base = makeEngine(17, 18, 6);
  AttackEngineReport Reference =
      AttackEngine(Program, edgcfConfig(), Base).run();
  ASSERT_TRUE(Reference.Finished);
  EXPECT_EQ(Reference.Completed, 18u);

  std::string Path = tempPath("attack_resume.ckpt");
  EngineConfig Interrupted = Base;
  Interrupted.CheckpointFile = Path;
  Interrupted.MaxBatches = 1;
  AttackEngineReport Partial =
      AttackEngine(Program, edgcfConfig(), Interrupted).run();
  EXPECT_FALSE(Partial.Finished);
  EXPECT_EQ(Partial.Completed, 6u);

  EngineConfig Resume = Base;
  Resume.CheckpointFile = Path;
  AttackEngineReport Resumed =
      AttackEngine(Program, edgcfConfig(), Resume).run();
  EXPECT_TRUE(Resumed.Resumed);
  EXPECT_TRUE(Resumed.Finished);
  EXPECT_EQ(Resumed.Completed, Reference.Completed);
  EXPECT_TRUE(Resumed.Result == Reference.Result);
  EXPECT_EQ(Resumed.Registry.toJson(), Reference.Registry.toJson());
  EXPECT_EQ(AttackEngine::resultToJson(Resumed, Base),
            AttackEngine::resultToJson(Reference, Base));
  std::remove(Path.c_str());
}

TEST(AttackTest, InProcessRunEqualsUnshardedEngine) {
  // AttackCampaign::run is the attack engine's batch loop over one
  // checkpoint-free batch: the same attacks tally to the same registry.
  AsmProgram Program = allFamiliesProgram();
  AttackEngineReport Report =
      AttackEngine(Program, edgcfConfig(), makeEngine(17, 18, 5)).run();
  AttackCampaign Campaign(Program, edgcfConfig());
  ASSERT_TRUE(Campaign.prepare(50000000));
  AttackResult Result = Campaign.run(18, 17, /*Jobs=*/2);
  EXPECT_EQ(Result.Attacks, 18u);
  EXPECT_TRUE(Result == Report.Result);
  EXPECT_EQ(Campaign.metrics().snapshot().toJson(), Report.Registry.toJson());
}

TEST(AttackTest, ShardMergeReproducesUnshardedRun) {
  AsmProgram Program = allFamiliesProgram();
  EngineConfig Base = makeEngine(23, 16, 8);
  AttackEngineReport Reference =
      AttackEngine(Program, edgcfConfig(), Base).run();

  std::vector<ShardResult> Shards;
  for (unsigned Shard = 0; Shard < 2; ++Shard) {
    EngineConfig Sharded = Base;
    Sharded.ShardIndex = Shard;
    Sharded.NumShards = 2;
    Sharded.Jobs = Shard ? 3 : 1;
    AttackEngineReport Part =
        AttackEngine(Program, edgcfConfig(), Sharded).run();
    std::string Json = AttackEngine::resultToJson(Part, Sharded);
    ShardResult Parsed;
    std::string Error;
    ASSERT_TRUE(CampaignEngine::parseShardResult(Json, Parsed, Error))
        << Error;
    Shards.push_back(std::move(Parsed));
  }

  ShardResult Merged;
  std::string Error;
  ASSERT_TRUE(CampaignEngine::mergeShards(Shards, Merged, Error)) << Error;
  EXPECT_EQ(Merged.Completed, Reference.Completed);
  EXPECT_EQ(Merged.Registry.toJson(), Reference.Registry.toJson());
  EXPECT_TRUE(attackResultFromSnapshot(Merged.Registry) ==
              Reference.Result);
  EXPECT_EQ(renderPrecisionSummaryLine(Merged.Registry),
            renderPrecisionSummaryLine(Reference.Registry));
}

TEST(AttackTest, PrecisionRenderingIsExact) {
  telemetry::MetricsRegistry Registry;
  Registry.counter("attack.return.det-shadow").inc(4);
  Registry.counter("attack.return.evaded").inc(2);
  Registry.counter("attack.code-patch.det-sig").inc(3);
  Registry.counter("attack.code-patch.masked").inc(1);
  Registry.counter("attack.attacks").inc(10);
  telemetry::RegistrySnapshot Snap = Registry.snapshot();

  EXPECT_EQ(renderPrecisionSummaryLine(Snap),
            "precision-summary: attacks=10 detected=3 shadow_only=4 "
            "undetected=2 recovered=0 benign=1");
  std::string Matrix = renderPrecisionMatrix(Snap);
  EXPECT_NE(Matrix.find("return"), std::string::npos);
  EXPECT_NE(Matrix.find("code-patch"), std::string::npos);
  // The indirect family saw no attacks: its row is omitted.
  EXPECT_EQ(Matrix.find("indirect"), std::string::npos);

  telemetry::MetricsRegistry Empty;
  EXPECT_FALSE(hasAttackTallies(Empty.snapshot()));
  EXPECT_EQ(renderPrecisionMatrix(Empty.snapshot()), "");
}

TEST(AttackDeathTest, ForeignCheckpointIsRefused) {
  AsmProgram Program = allFamiliesProgram();
  std::string Path = tempPath("attack_foreign.ckpt");
  EngineConfig First = makeEngine(17, 18, 6);
  First.CheckpointFile = Path;
  First.MaxBatches = 1;
  AttackEngine(Program, edgcfConfig(), First).run();

  EngineConfig Other = First;
  Other.Seed = 99; // Different plan, same checkpoint file.
  EXPECT_DEATH(AttackEngine(Program, edgcfConfig(), Other).run(),
               "belongs to a different attack campaign");
  std::remove(Path.c_str());
}

// tests/fixtures/attack_checkpoint_shard1of2.json was written, one batch
// into shard 1/2 of makeEngine(17, 18, 3), by the engine that kept a
// separate attack loop. Its cursor counts shard slots; the global-cursor
// loop must continue it to the uninterrupted shard's registry.
TEST(AttackTest, EarlierFormatShardCheckpointResumesToReference) {
  AsmProgram Program = allFamiliesProgram();
  EngineConfig Shard1 = makeEngine(17, 18, 3);
  Shard1.ShardIndex = 1;
  Shard1.NumShards = 2;
  AttackEngineReport Uncut =
      AttackEngine(Program, edgcfConfig(), Shard1).run();

  std::string Path = tempPath("attack_fixture.ckpt");
  {
    std::ifstream In(std::string(CFED_TEST_FIXTURE_DIR) +
                     "/attack_checkpoint_shard1of2.json");
    ASSERT_TRUE(In.is_open());
    std::ofstream Out(Path);
    Out << In.rdbuf();
  }
  EngineConfig Resume = Shard1;
  Resume.CheckpointFile = Path;
  AttackEngineReport Resumed =
      AttackEngine(Program, edgcfConfig(), Resume).run();
  EXPECT_TRUE(Resumed.Resumed);
  EXPECT_TRUE(Resumed.Finished);
  EXPECT_EQ(Resumed.Completed, Uncut.Completed);
  EXPECT_EQ(AttackEngine::resultToJson(Resumed, Shard1),
            AttackEngine::resultToJson(Uncut, Shard1));
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// One EngineConfig for both kinds: recovery, evasion bundles, refusals
//===----------------------------------------------------------------------===//

TEST(AttackTest, EngineRecoveryEqualsInProcessRunWithRecovery) {
  AsmProgram Program = allFamiliesProgram();
  RecoveryConfig Recovery;
  Recovery.CheckpointInterval = 50;
  EngineConfig Engine = makeEngine(17, 18, 5);
  Engine.Recovery = &Recovery;
  AttackEngineReport Report =
      AttackEngine(Program, edgcfConfig(true), Engine).run();

  AttackCampaign Campaign(Program, edgcfConfig(true));
  ASSERT_TRUE(Campaign.prepare(Engine.MaxInsns));
  AttackResult Result = Campaign.runWithRecovery(18, 17, Recovery, 2);
  EXPECT_EQ(Result.Attacks, 18u);
  EXPECT_TRUE(Result == Report.Result);
  EXPECT_EQ(Campaign.metrics().snapshot().toJson(), Report.Registry.toJson());
  EXPECT_NE(AttackEngine::resultToJson(Report, Engine).find(
                "\"model\":\"attack\",\"recovery\":true"),
            std::string::npos);
}

TEST(AttackTest, EngineWritesEvasionBundlesUnderRecovery) {
  AsmProgram Program = allFamiliesProgram();
  RecoveryConfig Recovery;
  Recovery.CheckpointInterval = 50;
  std::string Dir = tempPath("engine_evasions");
  telemetry::FlightRecorder Recorder(Dir, 64);
  EngineConfig Engine = makeEngine(17, 18, 5);
  Engine.Jobs = 2;
  Engine.Recovery = &Recovery;
  Engine.Recorder = &Recorder;
  AttackEngineReport Report =
      AttackEngine(Program, edgcfConfig(false), Engine).run();
  uint64_t Undetected = Report.Result.totals().undetected();
  ASSERT_GT(Undetected, 0u);
  EXPECT_EQ(Recorder.bundleCount(), Undetected)
      << "one proof bundle per Evaded/Timeout attack";
  std::ifstream In(Recorder.lastPath());
  ASSERT_TRUE(In.is_open()) << Recorder.lastPath();
  std::string Text((std::istreambuf_iterator<char>(In)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(Text.find("attack-evasion"), std::string::npos);
}

TEST(AttackDeathTest, FaultOnlyFieldsAreRefused) {
  AsmProgram Program = allFamiliesProgram();
  const std::function<void(EngineConfig &)> Edits[] = {
      [](EngineConfig &E) { E.StopHalfWidth = 0.1; },
      [](EngineConfig &E) { E.TrackPropagation = true; },
      [](EngineConfig &E) { E.GoldenTraceFile = "golden.trace"; },
      [](EngineConfig &E) { E.Sites = SiteClass::OriginalOnly; },
      [](EngineConfig &E) { E.Model = FaultModel::Burst; },
  };
  for (const auto &Edit : Edits) {
    EngineConfig Engine = makeEngine(17, 18, 6);
    Edit(Engine);
    EXPECT_DEATH(AttackEngine(Program, edgcfConfig(), Engine),
                 "attack campaigns take no early stopping");
  }
}
