//===- CampaignEngineTest.cpp - Campaign engine v2 tests ------------------------===//
//
// Checkpoint/resume determinism, crash torture, sharded merging, and
// early-stopping interval soundness for the resumable campaign engine.
//
//===----------------------------------------------------------------------===//

#include "fault/CampaignEngine.h"
#include "support/Json.h"
#include "support/Prng.h"
#include "support/Stats.h"
#include "telemetry/FlightRecorder.h"
#include "telemetry/LiveExport.h"
#include "telemetry/Metrics.h"
#include "telemetry/Trace.h"
#include "workloads/RandomProgram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace cfed;

namespace {

AsmProgram makeProgram(uint64_t Seed = 11) {
  RandomProgramOptions Options;
  Options.Seed = Seed;
  Options.NumSegments = 6;
  Options.LoopTrip = 8;
  AsmResult Result = assembleProgram(generateRandomProgram(Options));
  EXPECT_TRUE(Result.succeeded()) << Result.errorText();
  return std::move(Result.Program);
}

DbtConfig makeDbtConfig() {
  DbtConfig Config;
  Config.Tech = Technique::EdgCf;
  Config.Flavor = UpdateFlavor::CMovcc;
  return Config;
}

EngineConfig makeEngine(uint64_t Seed, uint64_t NumInjections,
                        uint64_t Interval) {
  EngineConfig Engine;
  Engine.NumInjections = NumInjections;
  Engine.Seed = Seed;
  Engine.CheckpointInterval = Interval;
  Engine.Jobs = 1;
  return Engine;
}

/// Per-test scratch path under gtest's temp dir; removed up front so a
/// stale file from a previous run can never leak into a fresh campaign.
std::string tempPath(const std::string &Name) {
  std::string Path = ::testing::TempDir() + "cfed_engine_" +
                     std::to_string(::getpid()) + "_" + Name;
  std::remove(Path.c_str());
  return Path;
}

void writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Text;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.is_open()) << Path;
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

} // namespace

//===----------------------------------------------------------------------===//
// Basic runs and jobs-invariance
//===----------------------------------------------------------------------===//

TEST(CampaignEngineTest, RunCompletesAndAccountsEverySlot) {
  AsmProgram Program = makeProgram();
  EngineReport Report =
      CampaignEngine(Program, makeDbtConfig(), makeEngine(101, 40, 8)).run();
  EXPECT_TRUE(Report.Finished);
  EXPECT_FALSE(Report.Resumed);
  EXPECT_EQ(Report.Planned, 40u);
  EXPECT_EQ(Report.Skipped, 0u);
  EXPECT_EQ(Report.Completed, 40u);
  EXPECT_EQ(Report.Registry.counterOr("fault.injections"), 40u);
  // The tallies the report exposes are rebuilt from the registry, so the
  // two can never disagree.
  EXPECT_EQ(Report.Result.totals().total(), 40u);
}

TEST(CampaignEngineTest, JobCountDoesNotChangeResults) {
  AsmProgram Program = makeProgram();
  EngineConfig E1 = makeEngine(101, 40, 8);
  EngineConfig E3 = E1;
  E3.Jobs = 3;
  EngineReport R1 = CampaignEngine(Program, makeDbtConfig(), E1).run();
  EngineReport R3 = CampaignEngine(Program, makeDbtConfig(), E3).run();
  EXPECT_EQ(R1.Registry, R3.Registry);
  EXPECT_EQ(R1.Registry.toJson(), R3.Registry.toJson());
}

TEST(CampaignEngineTest, LatencyHistogramsRecordDetections) {
  AsmProgram Program = makeProgram();
  EngineReport Report =
      CampaignEngine(Program, makeDbtConfig(), makeEngine(101, 40, 8)).run();
  uint64_t Detected = 0, LatencyCount = 0;
  for (const CellReport &Cell : Report.Cells)
    Detected += Cell.Counts.DetectedSig + Cell.Counts.DetectedHw;
  for (const auto &Entry : Report.Registry.Histograms)
    if (Entry.first.rfind("fault.latency.", 0) == 0)
      LatencyCount += Entry.second.Count;
  ASSERT_GT(Detected, 0u);
  EXPECT_EQ(LatencyCount, Detected);
}

TEST(CampaignEngineTest, InProcessRunEqualsUnshardedEngine) {
  // FaultCampaign::run is the engine's batch loop over one
  // checkpoint-free batch: for the same injections, seed and sites its
  // registry equals the unsharded engine's, propagation tallies included.
  AsmProgram Program = makeProgram();
  for (bool Prop : {false, true})
    for (SiteClass Sites : {SiteClass::Any, SiteClass::OriginalOnly}) {
      SCOPED_TRACE(::testing::Message() << "prop " << Prop << " sites "
                                        << static_cast<int>(Sites));
      EngineConfig Engine = makeEngine(23, 40, 7);
      Engine.Sites = Sites;
      Engine.TrackPropagation = Prop;
      EngineReport Report =
          CampaignEngine(Program, makeDbtConfig(), Engine).run();

      FaultCampaign Campaign(Program, makeDbtConfig());
      Campaign.enablePropagation(Prop);
      ASSERT_TRUE(Campaign.prepare(Engine.MaxInsns));
      CampaignResult Result = Campaign.run(40, 23, Sites, /*Jobs=*/3);
      EXPECT_EQ(Result.Injections, 40u);
      EXPECT_TRUE(Result == Report.Result);
      EXPECT_EQ(Campaign.metrics().snapshot().toJson(),
                Report.Registry.toJson());
      EXPECT_EQ(Prop, Report.Registry.counterOr(getPropagationCounterName(
                          BranchErrorCategory::F,
                          telemetry::PropClass::DetectedClean)) > 0);
    }
}

TEST(CampaignEngineTest, LatencyInstrumentNamesAndBounds) {
  EXPECT_EQ(CampaignEngine::getLatencyHistogramName(BranchErrorCategory::A),
            "fault.latency.cat_A");
  EXPECT_EQ(CampaignEngine::getLatencyHistogramName(BranchErrorCategory::F),
            "fault.latency.cat_F");
  std::vector<uint64_t> Bounds = CampaignEngine::latencyBounds();
  ASSERT_FALSE(Bounds.empty());
  EXPECT_EQ(Bounds.front(), 1u);
  EXPECT_EQ(Bounds.back(), uint64_t(1) << 20);
  for (size_t I = 1; I < Bounds.size(); ++I)
    EXPECT_EQ(Bounds[I], Bounds[I - 1] * 2);
}

//===----------------------------------------------------------------------===//
// Checkpoint round trip and corruption diagnostics
//===----------------------------------------------------------------------===//

namespace {

EngineCheckpoint sampleCheckpoint() {
  EngineCheckpoint Ckpt;
  Ckpt.Version = EngineCheckpointVersion;
  Ckpt.PlanHash = 0xDEADBEEFCAFE1234ULL;
  Ckpt.Shard = 1;
  Ckpt.NumShards = 3;
  Ckpt.Cursor = 17;
  Ckpt.Completed = 15;
  Ckpt.ReserveCursors[2] = 4;
  telemetry::MetricsRegistry Registry;
  Registry.counter("fault.injections").inc(15);
  Registry.histogram("fault.latency.cat_D", {1, 2, 4}).observe(3);
  Ckpt.Registry = Registry.snapshot();
  return Ckpt;
}

} // namespace

TEST(CampaignEngineCheckpointTest, RoundTripPreservesEveryField) {
  std::string Path = tempPath("roundtrip.ckpt");
  EngineCheckpoint Ckpt = sampleCheckpoint();
  std::string Error;
  ASSERT_TRUE(CampaignEngine::writeCheckpoint(Path, Ckpt, Error)) << Error;
  // The temp file must not survive a successful rename.
  EXPECT_FALSE(std::ifstream(Path + ".tmp").is_open());

  EngineCheckpoint Loaded;
  ASSERT_EQ(CampaignEngine::loadCheckpoint(Path, Loaded, Error),
            CampaignEngine::LoadStatus::Ok)
      << Error;
  EXPECT_EQ(Loaded.Version, Ckpt.Version);
  EXPECT_EQ(Loaded.PlanHash, Ckpt.PlanHash);
  EXPECT_EQ(Loaded.Shard, Ckpt.Shard);
  EXPECT_EQ(Loaded.NumShards, Ckpt.NumShards);
  EXPECT_EQ(Loaded.Cursor, Ckpt.Cursor);
  EXPECT_EQ(Loaded.Completed, Ckpt.Completed);
  EXPECT_EQ(Loaded.ReserveCursors, Ckpt.ReserveCursors);
  EXPECT_EQ(Loaded.Registry, Ckpt.Registry);
  std::remove(Path.c_str());
}

TEST(CampaignEngineCheckpointTest, MissingFileIsAFreshCampaign) {
  EngineCheckpoint Out;
  std::string Error;
  EXPECT_EQ(CampaignEngine::loadCheckpoint(tempPath("nonexistent.ckpt"), Out,
                                           Error),
            CampaignEngine::LoadStatus::Missing);
}

TEST(CampaignEngineCheckpointTest, TruncatedCheckpointIsRejected) {
  std::string Path = tempPath("truncated.ckpt");
  std::string Error;
  ASSERT_TRUE(
      CampaignEngine::writeCheckpoint(Path, sampleCheckpoint(), Error));
  std::string Full = readFile(Path);
  writeFile(Path, Full.substr(0, Full.size() / 2));

  EngineCheckpoint Out;
  EXPECT_EQ(CampaignEngine::loadCheckpoint(Path, Out, Error),
            CampaignEngine::LoadStatus::Corrupt);
  EXPECT_NE(Error.find("truncated or not valid JSON"), std::string::npos)
      << Error;
  std::remove(Path.c_str());
}

TEST(CampaignEngineCheckpointTest, GarbageAndWrongKindAreRejected) {
  std::string Path = tempPath("garbage.ckpt");
  std::string Error;
  EngineCheckpoint Out;

  writeFile(Path, "not json at all");
  EXPECT_EQ(CampaignEngine::loadCheckpoint(Path, Out, Error),
            CampaignEngine::LoadStatus::Corrupt);

  writeFile(Path, "{\"kind\":\"something-else\"}");
  EXPECT_EQ(CampaignEngine::loadCheckpoint(Path, Out, Error),
            CampaignEngine::LoadStatus::Corrupt);
  EXPECT_NE(Error.find("not a campaign checkpoint"), std::string::npos)
      << Error;
  std::remove(Path.c_str());
}

TEST(CampaignEngineCheckpointTest, FutureVersionIsRejected) {
  std::string Path = tempPath("version.ckpt");
  EngineCheckpoint Ckpt = sampleCheckpoint();
  Ckpt.Version = EngineCheckpointVersion + 7;
  std::string Error;
  ASSERT_TRUE(CampaignEngine::writeCheckpoint(Path, Ckpt, Error));

  EngineCheckpoint Out;
  EXPECT_EQ(CampaignEngine::loadCheckpoint(Path, Out, Error),
            CampaignEngine::LoadStatus::Corrupt);
  EXPECT_NE(Error.find("version"), std::string::npos) << Error;
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Resume determinism
//===----------------------------------------------------------------------===//

TEST(CampaignEngineTest, InterruptedResumeMatchesUninterruptedRun) {
  AsmProgram Program = makeProgram();
  DbtConfig Config = makeDbtConfig();
  // Property over seeds and cut points: a run stopped after any batch
  // and resumed must finish byte-identical to the uninterrupted run.
  for (uint64_t Seed : {101u, 202u, 303u}) {
    EngineConfig Base = makeEngine(Seed, 40, 8);
    EngineReport Reference = CampaignEngine(Program, Config, Base).run();
    for (uint64_t Cut : {1u, 3u}) {
      std::string Path =
          tempPath("resume_" + std::to_string(Seed) + "_" +
                   std::to_string(Cut) + ".ckpt");
      EngineConfig Interrupted = Base;
      Interrupted.CheckpointFile = Path;
      Interrupted.MaxBatches = Cut;
      EngineReport Partial =
          CampaignEngine(Program, Config, Interrupted).run();
      EXPECT_FALSE(Partial.Finished);
      EXPECT_EQ(Partial.Completed, Cut * 8);

      EngineConfig Resume = Base;
      Resume.CheckpointFile = Path;
      EngineReport Resumed = CampaignEngine(Program, Config, Resume).run();
      EXPECT_TRUE(Resumed.Resumed);
      EXPECT_TRUE(Resumed.Finished);
      EXPECT_EQ(Resumed.Completed, Reference.Completed);
      EXPECT_EQ(Resumed.Registry, Reference.Registry)
          << "seed " << Seed << " cut " << Cut;
      EXPECT_EQ(Resumed.Registry.toJson(), Reference.Registry.toJson());
      std::remove(Path.c_str());
    }
  }
}

TEST(CampaignEngineTortureTest, SigkillMidCampaignResumesIdentically) {
  AsmProgram Program = makeProgram();
  DbtConfig Config = makeDbtConfig();
  EngineConfig Base = makeEngine(707, 48, 4);
  EngineReport Reference = CampaignEngine(Program, Config, Base).run();

  std::string Path = tempPath("torture.ckpt");
  int Pipe[2];
  ASSERT_EQ(pipe(Pipe), 0);
  pid_t Child = fork();
  ASSERT_GE(Child, 0);
  if (Child == 0) {
    close(Pipe[0]);
    EngineConfig Victim = Base;
    Victim.CheckpointFile = Path;
    Victim.OnCheckpoint = [&](uint64_t) {
      char Byte = 'c';
      ssize_t Unused = write(Pipe[1], &Byte, 1);
      (void)Unused;
      // Widen the window so the parent's SIGKILL lands mid-campaign —
      // anywhere, including during a later checkpoint write.
      usleep(20000);
    };
    CampaignEngine(Program, Config, Victim).run();
    _exit(0);
  }
  close(Pipe[1]);
  char Byte;
  ASSERT_EQ(read(Pipe[0], &Byte, 1), 1); // >= 1 checkpoint is on disk
  ASSERT_EQ(kill(Child, SIGKILL), 0);
  int Status = 0;
  ASSERT_EQ(waitpid(Child, &Status, 0), Child);
  close(Pipe[0]);

  // Atomic write + rename: whenever the kill landed, the file must load
  // as a structurally valid checkpoint — never a torn one.
  EngineCheckpoint Ckpt;
  std::string Error;
  ASSERT_EQ(CampaignEngine::loadCheckpoint(Path, Ckpt, Error),
            CampaignEngine::LoadStatus::Ok)
      << Error;
  EXPECT_LE(Ckpt.Cursor, 48u);

  EngineConfig Resume = Base;
  Resume.CheckpointFile = Path;
  EngineReport Resumed = CampaignEngine(Program, Config, Resume).run();
  EXPECT_TRUE(Resumed.Finished);
  EXPECT_EQ(Resumed.Completed, Reference.Completed);
  EXPECT_EQ(Resumed.Registry, Reference.Registry);
  EXPECT_EQ(Resumed.Registry.toJson(), Reference.Registry.toJson());
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Fatal misuse (death tests)
//===----------------------------------------------------------------------===//

TEST(CampaignEngineDeathTest, ForeignCheckpointIsRefused) {
  AsmProgram Program = makeProgram();
  DbtConfig Config = makeDbtConfig();
  std::string Path = tempPath("foreign.ckpt");
  EngineConfig First = makeEngine(101, 40, 8);
  First.CheckpointFile = Path;
  First.MaxBatches = 1;
  CampaignEngine(Program, Config, First).run();

  EngineConfig Other = First;
  Other.Seed = 999; // Different plan, same checkpoint file.
  EXPECT_DEATH(CampaignEngine(Program, Config, Other).run(),
               "belongs to a different campaign");
  std::remove(Path.c_str());
}

TEST(CampaignEngineDeathTest, CorruptCheckpointIsFatalWithDiagnostic) {
  AsmProgram Program = makeProgram();
  std::string Path = tempPath("fatal.ckpt");
  writeFile(Path, "{\"kind\":\"cfed-campaign-checkpoint\",\"vers");
  EngineConfig Engine = makeEngine(101, 40, 8);
  Engine.CheckpointFile = Path;
  EXPECT_DEATH(CampaignEngine(Program, makeDbtConfig(), Engine).run(),
               "delete the file to restart the campaign");
  std::remove(Path.c_str());
}

TEST(CampaignEngineDeathTest, EarlyStoppingCannotBeSharded) {
  AsmProgram Program = makeProgram();
  EngineConfig Engine = makeEngine(101, 40, 8);
  Engine.NumShards = 2;
  Engine.StopHalfWidth = 0.1;
  EXPECT_DEATH(CampaignEngine(Program, makeDbtConfig(), Engine),
               "early stopping cannot be combined with sharding");
}

TEST(CampaignEngineDeathTest, InvalidShardSpecIsRefused) {
  AsmProgram Program = makeProgram();
  EngineConfig Engine = makeEngine(101, 40, 8);
  Engine.ShardIndex = 2;
  Engine.NumShards = 2;
  EXPECT_DEATH(CampaignEngine(Program, makeDbtConfig(), Engine),
               "invalid shard spec");
}

//===----------------------------------------------------------------------===//
// Sharding and merging
//===----------------------------------------------------------------------===//

TEST(CampaignEngineTest, ShardMergeReproducesUnshardedRun) {
  AsmProgram Program = makeProgram();
  DbtConfig Config = makeDbtConfig();
  EngineConfig Base = makeEngine(404, 40, 8);
  EngineReport Reference = CampaignEngine(Program, Config, Base).run();

  // Shards run with different job counts: the merge must be invariant
  // to both the shard split and each shard's parallelism.
  std::vector<ShardResult> Shards;
  for (unsigned Shard = 0; Shard < 2; ++Shard) {
    EngineConfig Sharded = Base;
    Sharded.ShardIndex = Shard;
    Sharded.NumShards = 2;
    Sharded.Jobs = Shard ? 3 : 1;
    EngineReport Part = CampaignEngine(Program, Config, Sharded).run();
    std::string Json = CampaignEngine::resultToJson(Part, Sharded);
    ShardResult Parsed;
    std::string Error;
    ASSERT_TRUE(CampaignEngine::parseShardResult(Json, Parsed, Error))
        << Error;
    EXPECT_EQ(Parsed.Shard, Shard);
    EXPECT_EQ(Parsed.Completed, Part.Completed);
    Shards.push_back(std::move(Parsed));
  }

  ShardResult Merged;
  std::string Error;
  ASSERT_TRUE(CampaignEngine::mergeShards(Shards, Merged, Error)) << Error;
  EXPECT_EQ(Merged.Completed, Reference.Completed);
  EXPECT_EQ(Merged.Registry, Reference.Registry);
  EXPECT_EQ(Merged.Registry.toJson(), Reference.Registry.toJson());
}

TEST(CampaignEngineTest, MergeRejectsDuplicateAndMismatchedShards) {
  ShardResult A;
  A.Shard = 0;
  A.NumShards = 2;
  A.Seed = 7;
  ShardResult B = A;
  std::string Error;
  ShardResult Out;
  // Duplicate shard index.
  EXPECT_FALSE(CampaignEngine::mergeShards({A, B}, Out, Error));
  EXPECT_FALSE(Error.empty());
  // Mismatched seed.
  B.Shard = 1;
  B.Seed = 8;
  EXPECT_FALSE(CampaignEngine::mergeShards({A, B}, Out, Error));
  // A valid pair merges.
  B.Seed = 7;
  EXPECT_TRUE(CampaignEngine::mergeShards({A, B}, Out, Error)) << Error;
}

//===----------------------------------------------------------------------===//
// Early stopping
//===----------------------------------------------------------------------===//

TEST(CampaignEngineTest, EarlyStoppingAccountsSkippedSlots) {
  AsmProgram Program = makeProgram();
  DbtConfig Config = makeDbtConfig();
  EngineConfig Stopping = makeEngine(505, 160, 16);
  Stopping.StopHalfWidth = 0.12;
  EngineReport Report = CampaignEngine(Program, Config, Stopping).run();
  EXPECT_TRUE(Report.Finished);

  uint64_t StoppedCells = 0, SkippedCounters = 0;
  for (const CellReport &Cell : Report.Cells) {
    if (!Cell.Stopped)
      continue;
    ++StoppedCells;
    // A closed cell must actually have reached the requested precision.
    EXPECT_LE(Cell.Interval.halfWidth(), Stopping.StopHalfWidth);
    EXPECT_GT(Cell.Counts.total(), 0u);
  }
  for (const auto &Entry : Report.Registry.Counters)
    if (Entry.first.rfind("fault.engine.skipped.", 0) == 0)
      SkippedCounters += Entry.second;
  // This seed/width closes at least one cell, and every skipped slot is
  // visible in the telemetry — no silent truncation.
  ASSERT_GT(StoppedCells, 0u);
  EXPECT_GT(Report.Skipped, 0u);
  EXPECT_EQ(SkippedCounters, Report.Skipped);
  EXPECT_EQ(Report.Registry.counterOr("fault.injections"),
            Report.Completed);
}

TEST(CampaignEngineTest, StoppedCellIntervalsCoverTheLongRunRate) {
  AsmProgram Program = makeProgram();
  DbtConfig Config = makeDbtConfig();
  // Reference: the same plan run to a 3x larger budget with no
  // stopping — its per-cell SDC rate stands in for the true rate.
  EngineConfig Long = makeEngine(505, 480, 32);
  EngineReport Truth = CampaignEngine(Program, Config, Long).run();

  EngineConfig Stopping = makeEngine(505, 160, 16);
  Stopping.StopHalfWidth = 0.12;
  EngineReport Report = CampaignEngine(Program, Config, Stopping).run();

  for (const CellReport &Cell : Report.Cells) {
    if (!Cell.Stopped)
      continue;
    const OutcomeCounts &Ref =
        Truth.Result.of(Cell.Category);
    if (Ref.total() < 30)
      continue; // Too few reference samples to call it the true rate.
    double TrueRate = double(Ref.Sdc) / double(Ref.total());
    EXPECT_TRUE(Cell.Interval.contains(TrueRate))
        << "cat " << getCategoryName(Cell.Category)
        << ": stopped interval [" << Cell.Interval.Low << ", "
        << Cell.Interval.High << "] excludes long-run rate " << TrueRate;
  }
}

TEST(CampaignEngineTest, WilsonIntervalCoversTrueRateAtNominalLevel) {
  // Direct coverage property of the stopping rule's interval: simulate
  // Bernoulli(P) samples at the trial counts early stopping decides on
  // and count how often the 95% interval misses P. Deterministic seeds;
  // the expected miss rate is 5%, so 200 trials allow a wide margin.
  for (double P : {0.1, 0.35, 0.7}) {
    unsigned Misses = 0;
    const unsigned Trials = 200, Draws = 150;
    for (unsigned T = 0; T < Trials; ++T) {
      Prng Rng(9000 + T);
      uint64_t Successes = 0;
      for (unsigned D = 0; D < Draws; ++D)
        if (Rng.nextBelow(1000) < uint64_t(P * 1000))
          ++Successes;
      if (!wilsonInterval(Successes, Draws, 1.96).contains(P))
        ++Misses;
    }
    EXPECT_LE(Misses, Trials / 10)
        << "P=" << P << ": " << Misses << "/" << Trials
        << " intervals missed the true rate";
  }
}

//===----------------------------------------------------------------------===//
// Result files
//===----------------------------------------------------------------------===//

TEST(CampaignEngineTest, ResultFileRoundTrips) {
  AsmProgram Program = makeProgram();
  EngineConfig Engine = makeEngine(606, 24, 8);
  EngineReport Report =
      CampaignEngine(Program, makeDbtConfig(), Engine).run();
  std::string Json = CampaignEngine::resultToJson(Report, Engine);

  ShardResult Parsed;
  std::string Error;
  ASSERT_TRUE(CampaignEngine::parseShardResult(Json, Parsed, Error))
      << Error;
  EXPECT_EQ(Parsed.Shard, 0u);
  EXPECT_EQ(Parsed.NumShards, 1u);
  EXPECT_EQ(Parsed.Seed, 606u);
  EXPECT_EQ(Parsed.Completed, Report.Completed);
  EXPECT_EQ(Parsed.Skipped, Report.Skipped);
  EXPECT_TRUE(Parsed.Finished);
  EXPECT_EQ(Parsed.Registry, Report.Registry);

  EXPECT_FALSE(CampaignEngine::parseShardResult("[]", Parsed, Error));
  EXPECT_FALSE(
      CampaignEngine::parseShardResult("{\"kind\":\"x\"}", Parsed, Error));
}

TEST(CampaignEngineTest, ParseShardResultRefusesLiveSnapshots) {
  ShardResult Out;
  std::string Error;
  EXPECT_FALSE(CampaignEngine::parseShardResult(
      "{\"kind\":\"cfed-live-snapshot\",\"version\":1,\"seq\":3}", Out,
      Error));
  EXPECT_NE(Error.find("live telemetry snapshot"), std::string::npos)
      << Error;
  // Even under a plausible kind, seq/heartbeat markers flag in-flight
  // data; a partial snapshot must never fold into a final merge.
  EXPECT_FALSE(CampaignEngine::parseShardResult(
      "{\"kind\":\"cfed-campaign-result\",\"heartbeat\":{}}", Out, Error));
  EXPECT_NE(Error.find("live telemetry snapshot"), std::string::npos)
      << Error;
}

//===----------------------------------------------------------------------===//
// Live export and checkpoint-format refusals
//===----------------------------------------------------------------------===//

TEST(CampaignEngineTest, InlineLiveExportPublishesEngineHeartbeat) {
  AsmProgram Program = makeProgram();
  // Unsharded, and shard 1 of 2, which owns 20 of the 40 slots.
  for (unsigned NumShards : {1u, 2u}) {
    SCOPED_TRACE(NumShards);
    std::string Path = tempPath("inline.live.json");
    EngineConfig Engine = makeEngine(101, 40, 8);
    Engine.ShardIndex = NumShards - 1;
    Engine.NumShards = NumShards;
    Engine.LiveExportFile = Path;
    EngineReport Report =
        CampaignEngine(Program, makeDbtConfig(), Engine).run();
    EXPECT_TRUE(Report.Finished);

    std::string Text = readFile(Path);
    json::JsonValue Root;
    json::JsonParser Parser(Text);
    ASSERT_TRUE(Parser.parse(Root)) << Text;
    telemetry::LiveSnapshot Snap;
    std::string Error;
    ASSERT_TRUE(telemetry::liveSnapshotFromJson(Root, Snap, Error)) << Error;
    EXPECT_EQ(Snap.RunId, "campaign-101");
    EXPECT_TRUE(Snap.Beat.Present);
    EXPECT_EQ(Snap.Beat.Shard, NumShards - 1);
    EXPECT_EQ(Snap.Beat.NumShards, NumShards);
    // The cursor and the plan count the shard's own slots.
    EXPECT_EQ(Snap.Beat.Cursor, 40u / NumShards);
    EXPECT_EQ(Snap.Beat.Planned, 40u / NumShards);
    EXPECT_EQ(Snap.Beat.Completed, Report.Completed);
    // One publish per batch boundary of 8 owned slots: 40 / 8 unsharded,
    // 20 / 8 rounded up for the shard.
    EXPECT_EQ(Snap.Seq, NumShards == 1 ? 5u : 3u);
    // The final snapshot's registry is the run's cumulative registry.
    EXPECT_EQ(Snap.Registry, Report.Registry);
    std::remove(Path.c_str());
  }
}

// Lockstep (coordinated) sharded runs of earlier builds marked their
// checkpoints "coordinated":true; their cursor counts global slots, not
// owned ones, so resuming one as a plain shard would skip or repeat
// slots.
TEST(CampaignEngineDeathTest, CoordinatedCheckpointIsRefused) {
  AsmProgram Program = makeProgram();
  std::string Text = readFile(std::string(CFED_TEST_FIXTURE_DIR) +
                              "/fault_checkpoint_shard1of2.json");
  const std::string Plain = "\"coordinated\":false";
  size_t At = Text.find(Plain);
  ASSERT_NE(At, std::string::npos);
  std::string Path = tempPath("coordinated_shard1of2.ckpt");
  writeFile(Path, Text.replace(At, Plain.size(), "\"coordinated\":true"));
  EngineConfig Resume = makeEngine(404, 40, 8);
  Resume.ShardIndex = 1;
  Resume.NumShards = 2;
  Resume.CheckpointFile = Path;
  EXPECT_DEATH(CampaignEngine(Program, makeDbtConfig(), Resume).run(),
               "written by a coordinated sharded run");
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// One batch loop: plain-shard resume and checkpoint-format compatibility
//===----------------------------------------------------------------------===//

namespace {

/// Runs shard 0 of \p Base and merges it with \p Shard1 (a shard-1/2
/// report of the same campaign).
ShardResult mergeWithShard0(const AsmProgram &Program,
                            const EngineConfig &Base,
                            const EngineReport &Shard1) {
  std::vector<ShardResult> Shards(2);
  for (unsigned S = 0; S < 2; ++S) {
    EngineConfig E = Base;
    E.ShardIndex = S;
    E.NumShards = 2;
    EngineReport Part =
        S ? Shard1 : CampaignEngine(Program, makeDbtConfig(), E).run();
    std::string Error;
    EXPECT_TRUE(CampaignEngine::parseShardResult(
        CampaignEngine::resultToJson(Part, E), Shards[S], Error))
        << Error;
  }
  ShardResult Merged;
  std::string Error;
  EXPECT_TRUE(CampaignEngine::mergeShards(Shards, Merged, Error)) << Error;
  return Merged;
}

} // namespace

TEST(CampaignEngineTest, PlainShardCutAfterOneBatchResumesIdentically) {
  AsmProgram Program = makeProgram();
  DbtConfig Config = makeDbtConfig();
  EngineConfig Base = makeEngine(404, 40, 8);
  EngineReport Reference = CampaignEngine(Program, Config, Base).run();
  EngineConfig Shard1 = Base;
  Shard1.ShardIndex = 1;
  Shard1.NumShards = 2;
  EngineReport Uncut = CampaignEngine(Program, Config, Shard1).run();

  // Shard 1 owns 20 of the 40 slots: one batch is 8 of them.
  std::string Path = tempPath("plain_shard_cut.ckpt");
  EngineConfig Cut = Shard1;
  Cut.CheckpointFile = Path;
  Cut.MaxBatches = 1;
  EngineReport Partial = CampaignEngine(Program, Config, Cut).run();
  EXPECT_FALSE(Partial.Finished);
  EXPECT_EQ(Partial.Completed, 8u);
  EngineCheckpoint Ckpt;
  std::string Error;
  ASSERT_EQ(CampaignEngine::loadCheckpoint(Path, Ckpt, Error),
            CampaignEngine::LoadStatus::Ok)
      << Error;
  // Plain checkpoints keep counting this shard's own slots, and keep
  // the format's constant lockstep flag.
  EXPECT_EQ(Ckpt.Cursor, 8u);
  EXPECT_NE(readFile(Path).find("\"coordinated\":false"), std::string::npos);

  EngineConfig Resume = Shard1;
  Resume.CheckpointFile = Path;
  EngineReport Resumed = CampaignEngine(Program, Config, Resume).run();
  EXPECT_TRUE(Resumed.Resumed);
  EXPECT_TRUE(Resumed.Finished);
  EXPECT_EQ(Resumed.Planned, Uncut.Planned);
  EXPECT_EQ(Resumed.Completed, Uncut.Completed);
  EXPECT_EQ(Resumed.Registry.toJson(), Uncut.Registry.toJson());
  EXPECT_EQ(CampaignEngine::resultToJson(Resumed, Shard1),
            CampaignEngine::resultToJson(Uncut, Shard1));

  ShardResult Merged = mergeWithShard0(Program, Base, Resumed);
  EXPECT_EQ(Merged.Completed, Reference.Completed);
  EXPECT_EQ(Merged.Registry.toJson(), Reference.Registry.toJson());
  std::remove(Path.c_str());
}

// tests/fixtures/fault_checkpoint_shard1of2.json was written, one batch
// into shard 1/2 of makeEngine(404, 40, 8) on makeProgram(), by the
// engine that kept a separate loop per mode. Its cursor counts shard
// slots; the global-cursor loop must continue it to the same registry.
TEST(CampaignEngineTest, EarlierFormatShardCheckpointResumesToReference) {
  AsmProgram Program = makeProgram();
  DbtConfig Config = makeDbtConfig();
  EngineConfig Base = makeEngine(404, 40, 8);
  EngineReport Reference = CampaignEngine(Program, Config, Base).run();
  EngineConfig Shard1 = Base;
  Shard1.ShardIndex = 1;
  Shard1.NumShards = 2;
  EngineReport Uncut = CampaignEngine(Program, Config, Shard1).run();

  std::string Path = tempPath("fixture_shard1of2.ckpt");
  writeFile(Path, readFile(std::string(CFED_TEST_FIXTURE_DIR) +
                           "/fault_checkpoint_shard1of2.json"));
  EngineConfig Resume = Shard1;
  Resume.CheckpointFile = Path;
  EngineReport Resumed = CampaignEngine(Program, Config, Resume).run();
  EXPECT_TRUE(Resumed.Resumed);
  EXPECT_TRUE(Resumed.Finished);
  EXPECT_EQ(Resumed.Completed, Uncut.Completed);
  EXPECT_EQ(Resumed.Registry.toJson(), Uncut.Registry.toJson());
  ShardResult Merged = mergeWithShard0(Program, Base, Resumed);
  EXPECT_EQ(Merged.Registry.toJson(), Reference.Registry.toJson());
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Hostile numbers in result and checkpoint files
//===----------------------------------------------------------------------===//

namespace {

std::string resultWith(const std::string &Fields) {
  return "{\"kind\":\"cfed-campaign-result\"," + Fields +
         ",\"registry\":{\"counters\":{},\"gauges\":{},\"histograms\":{}}}";
}

const char *ValidResultFields =
    "\"version\":1,\"shard\":1,\"num_shards\":2,\"seed\":7,"
    "\"completed\":3,\"skipped\":0";

} // namespace

TEST(CampaignEngineTest, ParseShardResultRejectsHostileNumbers) {
  ShardResult Out;
  std::string Error;
  ASSERT_TRUE(CampaignEngine::parseShardResult(
      resultWith(ValidResultFields), Out, Error))
      << Error;

  const char *Hostile[] = {
      // Negative shard spec: used to wrap to a 4294967295-shard campaign.
      "\"version\":1,\"shard\":-3,\"num_shards\":-1,\"seed\":7,"
      "\"completed\":0,\"skipped\":0",
      "\"version\":1,\"shard\":0,\"num_shards\":0,\"seed\":7,"
      "\"completed\":0,\"skipped\":0",
      "\"version\":1,\"shard\":2,\"num_shards\":2,\"seed\":7,"
      "\"completed\":0,\"skipped\":0",
      "\"version\":1,\"shard\":0,\"num_shards\":4294967296,\"seed\":7,"
      "\"completed\":0,\"skipped\":0",
      "\"version\":1,\"shard\":0.5,\"num_shards\":2,\"seed\":7,"
      "\"completed\":0,\"skipped\":0",
      "\"version\":1,\"shard\":\"0\",\"num_shards\":2,\"seed\":7,"
      "\"completed\":0,\"skipped\":0",
      "\"version\":1,\"shard\":0,\"num_shards\":2,\"seed\":-7,"
      "\"completed\":0,\"skipped\":0",
      "\"version\":1,\"shard\":0,\"num_shards\":2,\"seed\":18446744073709551616,"
      "\"completed\":0,\"skipped\":0",
      "\"version\":1,\"shard\":0,\"num_shards\":2,\"seed\":7,"
      "\"completed\":1e3,\"skipped\":0",
      "\"version\":1,\"shard\":0,\"num_shards\":2,\"seed\":7,"
      "\"completed\":3,\"skipped\":true",
      "\"version\":2,\"shard\":0,\"num_shards\":2,\"seed\":7,"
      "\"completed\":0,\"skipped\":0",
      "\"shard\":0,\"num_shards\":2,\"seed\":7,\"completed\":0,\"skipped\":0",
  };
  for (const char *Fields : Hostile) {
    Error.clear();
    EXPECT_FALSE(
        CampaignEngine::parseShardResult(resultWith(Fields), Out, Error))
        << Fields;
    EXPECT_FALSE(Error.empty()) << Fields;
  }
}

TEST(CampaignEngineTest, SeedsAbove2Pow53StayDistinct) {
  // 2^53 + 1 rounds to 2^53 through a double; read exactly, the two
  // shards are slices of different campaigns and must not merge.
  ShardResult A, B, Out;
  std::string Error;
  ASSERT_TRUE(CampaignEngine::parseShardResult(
      resultWith("\"version\":1,\"shard\":0,\"num_shards\":2,"
                 "\"seed\":9007199254740993,\"completed\":0,\"skipped\":0"),
      A, Error))
      << Error;
  ASSERT_TRUE(CampaignEngine::parseShardResult(
      resultWith("\"version\":1,\"shard\":1,\"num_shards\":2,"
                 "\"seed\":9007199254740992,\"completed\":0,\"skipped\":0"),
      B, Error))
      << Error;
  EXPECT_EQ(A.Seed, 9007199254740993ULL);
  EXPECT_EQ(B.Seed, 9007199254740992ULL);
  EXPECT_FALSE(CampaignEngine::mergeShards({A, B}, Out, Error));
}

TEST(CampaignEngineTest, MergeDoesNotSizeStateByTheShardCount) {
  // A (programmatic) shard result claiming the largest shard count
  // merges without allocating per-shard state.
  ShardResult A;
  A.Shard = 4000000000u;
  A.NumShards = 4294967295u;
  A.Seed = 7;
  ShardResult Out;
  std::string Error;
  EXPECT_TRUE(CampaignEngine::mergeShards({A}, Out, Error)) << Error;
  EXPECT_EQ(Out.NumShards, 4294967295u);
}

TEST(CampaignEngineCheckpointTest, HostileNumbersAreRejected) {
  std::string Path = tempPath("hostile.ckpt");
  std::string Error;
  ASSERT_TRUE(
      CampaignEngine::writeCheckpoint(Path, sampleCheckpoint(), Error));
  const std::string Good = readFile(Path);
  auto Replace = [&](const std::string &From, const std::string &To) {
    std::string Text = Good;
    size_t At = Text.find(From);
    EXPECT_NE(At, std::string::npos) << From;
    return Text.replace(At, From.size(), To);
  };
  const std::pair<const char *, const char *> Edits[] = {
      {"\"cursor\":17", "\"cursor\":-1"},
      {"\"cursor\":17", "\"cursor\":17.5"},
      {"\"cursor\":17", "\"cursor\":18446744073709551616"},
      {"\"completed\":15", "\"completed\":\"15\""},
      {"\"version\":1", "\"version\":1.0"},
      {"\"shard\":1", "\"shard\":3"},
      {"\"num_shards\":3", "\"num_shards\":0"},
      {"\"num_shards\":3", "\"num_shards\":-3"},
      {"[0,0,4,0,0,0,0]", "[0,0,-4,0,0,0,0]"},
      {"[0,0,4,0,0,0,0]", "[0,0,4e0,0,0,0,0]"},
  };
  for (const auto &[From, To] : Edits) {
    writeFile(Path, Replace(From, To));
    EngineCheckpoint Out;
    Error.clear();
    EXPECT_EQ(CampaignEngine::loadCheckpoint(Path, Out, Error),
              CampaignEngine::LoadStatus::Corrupt)
        << To;
    EXPECT_FALSE(Error.empty()) << To;
  }
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Recovery campaigns and per-run attachments
//===----------------------------------------------------------------------===//

namespace {

RecoveryConfig makeRecovery() {
  RecoveryConfig Recovery;
  Recovery.CheckpointInterval = 500;
  return Recovery;
}

std::vector<std::string> listDir(const std::string &Dir) {
  std::vector<std::string> Names;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir))
    Names.push_back(Entry.path().filename().string());
  std::sort(Names.begin(), Names.end());
  return Names;
}

} // namespace

TEST(CampaignEngineTest, RecoveryRunEqualsInProcessRunWithRecovery) {
  AsmProgram Program = makeProgram();
  RecoveryConfig Recovery = makeRecovery();
  EngineConfig Engine = makeEngine(23, 40, 7);
  Engine.Recovery = &Recovery;
  EngineReport Report = CampaignEngine(Program, makeDbtConfig(), Engine).run();

  FaultCampaign Campaign(Program, makeDbtConfig());
  ASSERT_TRUE(Campaign.prepare(Engine.MaxInsns));
  CampaignResult Result =
      Campaign.runWithRecovery(40, 23, SiteClass::Any, Recovery, /*Jobs=*/3);
  EXPECT_TRUE(Result == Report.Result);
  EXPECT_GT(Result.totals().Recovered, 0u);
  EXPECT_EQ(Campaign.metrics().snapshot().toJson(), Report.Registry.toJson());
}

TEST(CampaignEngineTest, RecoveryCampaignCutResumesIdentically) {
  AsmProgram Program = makeProgram();
  DbtConfig Config = makeDbtConfig();
  RecoveryConfig Recovery = makeRecovery();
  EngineConfig Base = makeEngine(101, 40, 8);
  Base.Recovery = &Recovery;
  EngineReport Reference = CampaignEngine(Program, Config, Base).run();

  std::string Path = tempPath("recovery_resume.ckpt");
  EngineConfig Interrupted = Base;
  Interrupted.CheckpointFile = Path;
  Interrupted.MaxBatches = 2;
  EXPECT_FALSE(CampaignEngine(Program, Config, Interrupted).run().Finished);

  EngineConfig Resume = Base;
  Resume.CheckpointFile = Path;
  Resume.Jobs = 3;
  EngineReport Resumed = CampaignEngine(Program, Config, Resume).run();
  EXPECT_TRUE(Resumed.Resumed);
  EXPECT_TRUE(Resumed.Finished);
  EXPECT_EQ(Resumed.Registry.toJson(), Reference.Registry.toJson());
  EXPECT_EQ(CampaignEngine::resultToJson(Resumed, Base),
            CampaignEngine::resultToJson(Reference, Base));
  std::remove(Path.c_str());
}

TEST(CampaignEngineTest, RecoveryShardMergeReproducesUnshardedRun) {
  AsmProgram Program = makeProgram();
  DbtConfig Config = makeDbtConfig();
  RecoveryConfig Recovery = makeRecovery();
  EngineConfig Base = makeEngine(404, 40, 8);
  Base.Recovery = &Recovery;
  EngineReport Reference = CampaignEngine(Program, Config, Base).run();
  std::string ReferenceJson = CampaignEngine::resultToJson(Reference, Base);
  EXPECT_NE(ReferenceJson.find("\"recovery\":true"), std::string::npos);

  std::vector<ShardResult> Shards;
  for (unsigned Shard = 0; Shard < 2; ++Shard) {
    EngineConfig Sharded = Base;
    Sharded.ShardIndex = Shard;
    Sharded.NumShards = 2;
    Sharded.Jobs = Shard ? 3 : 1;
    EngineReport Part = CampaignEngine(Program, Config, Sharded).run();
    ShardResult Parsed;
    std::string Error;
    ASSERT_TRUE(CampaignEngine::parseShardResult(
        CampaignEngine::resultToJson(Part, Sharded), Parsed, Error))
        << Error;
    EXPECT_TRUE(Parsed.Recovery);
    Shards.push_back(std::move(Parsed));
  }
  ShardResult Merged;
  std::string Error;
  ASSERT_TRUE(CampaignEngine::mergeShards(Shards, Merged, Error)) << Error;
  EXPECT_TRUE(Merged.Recovery);
  EXPECT_EQ(Merged.Model, "single");
  EXPECT_EQ(Merged.Completed, Reference.Completed);
  EXPECT_EQ(Merged.Registry.toJson(), Reference.Registry.toJson());
}

TEST(CampaignEngineTest, MergeRefusesMixedModelsAndRecovery) {
  ShardResult A;
  A.NumShards = 2;
  A.Seed = 7;
  A.Model = "single";
  ShardResult B = A;
  B.Shard = 1;
  ShardResult Out;
  std::string Error;
  ASSERT_TRUE(CampaignEngine::mergeShards({A, B}, Out, Error)) << Error;
  EXPECT_EQ(Out.Model, "single");
  EXPECT_FALSE(Out.Recovery);

  for (const char *Model : {"burst", "attack", ""}) {
    B.Model = Model;
    EXPECT_FALSE(CampaignEngine::mergeShards({A, B}, Out, Error)) << Model;
    EXPECT_NE(Error.find("disagree on the campaign kind"), std::string::npos)
        << Error;
  }
  B.Model = "single";
  B.Recovery = true;
  EXPECT_FALSE(CampaignEngine::mergeShards({A, B}, Out, Error));
  EXPECT_NE(Error.find("with recovery"), std::string::npos) << Error;
}

TEST(CampaignEngineDeathTest, RecoveryAndPlainCheckpointsDoNotMix) {
  AsmProgram Program = makeProgram();
  DbtConfig Config = makeDbtConfig();
  RecoveryConfig Recovery = makeRecovery();
  for (bool RecoveryFirst : {true, false}) {
    std::string Path = tempPath("recovery_mix.ckpt");
    EngineConfig First = makeEngine(101, 40, 8);
    First.CheckpointFile = Path;
    First.MaxBatches = 1;
    EngineConfig Other = First;
    (RecoveryFirst ? First : Other).Recovery = &Recovery;
    CampaignEngine(Program, Config, First).run();
    EXPECT_DEATH(CampaignEngine(Program, Config, Other).run(),
                 "belongs to a different campaign");
    std::remove(Path.c_str());
  }
}

TEST(CampaignEngineDeathTest, PropagationUnderRecoveryIsRefused) {
  AsmProgram Program = makeProgram();
  RecoveryConfig Recovery = makeRecovery();
  EngineConfig Engine = makeEngine(101, 40, 8);
  Engine.Recovery = &Recovery;
  Engine.TrackPropagation = true;
  EXPECT_DEATH(CampaignEngine(Program, makeDbtConfig(), Engine),
               "propagation tracking does not compose with recovery");
}

TEST(CampaignEngineTest, RecorderAndTracerMatchSerialInjection) {
  // The engine replays every injection it ran with the recorder after
  // its parallel loop; the bundles (names and bytes) and the trace equal
  // a serial injectDetailed loop over the same schedule.
  AsmProgram Program = makeProgram();
  const uint64_t Count = 12, Seed = 31;
  std::string EngineDir = tempPath("engine_bundles");
  std::string SerialDir = tempPath("serial_bundles");
  std::filesystem::remove_all(EngineDir);
  std::filesystem::remove_all(SerialDir);

  telemetry::FlightRecorder EngineRecorder(EngineDir, 64);
  telemetry::EventTracer EngineTracer(1024);
  EngineConfig Engine = makeEngine(Seed, Count, 5);
  Engine.Jobs = 3;
  Engine.Recorder = &EngineRecorder;
  Engine.Tracer = &EngineTracer;
  EngineReport Report = CampaignEngine(Program, makeDbtConfig(), Engine).run();
  EXPECT_EQ(Report.Completed, Count);

  FaultCampaign Campaign(Program, makeDbtConfig());
  ASSERT_TRUE(Campaign.prepare(Engine.MaxInsns));
  telemetry::FlightRecorder SerialRecorder(SerialDir, 64);
  telemetry::EventTracer SerialTracer(1024);
  uint64_t Done = 0;
  for (const PlannedFault &Fault :
       Campaign.plan(Count * 4, Seed, SiteClass::Any)) {
    if (Fault.Category == BranchErrorCategory::NoError || Done == Count)
      continue;
    InjectionReport R = Campaign.injectDetailed(Fault, &SerialRecorder);
    SerialTracer.record(++Done, telemetry::TraceEventKind::CampaignInjection,
                        getOutcomeName(R.Result), Fault.SiteAddr,
                        R.LatencyInsns);
  }
  ASSERT_EQ(Done, Count);

  EXPECT_EQ(EngineRecorder.bundleCount(), Count);
  std::vector<std::string> Names = listDir(EngineDir);
  ASSERT_EQ(Names, listDir(SerialDir));
  for (const std::string &Name : Names)
    EXPECT_EQ(readFile(EngineDir + "/" + Name),
              readFile(SerialDir + "/" + Name))
        << Name;
  EXPECT_EQ(EngineTracer.renderChromeJson(), SerialTracer.renderChromeJson());
  std::filesystem::remove_all(EngineDir);
  std::filesystem::remove_all(SerialDir);
}
