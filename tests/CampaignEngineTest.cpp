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
#include "telemetry/LiveExport.h"
#include "telemetry/Metrics.h"
#include "workloads/RandomProgram.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <thread>
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
// Coordinated sharded early stopping
//===----------------------------------------------------------------------===//

namespace {

/// Fresh per-test coordinator directory.
std::string tempDir(const std::string &Name) {
  std::string Path = tempPath(Name);
  ::mkdir(Path.c_str(), 0755);
  return Path;
}

/// Runs shards 0..NumShards-1 of \p Base concurrently (they barrier on
/// each other through \p Dir) and returns the per-shard reports plus the
/// merged result-file fold.
struct CoordinatedRun {
  std::vector<EngineReport> Reports;
  ShardResult Merged;
};

CoordinatedRun runCoordinated(const AsmProgram &Program,
                              const DbtConfig &Config,
                              const EngineConfig &Base,
                              const std::string &Dir, unsigned NumShards,
                              const std::string &CheckpointStem = "") {
  std::vector<EngineConfig> Configs(NumShards, Base);
  CoordinatedRun Run;
  Run.Reports.resize(NumShards);
  std::vector<std::thread> Threads;
  for (unsigned S = 0; S < NumShards; ++S) {
    EngineConfig &E = Configs[S];
    E.ShardIndex = S;
    E.NumShards = NumShards;
    E.CoordinatorDir = Dir;
    // Different parallelism per shard: coordination must be invariant
    // to each sibling's job count.
    E.Jobs = S + 1;
    if (!CheckpointStem.empty())
      E.CheckpointFile = CheckpointStem + std::to_string(S) + ".ckpt";
    Threads.emplace_back([&Program, &Config, &E, &Run, S] {
      Run.Reports[S] = CampaignEngine(Program, Config, E).run();
    });
  }
  for (std::thread &T : Threads)
    T.join();

  std::vector<ShardResult> Shards;
  for (unsigned S = 0; S < NumShards; ++S) {
    std::string Json =
        CampaignEngine::resultToJson(Run.Reports[S], Configs[S]);
    ShardResult Parsed;
    std::string Error;
    EXPECT_TRUE(CampaignEngine::parseShardResult(Json, Parsed, Error))
        << Error;
    Shards.push_back(std::move(Parsed));
  }
  std::string Error;
  EXPECT_TRUE(CampaignEngine::mergeShards(Shards, Run.Merged, Error))
      << Error;
  return Run;
}

} // namespace

TEST(CampaignEngineTest, CoordinatedStopMergesIdenticalToUnshardedStop) {
  AsmProgram Program = makeProgram();
  DbtConfig Config = makeDbtConfig();
  EngineConfig Base = makeEngine(505, 160, 16);
  Base.StopHalfWidth = 0.12;
  EngineReport Reference = CampaignEngine(Program, Config, Base).run();

  std::string Dir = tempDir("coord_ident");
  CoordinatedRun Run = runCoordinated(Program, Config, Base, Dir, 2);

  // The acceptance property: the merged coordinated campaign is
  // byte-identical to the unsharded early-stopping run.
  EXPECT_EQ(Run.Merged.Registry, Reference.Registry);
  EXPECT_EQ(Run.Merged.Registry.toJson(), Reference.Registry.toJson());
  EXPECT_EQ(Run.Merged.Completed, Reference.Completed);
  EXPECT_EQ(Run.Merged.Skipped, Reference.Skipped);

  // Both shards report the merged closure decision per cell.
  ASSERT_EQ(Run.Reports[0].Cells.size(), Reference.Cells.size());
  for (size_t I = 0; I < Reference.Cells.size(); ++I) {
    EXPECT_EQ(Run.Reports[0].Cells[I].Stopped, Reference.Cells[I].Stopped)
        << "cell " << I;
    EXPECT_EQ(Run.Reports[1].Cells[I].Stopped, Reference.Cells[I].Stopped)
        << "cell " << I;
  }

  // Coordination publishes a live snapshot per shard as a side effect.
  for (unsigned S = 0; S < 2; ++S) {
    std::ifstream In(CampaignEngine::coordinatorLivePath(Dir, S));
    ASSERT_TRUE(In.is_open());
    std::string Text((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
    json::JsonValue Root;
    json::JsonParser Parser(Text);
    ASSERT_TRUE(Parser.parse(Root));
    telemetry::LiveSnapshot Snap;
    std::string Error;
    ASSERT_TRUE(telemetry::liveSnapshotFromJson(Root, Snap, Error))
        << Error;
    EXPECT_TRUE(Snap.Beat.Present);
    EXPECT_EQ(Snap.Beat.Shard, S);
    EXPECT_EQ(Snap.Beat.NumShards, 2u);
    EXPECT_EQ(Snap.RunId, "campaign-505");
  }
}

// TraceTierTest-style property: over several seeds, the coordinated
// shards must close exactly the cells the unsharded early-stopping run
// closes — in particular never a cell the unsharded engine keeps open
// (which would silently starve that category of injections).
TEST(CampaignEngineTest, CoordinatedStopNeverClosesACellUnshardedKeepsOpen) {
  AsmProgram Program = makeProgram();
  DbtConfig Config = makeDbtConfig();
  for (uint64_t Seed : {505u, 707u, 909u}) {
    EngineConfig Base = makeEngine(Seed, 160, 16);
    Base.StopHalfWidth = 0.12;
    EngineReport Reference = CampaignEngine(Program, Config, Base).run();

    std::string Dir = tempDir("coord_prop_" + std::to_string(Seed));
    CoordinatedRun Run = runCoordinated(Program, Config, Base, Dir, 2);
    ASSERT_EQ(Run.Reports[0].Cells.size(), Reference.Cells.size());
    for (size_t I = 0; I < Reference.Cells.size(); ++I)
      for (const EngineReport &Shard : Run.Reports) {
        if (!Reference.Cells[I].Stopped)
          EXPECT_FALSE(Shard.Cells[I].Stopped)
              << "seed " << Seed << ": coordinated run closed cell " << I
              << " which the unsharded engine keeps open";
        else
          EXPECT_TRUE(Shard.Cells[I].Stopped)
              << "seed " << Seed << ": coordinated run missed closing "
              << I;
      }
    EXPECT_EQ(Run.Merged.Registry.toJson(), Reference.Registry.toJson())
        << "seed " << Seed;
  }
}

TEST(CampaignEngineTest, CoordinatedResumeContinuesToIdenticalMerge) {
  AsmProgram Program = makeProgram();
  DbtConfig Config = makeDbtConfig();
  EngineConfig Base = makeEngine(505, 160, 16);
  Base.StopHalfWidth = 0.12;
  EngineReport Reference = CampaignEngine(Program, Config, Base).run();

  std::string Dir = tempDir("coord_resume");
  std::string Stem = tempPath("coord_resume_shard");
  // First leg: both shards stop after one batch, checkpointing.
  EngineConfig Truncated = Base;
  Truncated.MaxBatches = 1;
  CoordinatedRun First =
      runCoordinated(Program, Config, Truncated, Dir, 2, Stem);
  for (const EngineReport &R : First.Reports)
    EXPECT_FALSE(R.Finished);

  // Second leg: same checkpoints, run to completion. The barrier files
  // of the first leg are still in the directory; resume must reuse or
  // republish them and land byte-identical to the unsharded run.
  CoordinatedRun Second =
      runCoordinated(Program, Config, Base, Dir, 2, Stem);
  for (const EngineReport &R : Second.Reports) {
    EXPECT_TRUE(R.Resumed);
    EXPECT_TRUE(R.Finished);
  }
  EXPECT_EQ(Second.Merged.Registry, Reference.Registry);
  EXPECT_EQ(Second.Merged.Registry.toJson(), Reference.Registry.toJson());
  EXPECT_EQ(Second.Merged.Completed, Reference.Completed);
  EXPECT_EQ(Second.Merged.Skipped, Reference.Skipped);
  for (unsigned S = 0; S < 2; ++S)
    std::remove((Stem + std::to_string(S) + ".ckpt").c_str());
}

TEST(CampaignEngineTest, InlineLiveExportPublishesEngineHeartbeat) {
  AsmProgram Program = makeProgram();
  std::string Path = tempPath("inline.live.json");
  EngineConfig Engine = makeEngine(101, 40, 8);
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
  EXPECT_EQ(Snap.Beat.Cursor, 40u);
  EXPECT_EQ(Snap.Beat.Planned, 40u);
  EXPECT_EQ(Snap.Beat.Completed, Report.Completed);
  // One publish per batch boundary: 40 slots / 8 per batch.
  EXPECT_EQ(Snap.Seq, 5u);
  // The final snapshot's registry is the run's cumulative registry.
  EXPECT_EQ(Snap.Registry, Report.Registry);
  std::remove(Path.c_str());
}

TEST(CampaignEngineDeathTest, CoordinatorBarrierTimeoutIsFatal) {
  AsmProgram Program = makeProgram();
  std::string Dir = tempDir("coord_timeout");
  EngineConfig Engine = makeEngine(505, 160, 16);
  Engine.StopHalfWidth = 0.12;
  Engine.NumShards = 2;
  Engine.ShardIndex = 0;
  Engine.CoordinatorDir = Dir;
  Engine.CoordinatorTimeoutMs = 80; // Sibling never starts.
  EXPECT_DEATH(CampaignEngine(Program, makeDbtConfig(), Engine).run(),
               "has not published");
}

TEST(CampaignEngineDeathTest, CoordinatedAndPlainCheckpointsDoNotMix) {
  AsmProgram Program = makeProgram();
  DbtConfig Config = makeDbtConfig();

  // A coordinated checkpoint's cursor counts global slots; resuming it
  // uncoordinated would misread it as shard slots.
  std::string Dir = tempDir("coord_mix");
  std::string CoordCkpt = tempPath("coord_mix_coord.ckpt");
  {
    EngineConfig E = makeEngine(404, 40, 8);
    E.NumShards = 1; // Single coordinated shard: no sibling to wait on.
    E.CoordinatorDir = Dir;
    E.CheckpointFile = CoordCkpt;
    E.MaxBatches = 1;
    CampaignEngine(Program, Config, E).run();
  }
  {
    EngineConfig E = makeEngine(404, 40, 8);
    E.CheckpointFile = CoordCkpt;
    EXPECT_DEATH(CampaignEngine(Program, Config, E).run(),
                 "written by a coordinated run");
  }

  // And the reverse: a plain checkpoint into a coordinated resume.
  std::string PlainCkpt = tempPath("coord_mix_plain.ckpt");
  {
    EngineConfig E = makeEngine(404, 40, 8);
    E.CheckpointFile = PlainCkpt;
    E.MaxBatches = 1;
    CampaignEngine(Program, Config, E).run();
  }
  {
    EngineConfig E = makeEngine(404, 40, 8);
    E.NumShards = 1;
    E.CoordinatorDir = Dir;
    E.CheckpointFile = PlainCkpt;
    EXPECT_DEATH(CampaignEngine(Program, Config, E).run(),
                 "without --campaign-coordinator");
  }
  std::remove(CoordCkpt.c_str());
  std::remove(PlainCkpt.c_str());
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
  // Plain checkpoints keep counting this shard's own slots.
  EXPECT_EQ(Ckpt.Cursor, 8u);
  EXPECT_FALSE(Ckpt.Coordinated);

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
