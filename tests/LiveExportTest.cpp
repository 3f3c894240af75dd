//===- LiveExportTest.cpp - Live telemetry plane tests --------------------===//
//
// Round-trip fidelity of live snapshots, atomicity of publishes under
// concurrent mutation, the monotone sequence contract readers depend
// on, rate computation, the rendered live view, and the disabled-cost
// bound of the exporter.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"
#include "telemetry/LiveExport.h"
#include "telemetry/LiveView.h"
#include "telemetry/Metrics.h"
#include "vm/Loader.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <thread>
#include <unistd.h>

using namespace cfed;
using namespace cfed::telemetry;

namespace {

std::string tempPath(const std::string &Name) {
  std::string Path = ::testing::TempDir() + "cfed_live_" +
                     std::to_string(::getpid()) + "_" + Name;
  std::remove(Path.c_str());
  return Path;
}

bool parseText(const std::string &Text, json::JsonValue &Out) {
  // JsonParser emplaces into whatever fields Out already holds; clear it
  // so helper reuse across parses cannot leak stale keys.
  Out = json::JsonValue();
  json::JsonParser Parser(Text);
  return Parser.parse(Out);
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In.is_open())
    return std::string();
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

LiveSnapshot sampleSnapshot(bool WithHeartbeat) {
  MetricsRegistry Registry;
  Registry.counter("dbt.dispatches").inc(12345);
  Registry.counter("fault.injections").inc(97);
  // Registry gauges and the exporter's own doubles (Wilson bounds below)
  // both print through formatDoubleExact, the shortest form that parses
  // back bit-exact, so every value below round-trips.
  Registry.gauge("dbt.ibtc_hit_rate").set(0.875);
  Registry.gauge("run.output_hash").set(1234.5);
  Registry.histogram("fault.latency.cat_C", {1, 2, 4, 8}).observe(3);
  Registry.histogram("fault.latency.cat_C", {1, 2, 4, 8}).observe(9);

  LiveSnapshot Snap;
  Snap.RunId = "campaign-505";
  Snap.Pid = 4242;
  Snap.Seq = 7;
  Snap.WallMs = 1754650000123ULL;
  Snap.Registry = Registry.snapshot();
  if (WithHeartbeat) {
    Snap.Beat.Present = true;
    Snap.Beat.Shard = 1;
    Snap.Beat.NumShards = 2;
    Snap.Beat.Cursor = 112;
    Snap.Beat.Planned = 160;
    Snap.Beat.Skipped = 9;
    Snap.Beat.Completed = 47;
    Snap.Beat.Rung = "rollback";
    Snap.Beat.Cells.push_back({"C", 39, 14, 0.2274, 0.5158, false});
    Snap.Beat.Cells.push_back({"E", 22, 0, 0.0, 0.1487, true});
  }
  return Snap;
}

} // namespace

//===----------------------------------------------------------------------===//
// JSON round trip and live-file detection
//===----------------------------------------------------------------------===//

TEST(LiveExportTest, SnapshotRoundTripsThroughJson) {
  for (bool WithHeartbeat : {false, true}) {
    LiveSnapshot Snap = sampleSnapshot(WithHeartbeat);
    std::string Json = liveSnapshotToJson(Snap);
    // Single line: the file is consumed by line-oriented tooling.
    EXPECT_EQ(Json.find('\n'), std::string::npos);

    json::JsonValue Root;
    ASSERT_TRUE(parseText(Json, Root)) << Json;
    LiveSnapshot Back;
    std::string Error;
    ASSERT_TRUE(liveSnapshotFromJson(Root, Back, Error)) << Error;
    EXPECT_EQ(Back, Snap) << "heartbeat=" << WithHeartbeat;
  }
}

TEST(LiveExportTest, DetectsLiveFilesAndOnlyLiveFiles) {
  json::JsonValue Root;
  ASSERT_TRUE(parseText(liveSnapshotToJson(sampleSnapshot(true)), Root));
  EXPECT_TRUE(isLiveSnapshotJson(Root));

  // A plain registry snapshot and a campaign result are not live files.
  MetricsRegistry Registry;
  Registry.counter("dbt.dispatches").inc(3);
  ASSERT_TRUE(parseText(Registry.snapshot().toJson(), Root));
  EXPECT_FALSE(isLiveSnapshotJson(Root));
  ASSERT_TRUE(parseText("{\"kind\":\"cfed-campaign-result\",\"seed\":1}",
                        Root));
  EXPECT_FALSE(isLiveSnapshotJson(Root));

  // The markers alone are enough: a hand-rolled file with a seq or a
  // heartbeat field is still in-flight data.
  ASSERT_TRUE(parseText("{\"seq\":3}", Root));
  EXPECT_TRUE(isLiveSnapshotJson(Root));
  ASSERT_TRUE(parseText("{\"heartbeat\":{}}", Root));
  EXPECT_TRUE(isLiveSnapshotJson(Root));
}

TEST(LiveExportTest, RecoveryRungLadder) {
  MetricsRegistry Registry;
  EXPECT_STREQ(recoveryRungFromSnapshot(Registry.snapshot()), "normal");
  Registry.counter("recovery.rollbacks").inc();
  EXPECT_STREQ(recoveryRungFromSnapshot(Registry.snapshot()), "rollback");
  Registry.counter("integrity.retranslations").inc();
  EXPECT_STREQ(recoveryRungFromSnapshot(Registry.snapshot()),
               "retranslate");
  Registry.counter("recovery.degradations").inc();
  EXPECT_STREQ(recoveryRungFromSnapshot(Registry.snapshot()), "degraded");
  Registry.counter("recovery.interp_fallbacks").inc();
  EXPECT_STREQ(recoveryRungFromSnapshot(Registry.snapshot()),
               "interp-fallback");
}

//===----------------------------------------------------------------------===//
// Publishing: atomic files, monotone sequences
//===----------------------------------------------------------------------===//

TEST(LiveExportTest, PublishWritesAtomicallyAndCountsUp) {
  std::string Path = tempPath("publish.live.json");
  MetricsRegistry Registry;
  LiveExporter::Config Cfg;
  Cfg.Path = Path;
  Cfg.RunId = "test-run";
  LiveExporter Exporter(Cfg, [&](RegistrySnapshot &Snap, Heartbeat &) {
    Registry.counter("ticks").inc();
    Snap = Registry.snapshot();
  });

  uint64_t LastSeq = 0;
  for (int I = 0; I < 5; ++I) {
    std::string Error;
    ASSERT_TRUE(Exporter.publish(&Error)) << Error;
    // No temp residue after a successful rename.
    EXPECT_FALSE(std::ifstream(Path + ".tmp").is_open());
    json::JsonValue Root;
    ASSERT_TRUE(parseText(readFile(Path), Root));
    LiveSnapshot Snap;
    ASSERT_TRUE(liveSnapshotFromJson(Root, Snap, Error)) << Error;
    EXPECT_EQ(Snap.RunId, "test-run");
    EXPECT_EQ(Snap.Pid, static_cast<uint64_t>(::getpid()));
    EXPECT_GT(Snap.Seq, LastSeq);
    LastSeq = Snap.Seq;
    EXPECT_EQ(Snap.Registry.counterOr("ticks"),
              static_cast<uint64_t>(I + 1));
  }
  EXPECT_EQ(Exporter.sequence(), 5u);
  EXPECT_EQ(Exporter.failureCount(), 0u);
  std::remove(Path.c_str());
}

TEST(LiveExportTest, PublishFailureIsCountedNotFatal) {
  LiveExporter::Config Cfg;
  Cfg.Path = "/nonexistent-dir-cfed/live.json";
  Cfg.RunId = "broken";
  LiveExporter Exporter(Cfg, [](RegistrySnapshot &, Heartbeat &) {});
  std::string Error;
  EXPECT_FALSE(Exporter.publish(&Error));
  EXPECT_FALSE(Error.empty());
  EXPECT_EQ(Exporter.sequence(), 0u);
  EXPECT_EQ(Exporter.failureCount(), 1u);
}

// Satellite: hammer the registry from worker threads while the service
// exporter snapshots concurrently. Every file a reader sees must parse,
// sequences must be strictly increasing, and counters monotone — the
// exact contract cfed-top's rate computation stands on.
TEST(LiveExportTest, SnapshotsUnderMutationAreAlwaysConsistent) {
  std::string Path = tempPath("hammer.live.json");
  MetricsRegistry Registry;
  std::atomic<bool> Stop{false};
  std::vector<std::thread> Writers;
  for (int W = 0; W < 4; ++W)
    Writers.emplace_back([&Registry, &Stop, W] {
      std::string Name = "hammer.c" + std::to_string(W);
      uint64_t V = 0;
      while (!Stop.load(std::memory_order_relaxed)) {
        Registry.counter(Name).inc();
        Registry.histogram("hammer.h", {1, 8, 64}).observe(V++ % 100);
      }
    });

  LiveExporter::Config Cfg;
  Cfg.Path = Path;
  Cfg.RunId = "hammer";
  Cfg.IntervalMs = 1;
  LiveExporter Exporter(Cfg, [&Registry](RegistrySnapshot &Snap,
                                         Heartbeat &) {
    Snap = Registry.snapshot();
  });
  Exporter.start();

  // Read until enough distinct publishes have been observed; the hard
  // deadline only bounds the worst case (a loaded single-CPU CI box can
  // starve the 1 ms exporter thread well past any fixed short window).
  auto Deadline = std::chrono::steady_clock::now() +
                  std::chrono::seconds(10);
  uint64_t Reads = 0, LastSeq = 0;
  std::map<std::string, uint64_t> LastCounters;
  while (Reads < 8 && std::chrono::steady_clock::now() < Deadline) {
    std::string Text = readFile(Path);
    if (Text.empty())
      continue; // First publish not out yet.
    json::JsonValue Root;
    ASSERT_TRUE(parseText(Text, Root)) << "torn live file: " << Text;
    LiveSnapshot Snap;
    std::string Error;
    ASSERT_TRUE(liveSnapshotFromJson(Root, Snap, Error)) << Error;
    if (Snap.Seq == LastSeq)
      continue; // Same file as last read.
    EXPECT_GT(Snap.Seq, LastSeq);
    LastSeq = Snap.Seq;
    for (const auto &[Name, Value] : Snap.Registry.Counters) {
      auto It = LastCounters.find(Name);
      if (It != LastCounters.end()) {
        EXPECT_GE(Value, It->second) << Name << " went backwards";
      }
      LastCounters[Name] = Value;
    }
    ++Reads;
  }
  Stop.store(true);
  for (std::thread &T : Writers)
    T.join();
  Exporter.stop();
  EXPECT_FALSE(Exporter.running());
  // The exporter must actually have been publishing while we read.
  EXPECT_GE(Reads, 5u);
  EXPECT_EQ(Exporter.failureCount(), 0u);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Rates and the rendered view
//===----------------------------------------------------------------------===//

namespace {

ShardSample makeSample(uint64_t PrevSeq, uint64_t PrevMs, uint64_t PrevVal,
                       uint64_t CurSeq, uint64_t CurMs, uint64_t CurVal) {
  auto Build = [](uint64_t Seq, uint64_t Ms, uint64_t Val) {
    MetricsRegistry R;
    R.counter("dbt.dispatches").inc(Val);
    LiveSnapshot S;
    S.Seq = Seq;
    S.WallMs = Ms;
    S.Registry = R.snapshot();
    return S;
  };
  ShardSample Sample;
  Sample.Label = "s";
  Sample.Snap = Build(CurSeq, CurMs, CurVal);
  Sample.HavePrev = true;
  Sample.Prev = Build(PrevSeq, PrevMs, PrevVal);
  return Sample;
}

} // namespace

TEST(LiveViewTest, CounterRatesComeFromSeqDeltas) {
  // 1000 dispatches over 500 ms -> 2000/s.
  ShardSample S = makeSample(1, 1000, 500, 2, 1500, 1500);
  EXPECT_DOUBLE_EQ(counterRatePerSec(S, "dbt.dispatches"), 2000.0);

  // Invalid deltas all answer "no rate": no previous sample, a stale
  // re-read (same seq), a restarted publisher (seq or clock going
  // backwards), and a counter that shrank.
  ShardSample NoPrev = S;
  NoPrev.HavePrev = false;
  EXPECT_LT(counterRatePerSec(NoPrev, "dbt.dispatches"), 0.0);
  EXPECT_LT(counterRatePerSec(makeSample(2, 1000, 500, 2, 1500, 900),
                              "dbt.dispatches"),
            0.0);
  EXPECT_LT(counterRatePerSec(makeSample(3, 1500, 500, 2, 1000, 900),
                              "dbt.dispatches"),
            0.0);
  EXPECT_LT(counterRatePerSec(makeSample(1, 1000, 500, 2, 1500, 100),
                              "dbt.dispatches"),
            0.0);
}

TEST(LiveViewTest, RenderFlagsStalledShardsAndMergesCells) {
  LiveSnapshot Fresh = sampleSnapshot(true);
  LiveSnapshot Stale = sampleSnapshot(true);
  Stale.RunId = "campaign-505";
  Stale.Beat.Shard = 0;
  Stale.WallMs = Fresh.WallMs - 60000; // A minute behind.

  ShardSample A, B;
  A.Label = "shard_0";
  A.Snap = Stale;
  B.Label = "shard_1";
  B.Snap = Fresh;
  LiveViewOptions Opts;
  Opts.NowMs = Fresh.WallMs;
  Opts.StallAfterSec = 10.0;
  std::string View = renderLiveView({A, B}, Opts);

  EXPECT_NE(View.find("2 shard(s)"), std::string::npos) << View;
  EXPECT_NE(View.find("STALLED"), std::string::npos) << View;
  EXPECT_NE(View.find("1 shard(s) STALLED"), std::string::npos) << View;
  // Cells from both shards merge: C = 39+39 injections, 14+14 SDC.
  EXPECT_NE(View.find("78"), std::string::npos) << View;
  EXPECT_NE(View.find("detection latency"), std::string::npos) << View;
  EXPECT_NE(View.find("fault.latency.cat_C"), std::string::npos) << View;

  // A shard whose cursor reached its plan renders as done, not stalled.
  ShardSample Done = B;
  Done.Snap.Beat.Cursor = Done.Snap.Beat.Planned;
  Done.Snap.WallMs = Fresh.WallMs - 60000;
  View = renderLiveView({Done}, Opts);
  EXPECT_NE(View.find("done"), std::string::npos) << View;
  EXPECT_EQ(View.find("STALLED"), std::string::npos) << View;
}

//===----------------------------------------------------------------------===//
// Cost bound: an idle exporter must not tax the run
//===----------------------------------------------------------------------===//

// A run that carries a live exporter which never fires (interval far
// beyond the run time) must cost within 2% of one with no exporter at
// all. Timing is noisy under CI: min-of-several repeats, retried.
TEST(LiveExportOverheadTest, IdleExporterWithinTwoPercent) {
  AsmProgram Program = assembleWorkload("181.mcf");
  constexpr uint64_t Budget = 200000;

  auto TimedRun = [&Program](bool WithExporter) {
    MetricsRegistry Registry;
    std::unique_ptr<LiveExporter> Exporter;
    std::string Path = tempPath("overhead.live.json");
    if (WithExporter) {
      LiveExporter::Config Cfg;
      Cfg.Path = Path;
      Cfg.RunId = "overhead";
      Cfg.IntervalMs = 3600000; // Never fires within the run.
      Exporter = std::make_unique<LiveExporter>(
          Cfg, [&Registry](RegistrySnapshot &Snap, Heartbeat &) {
            Snap = Registry.snapshot();
          });
      Exporter->start();
    }
    Memory Mem;
    Interpreter Interp(Mem);
    loadProgram(Program, LoadMode::Native, Mem, Interp.state());
    auto Begin = std::chrono::steady_clock::now();
    Interp.run(Budget);
    auto End = std::chrono::steady_clock::now();
    if (Exporter)
      Exporter->stop();
    std::remove(Path.c_str());
    return std::chrono::duration<double>(End - Begin).count();
  };

  // Timing under a loaded parallel ctest run (often a single CPU) is
  // noisy enough that a 2% bound needs generous retries on top of the
  // min-of-reps filtering.
  double Overhead = 0.0;
  for (int Attempt = 0; Attempt < 6; ++Attempt) {
    double MinBase = 1e30, MinLive = 1e30;
    for (int Rep = 0; Rep < 5; ++Rep) {
      MinBase = std::min(MinBase, TimedRun(false));
      MinLive = std::min(MinLive, TimedRun(true));
    }
    Overhead = MinLive / MinBase - 1.0;
    if (Overhead <= 0.02)
      break;
  }
  EXPECT_LE(Overhead, 0.02)
      << "idle live-exporter overhead on the interpreter loop: "
      << Overhead * 100 << "%";
}
