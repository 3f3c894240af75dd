//===- TelemetryTest.cpp - Metrics registry, tracer, profiler tests -------------===//
//
// Covers the telemetry subsystem: counter/gauge/histogram semantics,
// snapshot/reset/merge, ring-buffer wraparound, the Chrome trace_event
// sink (parsed back with a minimal JSON reader), profiler publication,
// and the disabled-telemetry overhead bound on the dispatch hot loop.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"
#include "telemetry/Metrics.h"
#include "telemetry/Profile.h"
#include "telemetry/Trace.h"

#include "vm/Loader.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <vector>

using namespace cfed;
using namespace cfed::telemetry;
using cfed::json::JsonParser;
using cfed::json::JsonValue;

namespace {

//===----------------------------------------------------------------------===//
// Counters, gauges, histograms
//===----------------------------------------------------------------------===//

TEST(MetricsTest, CounterBasics) {
  MetricsRegistry Registry;
  Counter &C = Registry.counter("dbt.translations");
  EXPECT_EQ(C.value(), 0u);
  C.inc();
  C.inc(41);
  EXPECT_EQ(C.value(), 42u);
  // Lazy registration returns the same instrument at a stable address.
  EXPECT_EQ(&C, &Registry.counter("dbt.translations"));
  C.reset();
  EXPECT_EQ(C.value(), 0u);
}

TEST(MetricsTest, GaugeBasics) {
  MetricsRegistry Registry;
  Gauge &G = Registry.gauge("vm.predecode_hit_rate");
  G.set(0.75);
  EXPECT_DOUBLE_EQ(G.value(), 0.75);
  G.set(0.5); // Last value wins.
  EXPECT_DOUBLE_EQ(G.value(), 0.5);
  EXPECT_EQ(&G, &Registry.gauge("vm.predecode_hit_rate"));
}

TEST(MetricsTest, HistogramBuckets) {
  MetricsRegistry Registry;
  Histogram &H = Registry.histogram("lat", {10, 100, 1000});
  EXPECT_EQ(H.bounds(), (std::vector<uint64_t>{10, 100, 1000}));
  H.observe(5);     // <= 10
  H.observe(10);    // <= 10 (inclusive)
  H.observe(11);    // <= 100
  H.observe(1000);  // <= 1000
  H.observe(5000);  // overflow
  EXPECT_EQ(H.bucketCounts(), (std::vector<uint64_t>{2, 1, 1, 1}));
  EXPECT_EQ(H.count(), 5u);
  EXPECT_EQ(H.sum(), 5u + 10 + 11 + 1000 + 5000);
  H.reset();
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.bucketCounts(), (std::vector<uint64_t>{0, 0, 0, 0}));
}

TEST(MetricsTest, QuantileClampsAndMarksOverflowBucket) {
  MetricsRegistry Registry;
  Histogram &H = Registry.histogram("lat", {10, 100, 1000});

  // Empty histogram: quantiles are 0 and never overflow.
  auto Empty = Registry.snapshot().Histograms[0].second;
  EXPECT_EQ(Empty.quantile(0.5), 0u);
  EXPECT_FALSE(Empty.quantileOverflows(0.5));
  EXPECT_EQ(Empty.quantileText(0.5), "0");

  // All mass in finite buckets: quantiles are bucket upper bounds.
  H.observe(5);
  H.observe(50);
  H.observe(500);
  auto Finite = Registry.snapshot().Histograms[0].second;
  EXPECT_EQ(Finite.quantile(0.5), 100u);
  EXPECT_EQ(Finite.quantile(0.99), 1000u);
  EXPECT_FALSE(Finite.quantileOverflows(0.99));
  EXPECT_EQ(Finite.quantileText(0.99), "1000");

  // Mass lands in the implicit overflow bucket: the numeric quantile
  // clamps to the largest finite bound instead of indexing past the
  // bounds array, and the text form reports the open-ended ">=max".
  H.observe(9999);
  H.observe(9999);
  H.observe(9999);
  auto Over = Registry.snapshot().Histograms[0].second;
  EXPECT_EQ(Over.quantile(0.99), 1000u);
  EXPECT_TRUE(Over.quantileOverflows(0.99));
  EXPECT_FALSE(Over.quantileOverflows(0.25));
  EXPECT_EQ(Over.quantileText(0.99), ">=1000");
  EXPECT_EQ(Over.quantileText(0.25), "100");
}

TEST(MetricsDeathTest, HistogramRejectsBadBounds) {
  // Misconfigured bucket edges are a programming error reported at
  // registration, not silently repaired.
  EXPECT_DEATH({ Histogram H(std::vector<uint64_t>{}); }, "must not be empty");
  EXPECT_DEATH({ Histogram H({100, 10}); }, "strictly increasing");
  EXPECT_DEATH({ Histogram H({10, 10, 100}); }, "strictly increasing");
}

TEST(MetricsTest, SnapshotAndReset) {
  MetricsRegistry Registry;
  Registry.counter("a").inc(3);
  Registry.gauge("b").set(1.5);
  Registry.histogram("h", {10}).observe(7);

  RegistrySnapshot Snap = Registry.snapshot();
  EXPECT_EQ(Snap.counterOr("a"), 3u);
  EXPECT_EQ(Snap.counterOr("missing", 99), 99u);
  EXPECT_DOUBLE_EQ(Snap.gaugeOr("b"), 1.5);
  ASSERT_EQ(Snap.Histograms.size(), 1u);
  EXPECT_EQ(Snap.Histograms[0].second.Count, 1u);
  EXPECT_EQ(Snap.Histograms[0].second.Sum, 7u);

  // The snapshot is a value copy: later bumps don't change it.
  Registry.counter("a").inc();
  EXPECT_EQ(Snap.counterOr("a"), 3u);

  // reset() zeroes values but keeps every instrument registered.
  Registry.reset();
  RegistrySnapshot After = Registry.snapshot();
  EXPECT_EQ(After.counterOr("a"), 0u);
  EXPECT_DOUBLE_EQ(After.gaugeOr("b"), 0.0);
  ASSERT_EQ(After.Counters.size(), 1u);
  ASSERT_EQ(After.Gauges.size(), 1u);
  ASSERT_EQ(After.Histograms.size(), 1u);
  EXPECT_EQ(After.Histograms[0].second.Count, 0u);
}

TEST(MetricsTest, MergeAddsCountersAndFoldsHistograms) {
  MetricsRegistry A;
  A.counter("n").inc(2);
  A.gauge("g").set(1.0);
  A.histogram("h", {10, 100}).observe(5);

  MetricsRegistry B;
  B.counter("n").inc(5);
  B.counter("only_b").inc(1);
  B.gauge("g").set(2.0);
  B.histogram("h", {10, 100}).observe(50);
  B.histogram("h", {10, 100}).observe(500);

  A.merge(B.snapshot());
  RegistrySnapshot Snap = A.snapshot();
  EXPECT_EQ(Snap.counterOr("n"), 7u);
  EXPECT_EQ(Snap.counterOr("only_b"), 1u);
  EXPECT_DOUBLE_EQ(Snap.gaugeOr("g"), 2.0); // Gauge takes incoming value.
  ASSERT_EQ(Snap.Histograms.size(), 1u);
  EXPECT_EQ(Snap.Histograms[0].second.Count, 3u);
  EXPECT_EQ(Snap.Histograms[0].second.Sum, 5u + 50 + 500);
  EXPECT_EQ(Snap.Histograms[0].second.Buckets,
            (std::vector<uint64_t>{1, 1, 1}));
}

TEST(MetricsTest, JsonIsSingleLineAndParses) {
  MetricsRegistry Registry;
  Registry.counter("dbt.translations").inc(13);
  Registry.gauge("rate").set(0.25);
  Registry.histogram("h", {10}).observe(3);
  std::string Json = Registry.snapshot().toJson();
  EXPECT_EQ(Json.find('\n'), std::string::npos);

  JsonValue Root;
  ASSERT_TRUE(JsonParser(Json).parse(Root));
  EXPECT_EQ(Root["counters"]["dbt.translations"].Num, 13.0);
  EXPECT_DOUBLE_EQ(Root["gauges"]["rate"].Num, 0.25);
  EXPECT_EQ(Root["histograms"]["h"]["count"].Num, 1.0);
}

TEST(MetricsTest, CsvHasOneRowPerInstrument) {
  MetricsRegistry Registry;
  Registry.counter("a").inc(1);
  Registry.gauge("b").set(2.0);
  std::string Csv = Registry.snapshot().toCsv();
  EXPECT_NE(Csv.find("counter,a,1"), std::string::npos);
  EXPECT_NE(Csv.find("gauge,b,"), std::string::npos);
}

TEST(MetricsTest, JsonAndCsvGaugesRoundTripExactly) {
  // Gauges that six significant digits would round: an instruction count
  // and an output hash shifted to 53 bits (both exact in a double), and
  // values with a fraction or a short exponent form.
  const double Values[] = {1497926.0,   32455312345678.0, 9007199254740991.0,
                           2.0 / 3.0,   0.1,              1e-7,
                           100000.0,    -0.0001,          0.999996123,
                           1.72205e+06, 0.0};
  MetricsRegistry Registry;
  for (size_t I = 0; I < std::size(Values); ++I)
    Registry.gauge("g" + std::to_string(I)).set(Values[I]);
  RegistrySnapshot Snap = Registry.snapshot();

  JsonValue Root;
  ASSERT_TRUE(JsonParser(Snap.toJson()).parse(Root));
  RegistrySnapshot Back;
  std::string Error;
  ASSERT_TRUE(snapshotFromJson(Root, Back, Error)) << Error;
  EXPECT_TRUE(Back == Snap) << Snap.toJson();

  std::istringstream Csv(Snap.toCsv());
  std::string Row;
  std::getline(Csv, Row); // Header.
  size_t Gauges = 0;
  while (std::getline(Csv, Row)) {
    std::string Name = Row.substr(6, Row.rfind(',') - 6);
    double Value = std::strtod(Row.c_str() + Row.rfind(',') + 1, nullptr);
    EXPECT_EQ(Value, Snap.gaugeOr(Name, -1.0)) << Row;
    EXPECT_EQ(std::signbit(Value), std::signbit(Snap.gaugeOr(Name, -1.0)))
        << Row;
    ++Gauges;
  }
  EXPECT_EQ(Gauges, std::size(Values));
  EXPECT_NE(Snap.toCsv().find("gauge,g0,1497926\n"), std::string::npos);
  EXPECT_NE(Snap.toJson().find("\"g1\":32455312345678,"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Event tracer
//===----------------------------------------------------------------------===//

TEST(TraceTest, RingWraparoundKeepsNewestOldestFirst) {
  EventTracer Tracer(4);
  for (uint64_t I = 0; I < 10; ++I)
    Tracer.record(I, TraceEventKind::BlockTranslated, nullptr, 0x10000 + I);
  EXPECT_EQ(Tracer.size(), 4u);
  EXPECT_EQ(Tracer.capacity(), 4u);
  EXPECT_EQ(Tracer.dropped(), 6u);
  EXPECT_EQ(Tracer.totalRecorded(), 10u);
  std::vector<TraceEvent> Events = Tracer.events();
  ASSERT_EQ(Events.size(), 4u);
  for (size_t I = 0; I < 4; ++I) {
    EXPECT_EQ(Events[I].Ts, 6 + I); // Oldest surviving record first.
    EXPECT_EQ(Events[I].Addr, 0x10006 + I);
  }
  Tracer.clear();
  EXPECT_EQ(Tracer.size(), 0u);
  EXPECT_EQ(Tracer.dropped(), 0u);
}

TEST(TraceTest, ChromeJsonParsesBack) {
  EventTracer Tracer(8);
  Tracer.record(100, TraceEventKind::BlockTranslated, nullptr, 0x10040, 7);
  Tracer.record(250, TraceEventKind::TrapRaised, "C", 0x10080);
  Tracer.record(300, TraceEventKind::Rollback, nullptr, 0x10080, 2);

  JsonValue Root;
  std::string Json = Tracer.renderChromeJson();
  ASSERT_TRUE(JsonParser(Json).parse(Root)) << Json;
  const JsonValue &Events = Root["traceEvents"];
  ASSERT_EQ(Events.K, JsonValue::Array);
  ASSERT_EQ(Events.Items.size(), 3u);

  const JsonValue &First = Events.Items[0];
  EXPECT_EQ(First["name"].Str, "block-translated");
  EXPECT_EQ(First["ph"].Str, "i");
  EXPECT_EQ(First["ts"].Num, 100.0);
  EXPECT_EQ(First["args"]["addr"].Str, "0x10040");
  EXPECT_EQ(First["args"]["arg"].Num, 7.0);

  const JsonValue &Second = Events.Items[1];
  EXPECT_EQ(Second["name"].Str, "trap-raised");
  EXPECT_EQ(Second["args"]["cat"].Str, "C");

  // No wraparound: the dropped-events key must be absent.
  EXPECT_EQ(Root.Fields.count("droppedEvents"), 0u);
}

TEST(TraceTest, ChromeJsonReportsDrops) {
  EventTracer Tracer(2);
  for (uint64_t I = 0; I < 5; ++I)
    Tracer.record(I, TraceEventKind::BlockChained);
  JsonValue Root;
  ASSERT_TRUE(JsonParser(Tracer.renderChromeJson()).parse(Root));
  EXPECT_EQ(Root["traceEvents"].Items.size(), 2u);
  EXPECT_EQ(Root["droppedEvents"].Num, 3.0);
}

TEST(TraceTest, TextRenderNamesEveryKind) {
  EventTracer Tracer(16);
  Tracer.record(1, TraceEventKind::CheckpointTaken, nullptr, 0x10000, 3);
  Tracer.record(2, TraceEventKind::WatchdogFire);
  std::string Text = Tracer.renderText();
  EXPECT_NE(Text.find("checkpoint-taken"), std::string::npos);
  EXPECT_NE(Text.find("watchdog-fire"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Phase profiler
//===----------------------------------------------------------------------===//

TEST(ProfileTest, PublishesGaugesPerActivePhase) {
  PhaseProfiler Profiler;
  Profiler.add(Phase::Translate, 1000);
  Profiler.add(Phase::Translate, 500);
  Profiler.add(Phase::Execute, 8000);
  EXPECT_EQ(Profiler.totalNs(Phase::Translate), 1500u);
  EXPECT_EQ(Profiler.callCount(Phase::Translate), 2u);

  MetricsRegistry Registry;
  Profiler.publishTo(Registry);
  RegistrySnapshot Snap = Registry.snapshot();
  EXPECT_DOUBLE_EQ(Snap.gaugeOr("profile.translate.ns"), 1500.0);
  EXPECT_DOUBLE_EQ(Snap.gaugeOr("profile.translate.calls"), 2.0);
  EXPECT_DOUBLE_EQ(Snap.gaugeOr("profile.execute.ns"), 8000.0);
  // Phases that never ran publish nothing.
  EXPECT_DOUBLE_EQ(Snap.gaugeOr("profile.recover.ns", -1.0), -1.0);

  Profiler.reset();
  EXPECT_EQ(Profiler.totalNs(Phase::Translate), 0u);
  EXPECT_EQ(Profiler.callCount(Phase::Execute), 0u);
}

TEST(ProfileTest, NullScopeIsNoop) {
  { PhaseProfiler::Scope S(nullptr, Phase::Check); }
  PhaseProfiler Profiler;
  {
    PhaseProfiler::Scope S(&Profiler, Phase::Check);
  }
  EXPECT_EQ(Profiler.callCount(Phase::Check), 1u);
}

//===----------------------------------------------------------------------===//
// Overhead bound: disabled telemetry must not tax the dispatch loop
//===----------------------------------------------------------------------===//

// The per-instruction dispatch loop keeps plain fields and publishes
// them only at sync points (DESIGN.md §8), so a run that ends with
// publishMetrics() must cost within 2% of one that never touches
// telemetry. Timing is noisy under CI: take the min of several
// interleaved repeats and retry the whole measurement before failing.
TEST(TelemetryOverheadTest, DisabledTelemetryWithinTwoPercent) {
  AsmProgram Program = assembleWorkload("181.mcf");
  constexpr uint64_t Budget = 200000;

  auto TimedRun = [&Program](bool WithTelemetry) {
    Memory Mem;
    Interpreter Interp(Mem);
    loadProgram(Program, LoadMode::Native, Mem, Interp.state());
    auto Begin = std::chrono::steady_clock::now();
    Interp.run(Budget);
    if (WithTelemetry) {
      MetricsRegistry Registry;
      Interp.publishMetrics(Registry);
    }
    auto End = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(End - Begin).count();
  };

  double Overhead = 0.0;
  for (int Attempt = 0; Attempt < 3; ++Attempt) {
    double MinBase = 1e30, MinTele = 1e30;
    for (int Rep = 0; Rep < 5; ++Rep) {
      MinBase = std::min(MinBase, TimedRun(false));
      MinTele = std::min(MinTele, TimedRun(true));
    }
    Overhead = MinTele / MinBase - 1.0;
    if (Overhead <= 0.02)
      break;
  }
  EXPECT_LE(Overhead, 0.02)
      << "disabled-telemetry overhead on the dispatch hot loop: "
      << Overhead * 100 << "%";
}

} // namespace
