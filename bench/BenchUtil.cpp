//===- BenchUtil.cpp - Shared helpers for the figure benches --------------------===//

#include "bench/BenchUtil.h"

#include "support/CliArgs.h"
#include "support/Diagnostics.h"
#include "support/Format.h"
#include "support/ThreadPool.h"
#include "vm/Loader.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

using namespace cfed;
using namespace cfed::bench;

uint64_t cfed::bench::runDbtCycles(const AsmProgram &Program,
                                   const DbtConfig &Config) {
  Memory Mem;
  Interpreter Interp(Mem);
  Dbt Translator(Mem, Config);
  if (!Translator.load(Program, Interp.state()))
    reportFatalError("bench workload failed to load under the DBT");
  StopInfo Stop = Translator.run(Interp, RunBudget);
  if (Stop.Kind != StopKind::Halted)
    reportFatalError(formatString("bench workload did not halt (%s)",
                                  getTrapKindName(Stop.Trap)));
  return Interp.cycleCount();
}

RunMetrics cfed::bench::runDbtMetrics(const AsmProgram &Program,
                                      const DbtConfig &Config) {
  Memory Mem;
  Interpreter Interp(Mem);
  Dbt Translator(Mem, Config);
  if (!Translator.load(Program, Interp.state()))
    reportFatalError("bench workload failed to load under the DBT");
  StopInfo Stop = Translator.run(Interp, RunBudget);
  if (Stop.Kind != StopKind::Halted)
    reportFatalError(formatString("bench workload did not halt (%s)",
                                  getTrapKindName(Stop.Trap)));
  RunMetrics Metrics;
  Metrics.Cycles = Interp.cycleCount();
  Metrics.Dispatches = Translator.dispatchCount();
  Metrics.PredecodeHits = Mem.predecodeHitCount();
  Metrics.PredecodeMisses = Mem.predecodeMissCount();
  Metrics.IbtcHits = Translator.ibtcHitCount();
  Metrics.IbtcMisses = Translator.ibtcMissCount();
  Metrics.TracePromotions = Translator.tracePromotionCount();
  Metrics.TracesFormed = Translator.traceCount();
  Metrics.TraceCondFusions = Translator.traceCondFusionCount();
  Metrics.ChecksElided = Translator.checksElidedCount();
  return Metrics;
}

unsigned cfed::bench::parseJobs(int Argc, char **Argv) {
  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    const char *Value = nullptr;
    if (std::strncmp(Arg, "--jobs=", 7) == 0)
      Value = Arg + 7;
    else if (std::strcmp(Arg, "--jobs") == 0 && I + 1 < Argc)
      Value = Argv[I + 1];
    if (Value) {
      unsigned Jobs = 1;
      if (cli::parseJobs("--jobs", Value, Jobs))
        return Jobs;
      std::exit(2);
    }
  }
  return ThreadPool::defaultJobCount();
}

PerfReport::PerfReport(std::string BenchName)
    : BenchName(std::move(BenchName)),
      Wall(std::make_unique<telemetry::PhaseProfiler::Scope>(
          &Profiler, telemetry::Phase::Wall)) {}

void PerfReport::set(const std::string &Key, double Value) {
  Fields.emplace_back(Key, formatString("%.4f", Value));
}

void PerfReport::set(const std::string &Key, uint64_t Value) {
  Fields.emplace_back(Key,
                      formatString("%llu", (unsigned long long)Value));
}

void PerfReport::setRegistry(const telemetry::RegistrySnapshot &Snap) {
  Fields.emplace_back("registry", Snap.toJson());
}

PerfReport::~PerfReport() {
  Wall.reset();
  double WallSeconds =
      double(Profiler.totalNs(telemetry::Phase::Wall)) / 1e9;

  std::ostringstream Entry;
  Entry << "{\"wall_seconds\": " << formatString("%.3f", WallSeconds);
  for (const auto &[Key, Value] : Fields)
    Entry << ", \"" << Key << "\": " << Value;
  Entry << "}";

  const char *Path = std::getenv("CFED_PERF_JSON");
  if (!Path)
    Path = "BENCH_perf.json";

  // Merge with existing entries: the file is one entry per line, so other
  // benches' results survive a rerun of this one.
  std::map<std::string, std::string> Entries;
  {
    std::ifstream In(Path);
    std::string Line;
    while (std::getline(In, Line)) {
      size_t NameBegin = Line.find('"');
      if (NameBegin == std::string::npos)
        continue;
      size_t NameEnd = Line.find('"', NameBegin + 1);
      size_t Colon = Line.find(':', NameEnd);
      if (NameEnd == std::string::npos || Colon == std::string::npos)
        continue;
      std::string Body = Line.substr(Colon + 1);
      while (!Body.empty() && (Body.back() == ',' || Body.back() == ' '))
        Body.pop_back();
      size_t BodyBegin = Body.find_first_not_of(' ');
      if (BodyBegin == std::string::npos || Body[BodyBegin] != '{')
        continue;
      Entries[Line.substr(NameBegin + 1, NameEnd - NameBegin - 1)] =
          Body.substr(BodyBegin);
    }
  }
  Entries[BenchName] = Entry.str();

  std::ofstream Out(Path, std::ios::trunc);
  if (!Out)
    return;
  Out << "{\n";
  size_t I = 0;
  for (const auto &[Name, Body] : Entries) {
    Out << "  \"" << Name << "\": " << Body;
    if (++I < Entries.size())
      Out << ",";
    Out << "\n";
  }
  Out << "}\n";
}

uint64_t cfed::bench::runNativeCycles(const AsmProgram &Program) {
  Memory Mem;
  Interpreter Interp(Mem);
  loadProgram(Program, LoadMode::Native, Mem, Interp.state());
  StopInfo Stop = Interp.run(RunBudget);
  if (Stop.Kind != StopKind::Halted)
    reportFatalError("bench workload did not halt natively");
  return Interp.cycleCount();
}

std::string cfed::bench::shortName(const std::string &Name) {
  size_t Dot = Name.find('.');
  return Dot == std::string::npos ? Name : Name.substr(Dot + 1);
}

std::string cfed::bench::formatSlowdown(double Value) {
  return formatString("%.3f", Value);
}

std::string cfed::bench::formatPercent(double Value) {
  return formatString("%.2f%%", Value * 100.0);
}
