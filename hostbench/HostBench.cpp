//===- HostBench.cpp - Host-measured benchmark: entry point ---------------===//
//
// Part of the CFED project (CGO'06 control-flow error detection repro).
//
//===----------------------------------------------------------------------===//
//
// Usage (run.py builds this and passes the paths):
//
//   hostbench --workload <protected_suite|fault_campaign|recovery_campaign>
//             --seed N --seconds S --trace 0|1
//             --expected FILE --tmp DIR [--trace-out FILE]
//             [--git-commit SHA --git-dirty 0|1]
//   hostbench --emit-expected FILE --tmp DIR
//   hostbench --self-test --expected FILE --tmp DIR
//
// Prints a human-readable report and, as its last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <sys/resource.h>
#include <thread>

using namespace hostbench;

namespace {

constexpr unsigned SetupReps = 5;
constexpr unsigned MaxJobs = 4;

const char *const Workloads[] = {"protected_suite", "fault_campaign",
                                 "recovery_campaign"};

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  uint64_t Seconds = 35;
  bool Trace = false;
  std::string ExpectedFile;
  std::string TmpDir;
  std::string TraceOut;
  std::string GitCommit = "unknown";
  std::string GitDirty = "unknown";
  std::string EmitExpected;
  bool SelfTest = false;
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I < Argc; ++I) {
    std::string Key = Argv[I];
    if (Key == "--self-test") {
      A.SelfTest = true;
      continue;
    }
    if (I + 1 >= Argc) {
      std::fprintf(stderr, "error: %s needs a value\n", Key.c_str());
      return false;
    }
    std::string Value = Argv[++I];
    char *End = nullptr;
    if (Key == "--workload")
      A.Workload = Value;
    else if (Key == "--seed")
      A.Seed = std::strtoull(Value.c_str(), &End, 10);
    else if (Key == "--seconds")
      A.Seconds = std::strtoull(Value.c_str(), &End, 10);
    else if (Key == "--trace")
      A.Trace = Value == "1";
    else if (Key == "--expected")
      A.ExpectedFile = Value;
    else if (Key == "--tmp")
      A.TmpDir = Value;
    else if (Key == "--trace-out")
      A.TraceOut = Value;
    else if (Key == "--git-commit")
      A.GitCommit = Value;
    else if (Key == "--git-dirty")
      A.GitDirty = Value;
    else if (Key == "--emit-expected")
      A.EmitExpected = Value;
    else {
      std::fprintf(stderr, "error: unknown option %s\n", Key.c_str());
      return false;
    }
    if (End && *End) {
      std::fprintf(stderr, "error: %s expects a number\n", Key.c_str());
      return false;
    }
  }
  return true;
}

unsigned jobCount() {
  unsigned Hw = std::thread::hardware_concurrency();
  return std::max(1u, std::min(MaxJobs, Hw));
}

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      return Colon == std::string::npos ? Line : Line.substr(Colon + 2);
    }
  return "unknown";
}

/// True when the numbers of this build must not be compared with others:
/// no optimization, or a sanitizer.
bool buildIsFlagged() {
#if !defined(__OPTIMIZE__) || defined(__SANITIZE_ADDRESS__) ||                \
    defined(__SANITIZE_THREAD__)
  return true;
#else
  return std::strstr(HOSTBENCH_CXX_FLAGS, "-fsanitize") != nullptr;
#endif
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      Out += C;
  }
  return Out + "\"";
}

void printProvenance(const Args &A, unsigned Jobs) {
  std::printf(
      "provenance: {\"commit\": %s, \"dirty\": %s, \"build_type\": %s, "
      "\"cxx_flags\": %s, \"compiler\": %s, \"cpu_model\": %s, "
      "\"nproc\": %u, \"jobs\": %u, \"workload\": %s, \"seed\": %llu, "
      "\"seconds\": %llu, \"trace\": %d, \"flagged_build\": %s}\n",
      jsonString(A.GitCommit).c_str(), jsonString(A.GitDirty).c_str(),
      jsonString(HOSTBENCH_BUILD_TYPE).c_str(),
      jsonString(HOSTBENCH_CXX_FLAGS).c_str(),
      jsonString("g++ " __VERSION__).c_str(), jsonString(cpuModel()).c_str(),
      std::thread::hardware_concurrency(), Jobs,
      jsonString(A.Workload).c_str(), (unsigned long long)A.Seed,
      (unsigned long long)A.Seconds, A.Trace ? 1 : 0,
      buildIsFlagged() ? "true" : "false");
  if (buildIsFlagged())
    std::printf("WARNING: unoptimized or sanitizer build; its numbers are "
                "not comparable and the run reports correct=false\n");
}

/// Unit of a metric, from its name.
const char *unitOf(const std::string &Name) {
  static const std::pair<const char *, const char *> Exact[] = {
      {"setup_s", "s"},         {"peak_rss_mb", "MiB"},
      {"inj_per_s", "1/s"},     {"guest_insn_ns", "ns"},
      {"trace.spans", "count"}, {"fault.outcome_base", "count"}};
  for (const auto &[N, U] : Exact)
    if (Name == N)
      return U;
  auto Has = [&](const char *Part) {
    return Name.find(Part) != std::string::npos;
  };
  if (Has("_ms"))
    return "ms";
  if (Has("_us"))
    return "us";
  if (Has("_ns"))
    return "ns";
  if (Has("rate") || Has("share") || Has("slowdown") || Has("corr") ||
      Has("overhead") || Has("efficiency") || Has("extra_insns") ||
      Has("opt_vs_base"))
    return "ratio";
  return "count";
}

void printMetrics(const std::map<std::string, double> &M, const char *Title) {
  std::printf("%s:\n", Title);
  for (const auto &[Name, Value] : M)
    std::printf("  %-36s %14.6g %s\n", Name.c_str(), Value,
                unitOf(Name));
}

void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const std::map<std::string, double> &M) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false", (unsigned long long)Attempted,
              (unsigned long long)Failed);
  bool First = true;
  for (const auto &[Name, Value] : M) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                First ? "" : ", ", Name.c_str(),
                std::isfinite(Value) ? Value : 0.0, unitOf(Name));
    First = false;
  }
  std::printf("}}\n");
}

/// Per-span cost of the tracer, measured on a throwaway tracer.
double spanCostNs() {
  constexpr unsigned N = 100000;
  Tracer Calibration(true);
  uint64_t T0 = wallNs();
  for (unsigned I = 0; I < N; ++I)
    Calibration.end(Calibration.begin("calibration"));
  return double(wallNs() - T0) / N;
}

int runWorkload(const Args &A, uint64_t ProcessStart) {
  bool Known = false;
  for (const char *W : Workloads)
    Known |= A.Workload == W;
  if (!Known) {
    std::fprintf(stderr, "error: unknown workload '%s'\n",
                 A.Workload.c_str());
    return 2;
  }
  Expected Want;
  std::string Error;
  if (!loadExpected(A.ExpectedFile, Want, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 2;
  }
  unsigned Jobs = jobCount();
  printProvenance(A, Jobs);
  std::fflush(stdout);

  Tracer T(A.Trace);
  SetupResult Setup = runSetup(SetupReps, ProcessStart, T);
  const std::vector<Program> &Programs = Setup.Programs;
  CampaignContext Ctx{Programs, Want, {}, false, Jobs, A.TmpDir, T, 0, {}};
  std::vector<Cell> Sample = sampleCells(Programs);
  bool IsSuite = A.Workload == "protected_suite";
  bool IsFault = A.Workload == "fault_campaign";
  bool IsRecovery = A.Workload == "recovery_campaign";
  // The campaign workloads run the suite over the sample cells' six
  // programs only, so their suite metrics are over those programs.
  std::vector<Program> SuitePrograms;
  for (size_t P = 0; P < Programs.size(); ++P)
    if (IsSuite || std::any_of(Sample.begin(), Sample.end(),
                               [P](const Cell &C) { return C.Prog == P; }))
      SuitePrograms.push_back(Programs[P]);
  SuiteRun Suite(SuitePrograms);
  CampaignStats FaultStats, RecoveryStats;
  ProbeStats Probe;

  // Rounds until the time budget is spent, at least two so every op has
  // a repeat. A round is one main-loop pass plus a fixed,
  // seed-independent sample of each op kind the workload is not about,
  // so every workload reports every metric. The campaign workloads run
  // their suite sample as two passes, one on each side of the main pass,
  // so each of those ops has enough repeats for a median. For the same
  // reason protected_suite, whose inj_* come from the fault sample alone,
  // runs that sample on both sides of its suite pass.
  uint64_t Start = wallNs(), Budget = A.Seconds * 1000000000ULL;
  runProbes(Ctx, Sample, Probe);
  uint64_t LastRoundNs = 0;
  for (uint64_t Round = 0;
       Round < 2 || wallNs() - Start + LastRoundNs <= Budget; ++Round) {
    uint64_t R0 = wallNs();
    if (IsSuite)
      runFaultCells(Ctx, Sample, FaultStats);
    Suite.runPass(A.Seed, T);
    if (IsFault)
      runFaultCells(Ctx, cellOrder(Programs, A.Seed * 1000 + Round),
                    FaultStats);
    else if (IsRecovery)
      runRecoveryCells(Ctx, cellOrder(Programs, A.Seed * 1000 + Round),
                       RecoveryStats);
    if (!IsSuite)
      Suite.runPass(A.Seed, T);
    if (!IsFault)
      runFaultCells(Ctx, Sample, FaultStats);
    if (!IsRecovery)
      runRecoveryCells(Ctx, Sample, RecoveryStats);
    LastRoundNs = wallNs() - R0;
  }
  uint64_t MeasuredNs = wallNs() - Start;

  std::map<std::string, double> E2E, Layer;
  E2E["setup_s"] = Setup.SetupSeconds;
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  E2E["peak_rss_mb"] = double(Usage.ru_maxrss) / 1024.0;
  Suite.addMetrics(E2E, Layer, Setup);
  addInjectionMetrics(E2E, IsRecovery ? RecoveryStats : FaultStats);
  addCampaignLayerMetrics(Layer, FaultStats, RecoveryStats, Probe, Jobs);
  Layer["trace.spans"] = double(T.size());
  Layer["trace.overhead_share"] =
      double(T.size()) * spanCostNs() / double(MeasuredNs);

  std::vector<std::string> Failures = Setup.Failures;
  Failures.insert(Failures.end(), Suite.failures().begin(),
                  Suite.failures().end());
  Failures.insert(Failures.end(), Ctx.Failures.begin(), Ctx.Failures.end());
  uint64_t Attempted =
      SetupReps * Programs.size() + Suite.attempted() + Ctx.Attempted;

  std::printf("workload %s: %llu suite passes, %llu campaign cells, %.2f s "
              "measured, %u jobs\n",
              A.Workload.c_str(), (unsigned long long)Suite.passes(),
              (unsigned long long)(FaultStats.Cells + RecoveryStats.Cells),
              double(MeasuredNs) / 1e9, Jobs);
  std::printf("set-up, unscaled: %.4f s\n", Setup.UnscaledSetupSeconds);
  Suite.printLedger();
  printMetrics(E2E, "end-to-end");
  printMetrics(Layer, "per-layer");
  std::printf("failures: %zu of %llu attempted ops\n", Failures.size(),
              (unsigned long long)Attempted);
  for (const std::string &F : Failures)
    std::printf("  FAILED %s\n", F.c_str());
  if (T.enabled()) {
    std::printf("tracing: %zu spans, overhead %.4f%% of measured time\n",
                T.size(), 100.0 * Layer["trace.overhead_share"]);
    if (!A.TraceOut.empty() && !T.write(A.TraceOut))
      std::fprintf(stderr, "warning: cannot write spans to %s\n",
                   A.TraceOut.c_str());
  }
  bool Correct = Failures.empty() && !buildIsFlagged();
  printResult(Correct, Attempted, Failures.size(), A.Trace ? Layer : E2E);
  return 0;
}

int emitExpected(const Args &A) {
  Tracer T(false);
  SetupResult Setup = runSetup(1, wallNs(), T);
  if (!Setup.Failures.empty()) {
    std::fprintf(stderr, "error: set-up failed: %s\n",
                 Setup.Failures.front().c_str());
    return 1;
  }
  Expected None;
  CampaignContext Ctx{Setup.Programs, None, {}, true, jobCount(),
                      A.TmpDir,       T,    0,  {}};
  CampaignStats Fault, Recovery;
  ProbeStats Probe;
  std::vector<Cell> Pool = cellPool(Setup.Programs);
  runFaultCells(Ctx, Pool, Fault);
  runRecoveryCells(Ctx, Pool, Recovery);
  runProbes(Ctx, sampleCells(Setup.Programs), Probe);
  for (const std::string &F : Ctx.Failures)
    std::fprintf(stderr, "error: %s\n", F.c_str());
  if (!Ctx.Failures.empty() || !saveExpected(A.EmitExpected, Ctx.Got))
    return 1;
  std::printf("wrote %zu digests to %s\n", Ctx.Got.size(),
              A.EmitExpected.c_str());
  return 0;
}

/// Determinism checks of the benchmark itself.
int selfTest(const Args &A) {
  unsigned Failed = 0;
  auto Check = [&Failed](bool Ok, const char *What) {
    std::printf("%s %s\n", Ok ? "ok  " : "FAIL", What);
    Failed += !Ok;
  };
  Expected Want;
  std::string Error;
  if (!loadExpected(A.ExpectedFile, Want, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 2;
  }
  Tracer T(false);
  SetupResult Setup = runSetup(1, wallNs(), T);
  Check(Setup.Failures.empty(), "native reference runs halt");
  const std::vector<Program> &Programs = Setup.Programs;

  auto Sorted = [](auto V) {
    std::sort(V.begin(), V.end());
    return V;
  };
  auto Order = suiteOrder(Programs.size(), 7, 0);
  Check(Order == suiteOrder(Programs.size(), 7, 0),
        "same seed gives the same suite order");
  Check(Order != suiteOrder(Programs.size(), 8, 0),
        "another seed gives another suite order");
  Check(Sorted(Order) == Sorted(suiteOrder(Programs.size(), 8, 0)) &&
            std::set(Order.begin(), Order.end()).size() ==
                Programs.size() * NumConfigs,
        "every seed covers each (program, config) pair once");

  auto Key = [](const std::vector<Cell> &Cells) {
    std::vector<std::pair<size_t, int>> K;
    for (const Cell &C : Cells)
      K.emplace_back(C.Prog, int(C.Tech));
    return K;
  };
  auto Cells7 = Key(cellOrder(Programs, 7));
  Check(Cells7 == Key(cellOrder(Programs, 7)) &&
            Cells7 != Key(cellOrder(Programs, 8)) &&
            Sorted(Cells7) == Sorted(Key(cellPool(Programs))),
        "cell order is seeded and covers the pool");
  bool Stratified = true;
  std::vector<Cell> Cells = cellOrder(Programs, 7);
  for (size_t I = 0; I + 1 < 2 * 12; I += 2)
    Stratified &= !Programs[Cells[I].Prog].IsFp &&
                  Programs[Cells[I + 1].Prog].IsFp;
  Check(Stratified, "cell order alternates int and fp programs");

  // Two suites over a few programs with one seed: same order, same
  // instruction and cycle counts; runPass itself fails ops whose counts
  // change between passes.
  std::vector<Program> Few(Programs.begin(), Programs.begin() + 2);
  Few.push_back(Programs[Programs.size() - 1]);
  SuiteRun First(Few), Second(Few);
  First.runPass(7, T);
  First.runPass(7, T);
  Second.runPass(7, T);
  bool SameCounts = true;
  for (size_t P = 0; P < Few.size(); ++P)
    for (unsigned C = 0; C < NumConfigs; ++C)
      SameCounts &= First.counts(P, ConfigId(C)) ==
                        Second.counts(P, ConfigId(C)) &&
                    First.counts(P, ConfigId(C)).Insns > 0;
  Check(First.failures().empty() && Second.failures().empty(),
        "suite ops halt with the native output hash");
  Check(SameCounts, "same seed gives the same instruction and cycle counts");
  Check(std::equal(Second.history().begin(), Second.history().end(),
                   First.history().begin()),
        "same seed gives the same op order");

  // Campaign tallies: two runs of the same cells give the same digests,
  // equal to the expected ones.
  std::vector<Cell> Two(Cells.begin(), Cells.begin() + 2);
  Expected Runs[2];
  for (Expected &Got : Runs) {
    CampaignContext Ctx{Programs, Want, {}, true, jobCount(), A.TmpDir, T,
                        0,        {}};
    CampaignStats Fault, Recovery;
    runFaultCells(Ctx, Two, Fault);
    runRecoveryCells(Ctx, Two, Recovery);
    Got = Ctx.Got;
  }
  bool MatchWant = !Runs[0].empty();
  for (const auto &[K, D] : Runs[0])
    MatchWant &= Want.count(K) && Want.at(K) == D;
  Check(Runs[0] == Runs[1], "same cells give the same campaign tallies");
  Check(MatchWant, "campaign tallies match the expected digests");
  std::printf("%u self-test failures\n", Failed);
  return Failed ? 1 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  uint64_t ProcessStart = wallNs();
  Args A;
  if (!parseArgs(Argc, Argv, A))
    return 2;
  if (A.TmpDir.empty()) {
    std::fprintf(stderr, "error: --tmp DIR is required\n");
    return 2;
  }
  if (!A.EmitExpected.empty())
    return emitExpected(A);
  if (A.SelfTest)
    return selfTest(A);
  return runWorkload(A, ProcessStart);
}
