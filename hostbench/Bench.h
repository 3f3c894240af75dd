//===- Bench.h - Host-measured benchmark: shared declarations ---*- C++ -*-===//
//
// Part of the CFED project (CGO'06 control-flow error detection repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The host benchmark drives the repository's public API (workloads/asm,
/// vm, dbt, cfc, fault, recovery) from outside and times every call into
/// a layer with host clocks. Nothing here reaches into src/: the layers'
/// own counters are read through their public accessors. README.md next
/// to this file describes the workloads and the metrics.
///
//===----------------------------------------------------------------------===//

#ifndef CFED_HOSTBENCH_BENCH_H
#define CFED_HOSTBENCH_BENCH_H

#include "dbt/Dbt.h"
#include "fault/Campaign.h"
#include "workloads/Workloads.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hostbench {

using namespace cfed;

//===-- Clocks ------------------------------------------------------------===//

/// Monotonic wall clock, nanoseconds.
uint64_t wallNs();
/// CPU time of the calling thread, nanoseconds.
uint64_t threadCpuNs();
/// CPU time of the whole process (all threads), nanoseconds.
uint64_t processCpuNs();

//===-- Host speed reference ----------------------------------------------===//
//
// The host is shared: other tenants make the same code run up to 70% slower
// for seconds to minutes, in CPU time as well as wall time. Absolute costs
// are therefore rescaled by a fixed reference kernel timed next to each op:
// cost x (the kernel's reference cost / its cost just now). The kernel is a
// small switch-dispatched bytecode loop over a 256 KiB table, the same kind
// of work as the guest interpreter, but independent of the program under
// test, so a change to the program moves the rescaled cost and a change in
// host load does not.

/// Steps of one reference-kernel call.
inline constexpr uint64_t ReferenceSteps = 50000;
/// Thread CPU ns of one reference-kernel call at reference speed: about
/// the fastest median of a suite pass seen on the 4-vCPU Intel Xeon KVM
/// guest the benchmark was tuned on (g++ 12.2.0, -O2). Rescaled costs are
/// roughly the costs on that host when it is quiet.
inline constexpr double ReferenceKernelNs = 8.0e5;

/// Runs the reference kernel for \p Steps steps; returns a checksum.
uint64_t referenceKernel(uint64_t Steps);
/// Thread CPU ns of one reference-kernel call on the calling thread.
double referenceCpuNs();
/// Process CPU ns per reference-kernel call, with the kernel running on
/// \p Jobs threads at once.
double referenceParallelCpuNs(unsigned Jobs);

//===-- Spans -------------------------------------------------------------===//

/// One timed call into a layer: name, wall start/end, the enclosing span
/// (-1 at top level) and the op it belongs to.
struct Span {
  const char *Name = "";
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  int32_t Parent = -1;
  uint32_t Op = 0;
};

/// Keeps spans in memory while enabled; written out once at exit. Only
/// the benchmark's main thread records spans.
class Tracer {
public:
  explicit Tracer(bool Enabled) : Enabled(Enabled) {}

  bool enabled() const { return Enabled; }
  /// Opens a span under the innermost open one; returns its index (or -1
  /// when disabled).
  int32_t begin(const char *Name);
  void end(int32_t Index);
  /// Starts a new op id for the spans that follow.
  void nextOp() { ++CurrentOp; }

  size_t size() const { return Spans.size(); }
  bool write(const std::string &Path) const;

private:
  bool Enabled;
  uint32_t CurrentOp = 0;
  std::vector<Span> Spans;
  std::vector<int32_t> Open;
};

/// RAII span.
class Scope {
public:
  Scope(Tracer &T, const char *Name) : T(T), Index(T.begin(Name)) {}
  ~Scope() { T.end(Index); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  Tracer &T;
  int32_t Index;
};

//===-- Suite -------------------------------------------------------------===//

/// The protected-suite configurations, in report order.
enum ConfigId : unsigned {
  CfgNative,
  CfgNoneBase,
  CfgEcfBase,
  CfgEdgcfBase,
  CfgRcfBase,
  CfgNoneOpt,
  CfgEdgcfOpt,
  CfgAssured,
  NumConfigs
};

/// Metric-name suffix of \p Id ("native", "edgcf_base", "assured", ...).
const char *configName(ConfigId Id);
/// Translator configuration of \p Id (unused for CfgNative).
DbtConfig dbtConfig(ConfigId Id);
/// The base-tier configuration of technique \p T (ECF, EdgCF or RCF).
ConfigId baseConfigOf(Technique T);

/// One suite program with its native reference.
struct Program {
  std::string Name;
  bool IsFp = false;
  AsmProgram Asm;
  uint64_t RefHash = 0;
  uint64_t NativeInsns = 0;
};

/// Result of the set-up phase: the assembled suite plus timings.
struct SetupResult {
  std::vector<Program> Programs;
  /// Median over set-up repetitions of the wall time, each rescaled by
  /// the reference kernel timed right after it, seconds.
  double SetupSeconds = 0;
  /// The same without rescaling.
  double UnscaledSetupSeconds = 0;
  /// Median over repetitions of assembling the whole suite, rescaled, ms.
  double AssembleMs = 0;
  /// Native reference runs that failed, or repetitions that disagreed.
  std::vector<std::string> Failures;
};

/// Assembles the suite and records native reference hashes, \p Reps
/// times (the first repetition is timed from \p ProcessStartNs).
SetupResult runSetup(unsigned Reps, uint64_t ProcessStartNs, Tracer &T);

/// Seeded order of one suite pass: every (program, config) pair once,
/// each program's configurations consecutive.
std::vector<std::pair<size_t, ConfigId>> suiteOrder(size_t NumPrograms,
                                                    uint64_t Seed,
                                                    uint64_t Pass);

/// Deterministic facts of one (program, config) op, equal on every pass.
struct OpCounts {
  uint64_t Insns = 0;
  uint64_t Cycles = 0;
  uint64_t PredecodeHits = 0;
  uint64_t PredecodeMisses = 0;
  uint64_t Translations = 0;
  uint64_t Dispatches = 0;
  uint64_t Chains = 0;
  uint64_t IbtcHits = 0;
  uint64_t IbtcMisses = 0;
  uint64_t Promotions = 0;
  uint64_t ChecksElided = 0;
  uint64_t Scrubs = 0;

  bool operator==(const OpCounts &) const = default;
};

/// Accumulates suite passes and derives the suite metrics.
class SuiteRun {
public:
  explicit SuiteRun(const std::vector<Program> &Programs);

  /// Runs one pass in the seeded order; ops that fail their checks are
  /// recorded in failures().
  void runPass(uint64_t Seed, Tracer &T);

  uint64_t passes() const { return Passes; }
  uint64_t attempted() const { return Attempted; }
  const std::vector<std::string> &failures() const { return Failures; }
  /// The op order of every pass run so far, flattened.
  const std::vector<std::pair<size_t, ConfigId>> &history() const {
    return History;
  }
  const OpCounts &counts(size_t Prog, ConfigId Cfg) const {
    return Counts[Prog][Cfg];
  }

  /// Geomean over programs of hostRatio.
  double hostSlowdown(ConfigId Num, ConfigId Den) const;
  /// Per-program op CPU time ratio \p Num / \p Den: the median over
  /// passes of the ratio within a pass, where the two ops ran back to
  /// back.
  double hostRatio(size_t Prog, ConfigId Num, ConfigId Den) const;
  /// CPU ns of one run() call of \p Prog under \p Cfg at reference host
  /// speed: the median over passes of the rescaled run() times.
  double runNs(size_t Prog, ConfigId Cfg) const;
  /// Host ns per guest instruction of \p Cfg's run() calls, at reference
  /// host speed.
  double runInsnNs(ConfigId Cfg) const;
  /// Per-program cycle-model ratio.
  double modelRatio(size_t Prog, ConfigId Num, ConfigId Den) const;

  /// Adds the suite's end-to-end and per-layer metrics.
  void addMetrics(std::map<std::string, double> &E2E,
                  std::map<std::string, double> &Layer,
                  const SetupResult &Setup) const;
  /// Prints the per-program model-vs-host ledger.
  void printLedger() const;

private:
  struct Samples {
    std::vector<double> OpNs;
    std::vector<double> RunNs;
    /// RunNs rescaled by the reference kernel timed before the op.
    std::vector<double> ScaledRunNs;
    std::vector<double> InstanceNs;
    std::vector<double> LoadNs;
  };

  const std::vector<Program> &Programs;
  std::vector<std::vector<Samples>> Timing;
  std::vector<std::vector<OpCounts>> Counts;
  std::vector<std::vector<bool>> HaveCounts;
  /// Per pass: translated run ns per guest instruction (printed, so a
  /// run shows the interference it rode out).
  std::vector<double> PassInsnNs;
  /// Per pass: median reference-kernel CPU time, us.
  std::vector<double> PassKernelUs;
  /// Every reference-kernel CPU time taken before an op, ns.
  std::vector<double> KernelNsAll;
  std::vector<std::pair<size_t, ConfigId>> History;
  std::vector<std::string> Failures;
  uint64_t Passes = 0;
  uint64_t Attempted = 0;
};

//===-- Campaigns ---------------------------------------------------------===//

/// One campaign cell: a program under one checking technique, with the
/// fixed injection seed that makes its tallies reproducible.
struct Cell {
  size_t Prog = 0;
  Technique Tech = Technique::EdgCf;
  uint64_t Seed = 1;
};

/// Injections per fault-campaign cell and per recovery-campaign cell.
inline constexpr uint64_t FaultCellInjections = 16;
inline constexpr uint64_t RecoveryCellInjections = 4;
/// Serial injections per probe cell.
inline constexpr uint64_t FaultProbeInjections = 8;
inline constexpr uint64_t RecoveryProbeInjections = 2;

/// All 26 programs x {ECF, EdgCF, RCF}.
std::vector<Cell> cellPool(const std::vector<Program> &Programs);
/// Seeded order over the whole pool, alternating int and fp cells.
std::vector<Cell> cellOrder(const std::vector<Program> &Programs,
                            uint64_t Seed);
/// The fixed, seed-independent companion/probe cells.
std::vector<Cell> sampleCells(const std::vector<Program> &Programs);

/// Expected outcome digests, keyed "<kind> <program> <tech> <n> <seed>".
using Expected = std::map<std::string, std::string>;
bool loadExpected(const std::string &Path, Expected &Out, std::string &Error);
bool saveExpected(const std::string &Path, const Expected &In);

/// Totals of one campaign loop.
struct CampaignStats {
  uint64_t Cells = 0;
  uint64_t Injections = 0;
  uint64_t WallNs = 0;
  uint64_t CpuNs = 0;
  /// WallNs with each run rescaled to reference host speed.
  double ScaledWallNs = 0;
  OutcomeCounts Totals;
  uint64_t Checkpoints = 0;
  uint64_t Rollbacks = 0;
  /// Per (program, technique): injections of one run of the cell and
  /// the wall and process CPU time of every run of it.
  struct CellRuns {
    uint64_t Injections = 0;
    std::vector<double> WallNs;
    std::vector<double> CpuNs;
    /// The same, rescaled by the reference kernel run on the campaign's
    /// job count right before and after the cell. Wall time is rescaled by
    /// the kernel's CPU cost too: the kernel's wall time on all CPUs would
    /// overstate how much a campaign with serial phases loses when another
    /// tenant takes some CPUs.
    std::vector<double> ScaledWallNs;
    std::vector<double> ScaledCpuNs;
  };
  std::map<std::pair<size_t, Technique>, CellRuns> PerCell;

  /// \p Scale is the reference-kernel rescaling factor of the run.
  void addRun(const Cell &C, uint64_t Injections, uint64_t Wall, uint64_t Cpu,
              double Scale);
};

/// Shared state of the campaign runners.
struct CampaignContext {
  const std::vector<Program> &Programs;
  const Expected &Want;
  /// Digests computed this run (filled instead of checked when
  /// Emitting).
  Expected Got;
  bool Emitting = false;
  unsigned Jobs = 1;
  std::string TmpDir;
  Tracer &T;
  uint64_t Attempted = 0;
  std::vector<std::string> Failures;
};

/// Runs \p Cells as branch-fault campaigns through CampaignEngine::run
/// (checkpointing into the context's temp directory).
void runFaultCells(CampaignContext &Ctx, const std::vector<Cell> &Cells,
                   CampaignStats &Stats);
/// Runs \p Cells as recovery campaigns (FaultCampaign::prepare, then
/// runWithRecovery).
void runRecoveryCells(CampaignContext &Ctx, const std::vector<Cell> &Cells,
                      CampaignStats &Stats);

/// Serial per-call timings of the fault and recovery layers.
struct ProbeStats {
  std::vector<double> PrepareNs;
  std::vector<double> PlanNs;
  std::vector<double> InjectNs;
  std::vector<double> RecoveryInjectNs;
  uint64_t CleanDbtNs = 0;
  uint64_t CleanRecoveryNs = 0;
};

/// Serial probe over \p Cells: prepare, plan and single inject() calls,
/// injectWithRecovery calls, and a fault-free Dbt::run versus
/// RecoveryManager::run.
void runProbes(CampaignContext &Ctx, const std::vector<Cell> &Cells,
               ProbeStats &Stats);

/// Adds the campaign end-to-end metrics of \p Stats: CPU time from each
/// cell's median rescaled run, wall time from its fastest rescaled run
/// (being descheduled only ever adds wall time).
void addInjectionMetrics(std::map<std::string, double> &E2E,
                         const CampaignStats &Stats);
/// Adds the fault and recovery per-layer metrics.
void addCampaignLayerMetrics(std::map<std::string, double> &Layer,
                             const CampaignStats &Fault,
                             const CampaignStats &Recovery,
                             const ProbeStats &Probe, unsigned Jobs);

//===-- Statistics --------------------------------------------------------===//

double median(std::vector<double> Values);
/// Smallest sample (0 when empty): the least-disturbed measurement of a
/// CPU cost on a shared host, where interference only adds time.
double fastest(const std::vector<double> &Values);
/// Nearest-rank quantile, \p Q in [0, 1].
double quantile(std::vector<double> Values, double Q);
/// Geometric mean of the positive values (a failed op leaves a 0 ratio).
double geomean(const std::vector<double> &Values);
/// Spearman rank correlation (average ranks for ties).
double spearman(const std::vector<double> &X, const std::vector<double> &Y);

/// FNV-1a (hashOutput) over the little-endian bytes of \p Words, as 16
/// hex digits.
std::string digestWords(const std::vector<uint64_t> &Words);

} // namespace hostbench

#endif // CFED_HOSTBENCH_BENCH_H
