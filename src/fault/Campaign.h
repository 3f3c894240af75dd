//===- Campaign.h - Fault-injection campaigns -------------------*- C++ -*-===//
//
// Part of the CFED project (CGO'06 control-flow error detection repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic single-bit fault-injection campaigns against translated
/// programs — the paper's future-work item ("soft-error injection to
/// measure the actual effectiveness"), used here to validate the
/// coverage claims of Sections 2-3 empirically.
///
/// A campaign runs in three phases:
///
///  1. prepare(): a hook-free golden run records the reference output
///     hash, the instruction budget, the stabilized code-cache layout,
///     the per-site dynamic branch execution counts (translation is
///     deterministic, so later runs reproduce the same cache layout) and
///     an index of branch instants (vm/BranchCount.h).
///  2. plan():    a planning run picks random dynamic branch instances
///     and one single-bit fault each (32 offset bits + 4 flag bits, as
///     in Section 2's model) and classifies each candidate's branch-error
///     category analytically, enabling stratified per-category sampling.
///     Over all sites it runs hook-free between candidates, hooking
///     branches only in a window from the indexed instant before each
///     (DESIGN.md §12); it snapshots the run just before deviating candidates and stops at
///     the last candidate.
///  3. inject():  one run per planned fault, forked copy-on-write from
///     the latest snapshot at or before the fault's instant (DESIGN.md
///     §12) and faulted at the branch's retired-instruction index; the
///     outcome is
///     classified as detected-by-signature (the instrumentation's
///     .report_error, or ECCA's div-by-zero inside instrumentation),
///     detected-by-hardware (memory protection / illegal instruction —
///     the category-F detectors), masked (golden output), silent data
///     corruption, or timeout (the infinite-loop hazard of the relaxed
///     checking policies, Section 6).
///
//===----------------------------------------------------------------------===//

#ifndef CFED_FAULT_CAMPAIGN_H
#define CFED_FAULT_CAMPAIGN_H

#include "asm/Assembler.h"
#include "dbt/Dbt.h"
#include "fault/Category.h"
#include "fault/ErrorModel.h"
#include "fault/GuestRun.h"
#include "recovery/Recovery.h"
#include "telemetry/Provenance.h"
#include "vm/BranchCount.h"

#include <array>
#include <cstdint>
#include <unordered_set>
#include <vector>

namespace cfed {

/// Which single bit the fault flips.
enum class FaultKind : uint8_t {
  AddrBit, ///< One of the 32 bits of the branch's encoded offset.
  FlagBit, ///< One of the 4 FLAGS bits the branch observes.
};

/// Which fault sites a campaign draws from.
enum class SiteClass : uint8_t {
  Any,                  ///< Every offset branch in translated code.
  OriginalOnly,         ///< Branches translated from guest code.
  InstrumentationOnly,  ///< Branches the checker inserted (the RCF-vs-
                        ///< EdgCF safety experiment of Section 3.2).
};

/// One planned fault: XOR \p Mask into the offset or flag bits at the
/// \p Instance-th dynamic execution of a branch in the campaign's site
/// class. Under the single-bit model Mask has exactly one set bit and
/// \p Bit names it; multi-bit and burst masks keep Bit at the lowest
/// set bit for display.
struct PlannedFault {
  uint64_t Instance = 0;
  FaultKind Kind = FaultKind::AddrBit;
  unsigned Bit = 0;
  /// XOR mask over the 32 offset bits (AddrBit) or 4 flag bits
  /// (FlagBit). Never zero.
  uint64_t Mask = 1;
  /// Analytically determined branch-error category.
  BranchErrorCategory Category = BranchErrorCategory::NoError;
  /// The fault strikes an instrumentation-inserted branch.
  bool InstrSite = false;
  /// Cache address of the faulted branch.
  uint64_t SiteAddr = 0;
  /// Retired-instruction index of the faulted branch execution in the
  /// fault-free run (instructionCount() right after it): where an
  /// injection arms the fault. 0 when planning never reached it (the
  /// fault then never fires).
  uint64_t InsnIndex = 0;
};

/// The branch-error category a (\p Kind, \p Mask) fault would cause at
/// the offset branch \p I about to execute at \p InsnAddr, with flags
/// \p F and state \p State, against \p Translator's live block layout,
/// without applying it. NoError when control flow would not change.
BranchErrorCategory categorizeFault(const Dbt &Translator, uint64_t InsnAddr,
                                    const Instruction &I, const Flags &F,
                                    const CpuState &State, FaultKind Kind,
                                    uint64_t Mask);

/// How one injected run ended. Keep NumOutcomes in sync.
enum class Outcome : uint8_t {
  DetectedSignature, ///< The checking technique reported the error.
  DetectedHardware,  ///< Memory protection / illegal instruction / trap.
  Masked,            ///< Run completed with the golden output.
  Sdc,               ///< Run completed with corrupted output.
  Timeout,           ///< Run exceeded the instruction budget.
  Recovered,         ///< Detected, rolled back, completed with the golden
                     ///< output (recovery campaigns only).
  RecoveryFailed,    ///< Detected and rolled back, but the run did not
                     ///< reproduce the golden output.
};

inline constexpr unsigned NumOutcomes = 7;

/// Returns a short display name for \p O.
const char *getOutcomeName(Outcome O);

/// The registry counter name tallying \p O for faults of category
/// \p Cat: "fault.cat_<category>.<outcome>".
std::string getOutcomeCounterName(BranchErrorCategory Cat, Outcome O);

/// Maps a campaign outcome down to the telemetry layer's propagation
/// outcome (Recovered folds to Detected and RecoveryFailed to Sdc, but
/// recovery campaigns do not track propagation today).
telemetry::PropOutcome toPropOutcome(Outcome O);

/// Counter name "prop.cat_<category>.<class>" for campaign aggregation.
std::string getPropagationCounterName(BranchErrorCategory Cat,
                                      telemetry::PropClass C);

/// Histogram name "prop.distance.cat_<category>": divergence-to-detection
/// distance in guest instructions for DetectedAfterDivergence injections.
std::string getPropagationDistanceName(BranchErrorCategory Cat);

/// Renders the per-category divergence→outcome funnel from the
/// prop.cat_*.* counters (and prop.distance.cat_* histograms) of
/// \p Snap as an aligned table with a totals row. Returns "" when the
/// snapshot carries no propagation tallies — callers print nothing for
/// non-propagation campaigns.
std::string renderPropagationFunnel(const telemetry::RegistrySnapshot &Snap);

/// Rebuilds per-category outcome tallies from the
/// "fault.cat_*.*" counters of \p Snap — the inverse of the tally pass
/// campaigns use, so results and telemetry can never disagree.
struct CampaignResult;
CampaignResult campaignResultFromSnapshot(
    const telemetry::RegistrySnapshot &Snap);

/// Full record of one injected run.
struct InjectionReport {
  Outcome Result = Outcome::Masked;
  /// Dynamic instructions executed between the fault firing and the run
  /// ending — for detected outcomes, the detection latency that the
  /// relaxed checking policies trade performance against (Section 6).
  uint64_t LatencyInsns = 0;
  /// The fault actually fired (always true when the instance index is
  /// within the golden run's branch count).
  bool Fired = false;
  /// Propagation provenance versus the golden digest oracle. Only
  /// populated (Prop.Enabled) when the campaign ran with
  /// enablePropagation(true).
  telemetry::PropagationReport Prop;
  /// Full recovery-subsystem record, for runs executed under recovery.
  RecoveryReport Recovery;
  /// The instant where a recovery run rejoined the golden recovery run
  /// and was cut off (its Recovery fields then describe the whole run,
  /// the rest rebuilt from the golden run); 0 when it ran to its end.
  uint64_t RejoinedAt = 0;
};

/// Outcome tallies.
struct OutcomeCounts {
  uint64_t DetectedSig = 0;
  uint64_t DetectedHw = 0;
  uint64_t Masked = 0;
  uint64_t Sdc = 0;
  uint64_t Timeout = 0;
  uint64_t Recovered = 0;
  uint64_t RecoveryFailed = 0;

  uint64_t total() const {
    return DetectedSig + DetectedHw + Masked + Sdc + Timeout + Recovered +
           RecoveryFailed;
  }
  /// The tally of outcome \p O.
  uint64_t &of(Outcome O);
  void add(Outcome O) { ++of(O); }
  void merge(const OutcomeCounts &Other);

  bool operator==(const OutcomeCounts &Other) const = default;
};

/// Aggregated campaign results, bucketed by branch-error category.
struct CampaignResult {
  std::array<OutcomeCounts, NumBranchErrorCategories> PerCategory;
  uint64_t Injections = 0;

  OutcomeCounts &of(BranchErrorCategory Cat) {
    return PerCategory[static_cast<unsigned>(Cat)];
  }
  const OutcomeCounts &of(BranchErrorCategory Cat) const {
    return PerCategory[static_cast<unsigned>(Cat)];
  }
  OutcomeCounts totals() const;

  bool operator==(const CampaignResult &Other) const = default;
};

/// A fault-injection campaign against one program under one DBT
/// configuration.
class FaultCampaign {
public:
  FaultCampaign(const AsmProgram &Program, DbtConfig Config);

  /// Enables the fault-propagation provenance layer (DESIGN.md §14).
  /// Must be set before prepare(): the golden run then records the
  /// digest oracle, and every injection replays against it to fill
  /// InjectionReport::Prop. Attaching the digest recorder changes the
  /// code-cache layout (one Digest marker per sub-block), so results
  /// are comparable only within one enablePropagation setting.
  void enablePropagation(bool On) { PropEnabled = On; }

  /// The golden digest oracle recorded by prepare() when propagation is
  /// enabled. ProgramFp/ConfigFp carry the golden output hash and
  /// instruction count — enough to reject an oracle file recorded from
  /// a different program or configuration.
  const telemetry::GoldenTrace &goldenTrace() const { return Golden; }

  /// Golden run. Returns false if the program fails to load or does not
  /// halt within \p MaxInsns.
  bool prepare(uint64_t MaxInsns);

  /// Plans \p NumCandidates random faults over the \p Sites class.
  /// Candidates whose fault provably does not deviate control flow are
  /// returned with Category == NoError; callers typically filter them.
  /// \p Model selects the mask shape (the default reproduces the
  /// Section 2 single-bit model draw-for-draw). The planning run
  /// snapshots itself before deviating candidates (SnapshotSet),
  /// replacing the previous plan's snapshots, unless \p TakeSnapshots is
  /// false. With \p Recovery it runs under a RecoveryManager for that
  /// configuration and on to the end, so its snapshots carry the recovery
  /// run for injections under it (injectWithRecovery). The candidates
  /// are the same either way. Not thread-safe with injections.
  std::vector<PlannedFault> plan(uint64_t NumCandidates, uint64_t Seed,
                                 SiteClass Sites,
                                 FaultModel Model = FaultModel::SingleBit,
                                 bool TakeSnapshots = true,
                                 const RecoveryConfig *Recovery = nullptr);

  /// Snapshots the current plan took.
  size_t numSnapshots() const { return Snaps.numPlanSnapshots(); }

  /// Executes one planned fault and classifies the outcome. Thread-safe
  /// after prepare(): every injection runs in its own fork of a snapshot
  /// and only reads campaign state.
  Outcome inject(const PlannedFault &Fault) const;

  /// Like inject(), additionally reporting detection latency. With a
  /// \p Recorder the run is traced and one post-mortem bundle (reason
  /// "campaign-injection", annotated with the fault parameters and the
  /// outcome) is written per injection. Recorder use is serial-only.
  InjectionReport
  injectDetailed(const PlannedFault &Fault,
                 telemetry::FlightRecorder *Recorder = nullptr) const;

  /// Where an injected run starts.
  enum class RunFrom : uint8_t {
    /// The latest plan-time snapshot at or before the fault's instant.
    /// Under recovery it must carry the recovery run (a plan under the
    /// same RecoveryConfig), and the run stops where it rejoins the golden
    /// recovery run; otherwise the run takes Start.
    Snapshot,
    /// The load-time snapshot, instant 0, run to the end (bundle
    /// replays, whose event stream starts at program start, and the
    /// reference every recovery fork must equal).
    Start,
    /// A fresh load of the program: the replay every fork must equal.
    Load,
  };

  /// One injected run from \p From, plain or under \p Recovery, with a
  /// bundle when \p Recorder is set; \p Final, when set, receives the
  /// run's final translator registry (where it was cut off, for a run
  /// that rejoined the golden run). The fork-equals-replay differential
  /// runs one fault from each RunFrom and compares.
  InjectionReport injectFrom(const PlannedFault &Fault, RunFrom From,
                             const RecoveryConfig *Recovery = nullptr,
                             telemetry::FlightRecorder *Recorder = nullptr,
                             telemetry::RegistrySnapshot *Final = nullptr) const;

  /// Outcome of one injected run executed under a RecoveryManager
  /// (Result, Fired and Recovery are filled).
  using RecoveryInjection = InjectionReport;

  /// Executes one planned fault under checkpoint/rollback recovery. A run
  /// that detects, rolls back and reproduces the golden output classifies
  /// as Recovered; a rolled-back run with wrong output or no forward
  /// progress classifies as RecoveryFailed. Forks the plan's recovery
  /// snapshots when the plan ran under \p Recovery (RunFrom::Snapshot),
  /// else runs from instant 0. Thread-safe like inject().
  RecoveryInjection
  injectWithRecovery(const PlannedFault &Fault,
                     const RecoveryConfig &Recovery,
                     telemetry::FlightRecorder *Recorder = nullptr) const;

  /// The recovery-effectiveness phase: same plan and selection as run()
  /// (the fault sets are identical for equal NumInjections, Seed and
  /// Sites), but every injection executes under recovery, adding the
  /// recovery.* ladder counters to metrics().
  CampaignResult runWithRecovery(uint64_t NumInjections, uint64_t Seed,
                                 SiteClass Sites,
                                 const RecoveryConfig &Recovery,
                                 unsigned Jobs = 1);

  /// Runs a full campaign: plan, filter out NoError candidates, inject —
  /// the CampaignEngine's batch loop as one checkpoint-free batch, so
  /// the registry equals the unsharded engine's for any \p Jobs.
  CampaignResult run(uint64_t NumInjections, uint64_t Seed, SiteClass Sites,
                     unsigned Jobs = 1);

  uint64_t goldenInsns() const { return Reference.Insns; }
  uint64_t goldenHash() const { return Reference.Hash; }
  /// Dynamic branch executions in the golden run for \p Sites.
  uint64_t branchExecutions(SiteClass Sites) const;

  /// Cumulative telemetry across every run()/runWithRecovery() call on
  /// this campaign: the engine registry's "fault.cat_<category>.<outcome>"
  /// counters, "fault.injections" and fault.latency.cat_* histograms.
  const telemetry::MetricsRegistry &metrics() const { return Metrics; }

private:
  /// run()/runWithRecovery(): one checkpoint-free batch through the
  /// campaign batch loop, folded into Metrics.
  CampaignResult runOneBatch(uint64_t NumInjections, uint64_t Seed,
                             SiteClass Sites, unsigned Jobs,
                             const RecoveryConfig *Recovery);

  const AsmProgram &Program;
  DbtConfig Config;
  telemetry::MetricsRegistry Metrics;
  /// The golden run (output hash, instruction count, budget).
  GoldenRun Reference;
  /// Cache addresses of the checker-inserted branch sites.
  std::unordered_set<uint64_t> InstrSites;
  /// Golden-run branch executions per SiteClass.
  std::array<uint64_t, 3> BranchExecs{};
  /// The golden run's branch-instant index, where SiteClass::Any plans
  /// open windows.
  std::vector<BranchCounter::IndexEntry> Index;
  bool Prepared = false;
  bool PropEnabled = false;
  telemetry::GoldenTrace Golden;
  /// Every injection forks one of these.
  SnapshotSet Snaps;
};

} // namespace cfed

#endif // CFED_FAULT_CAMPAIGN_H
