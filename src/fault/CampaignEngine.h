//===- CampaignEngine.h - Resumable sharded campaign engine -----*- C++ -*-===//
//
// Part of the CFED project (CGO'06 control-flow error detection repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The campaign engine: the long-running, resumable injection service
/// behind the paper's "soft-error injection" future-work item. One batch
/// loop (fault/BatchLoop.h) drives every mode of both fault
/// (CampaignEngine) and attack (AttackEngine) campaigns, and the
/// in-process campaign runs as single checkpoint-free batches:
///
///  - The plan is a pure function of the seed: a primary schedule plus a
///    per-category reserve, fingerprinted by a plan hash.
///  - The loop walks the global primary schedule in batches, executing
///    only the slots this shard owns (slot i belongs to shard
///    i mod NumShards; unsharded is NumShards = 1). A batch is built
///    serially, injected in parallel into position-indexed slots and
///    tallied serially, so results never depend on the job count.
///  - After every batch the cumulative registry and cursors are
///    checkpointed atomically, so a killed run resumes exactly where it
///    stopped; shard result files merge into a report identical to the
///    unsharded run.
///  - Early stopping closes a branch-error-category cell once the Wilson
///    interval on its SDC rate is tight enough, skipping (and counting)
///    its remaining slots and reallocating them from the reserve.
///  - Recovery, post-mortem bundles and the event trace are per-run
///    attachments of the one EngineConfig both kinds take; a field a
///    kind cannot honour is refused, never ignored.
///  - A shard takes CheckpointInterval owned slots per batch and never
///    waits on its siblings (DESIGN.md §13).
///
//===----------------------------------------------------------------------===//

#ifndef CFED_FAULT_CAMPAIGNENGINE_H
#define CFED_FAULT_CAMPAIGNENGINE_H

#include "fault/Attack.h"
#include "fault/Campaign.h"
#include "support/Stats.h"

#include <functional>
#include <string>

namespace cfed {

/// The one configuration of both engine kinds (CampaignEngine and
/// AttackEngine), on top of the program and its DbtConfig.
struct EngineConfig {
  /// Primary injection budget (schedule slots across all shards).
  uint64_t NumInjections = 0;
  uint64_t Seed = 1;
  SiteClass Sites = SiteClass::Any;
  FaultModel Model = FaultModel::SingleBit;
  /// Golden-run instruction budget handed to prepare().
  uint64_t MaxInsns = 50000000;
  unsigned Jobs = 1;

  /// Owned schedule slots per batch. A checkpoint follows every batch,
  /// so this is also the unit of work lost to a kill.
  uint64_t CheckpointInterval = 64;
  /// Checkpoint file path; empty disables checkpointing and resume.
  std::string CheckpointFile;

  /// This process handles primary schedule slots with
  /// index % NumShards == ShardIndex.
  unsigned ShardIndex = 0;
  unsigned NumShards = 1;

  /// Early stopping: close a cell once the Wilson interval on its SDC
  /// rate has half-width <= StopHalfWidth. 0 disables. Unsharded only:
  /// a lone shard cannot see global cell tightness.
  double StopHalfWidth = 0.0;
  /// Critical value of the Wilson interval (1.96 = 95%).
  double StopZ = 1.96;

  /// Live telemetry: when set, a live snapshot (registry + heartbeat) is
  /// published here atomically after every batch.
  std::string LiveExportFile;
  /// Run identifier stamped into live snapshots; defaults to
  /// "campaign-<seed>".
  std::string RunId;

  /// Fault-propagation provenance (DESIGN.md §14): every injection
  /// replays against the golden run's digest oracle, feeding prop.*
  /// funnel counters and distance histograms into the cumulative
  /// (checkpointed, shard-invariant) registry. The digest markers change
  /// the code-cache layout, so the plan hash differs from a plain run's.
  bool TrackPropagation = false;
  /// When non-empty (and TrackPropagation), the golden run's digest
  /// oracle is also saved to this file after prepare().
  std::string GoldenTraceFile;

  /// Per-run attachments, not owned; nullptr leaves each off.
  ///  - Recovery: every injection runs under checkpoint/rollback
  ///    recovery (outcomes gain Recovered/RecoveryFailed, the registry
  ///    the recovery.* ladder counters). Folded into the plan hash, so a
  ///    recovery checkpoint never resumes a plain campaign or the
  ///    reverse, and marked "recovery":true in result files.
  ///  - Recorder: after the loop, the slots this process ran that its
  ///    kind bundles (every fault; Evaded/Timeout attacks) are re-injected
  ///    serially with the recorder, one post-mortem bundle each.
  ///  - Tracer: one CampaignInjection event per tallied slot (ordinal,
  ///    outcome, site, and the detection latency — or the rollbacks under
  ///    recovery; attacks carry 0).
  const RecoveryConfig *Recovery = nullptr;
  telemetry::FlightRecorder *Recorder = nullptr;
  telemetry::EventTracer *Tracer = nullptr;

  /// Test hook: stop (with Finished = false) after this many batches;
  /// 0 = run to completion. A rerun with the same checkpoint continues.
  uint64_t MaxBatches = 0;
  /// Test hook: invoked after every successful checkpoint write with
  /// the number of completed injections.
  std::function<void(uint64_t)> OnCheckpoint;
};

/// Per-cell (branch-error category) accounting in the final report.
struct CellReport {
  BranchErrorCategory Category = BranchErrorCategory::A;
  OutcomeCounts Counts;
  /// Observed SDC rate and its Wilson interval at StopZ.
  double SdcRate = 0.0;
  WilsonInterval Interval;
  /// The cell closed by early stopping.
  bool Stopped = false;
  /// Scheduled injections skipped because the cell had closed.
  uint64_t Skipped = 0;
  /// Injections this cell received from other cells' freed budget.
  uint64_t Reallocated = 0;
};

/// What every run of the campaign batch loop reports (one shard's share
/// when sharded).
struct BatchTotals {
  /// Cumulative instruments (fault.* or attack.* tallies, fault.engine.*
  /// accounting), including those a resumed run restored.
  telemetry::RegistrySnapshot Registry;
  /// Injections actually executed (including resumed-from-checkpoint).
  uint64_t Completed = 0;
  /// Primary schedule slots assigned to this shard.
  uint64_t Planned = 0;
  /// False when MaxBatches cut the run short.
  bool Finished = true;
  /// The run continued from an existing checkpoint.
  bool Resumed = false;
};

/// Result of one engine run. Registry carries the fault.cat_*.* outcome
/// counters and fault.latency.cat_* histograms.
struct EngineReport : BatchTotals {
  CampaignResult Result;
  std::vector<CellReport> Cells;
  /// Slots skipped by early stopping, total.
  uint64_t Skipped = 0;
};

/// A parsed campaign result file (one shard's output).
struct ShardResult {
  unsigned Shard = 0;
  unsigned NumShards = 1;
  uint64_t Seed = 0;
  /// Fault model name, or "attack" for attack campaigns.
  std::string Model;
  /// The campaign ran under checkpoint/rollback recovery.
  bool Recovery = false;
  uint64_t Completed = 0;
  uint64_t Skipped = 0;
  bool Finished = true;
  telemetry::RegistrySnapshot Registry;
};

/// On-disk checkpoint state, exposed for the torture tests.
struct EngineCheckpoint {
  uint64_t Version = 0;
  uint64_t PlanHash = 0;
  unsigned Shard = 0;
  unsigned NumShards = 1;
  /// Index of this shard's next unprocessed owned slot.
  uint64_t Cursor = 0;
  uint64_t Completed = 0;
  /// Per-category consumption of the reserve plan.
  std::array<uint64_t, NumBranchErrorCategories> ReserveCursors{};
  telemetry::RegistrySnapshot Registry;
};

/// The current checkpoint format version.
inline constexpr uint64_t EngineCheckpointVersion = 1;

class CampaignEngine {
public:
  /// Validates \p Engine (fatal on an invalid shard spec, a zero
  /// checkpoint interval, early stopping combined with sharding, or
  /// propagation tracking under recovery, whose runs compute no
  /// propagation).
  CampaignEngine(const AsmProgram &Program, DbtConfig Config,
                 EngineConfig Engine);

  /// Runs the campaign: golden run, deterministic plan, the batch loop
  /// and the final report. Resumes from a matching checkpoint in
  /// Engine.CheckpointFile; fatal on a corrupt or mismatching one.
  EngineReport run();

  /// Serializes \p Report as a single-line campaign result file.
  static std::string resultToJson(const EngineReport &Report,
                                  const EngineConfig &Engine);

  /// Parses a resultToJson() file; false (and \p Error) on mismatch.
  static bool parseShardResult(const std::string &Text, ShardResult &Out,
                               std::string &Error);

  /// Folds shard results into one report equal to the unsharded run:
  /// counters sum, histograms fold, completed/skipped add. Validates
  /// that seeds, shard counts, models and recovery marks agree and no
  /// shard repeats.
  static bool mergeShards(const std::vector<ShardResult> &Shards,
                          ShardResult &Out, std::string &Error);

  /// How loading a checkpoint file ended.
  enum class LoadStatus {
    Ok,      ///< Parsed and structurally valid.
    Missing, ///< No file at the path (a fresh campaign).
    Corrupt, ///< Truncated, unparsable, or structurally invalid.
  };

  /// Loads and validates the checkpoint structure (not the plan hash —
  /// run() checks that against the live plan). \p Error describes
  /// Corrupt results.
  static LoadStatus loadCheckpoint(const std::string &Path,
                                   EngineCheckpoint &Out,
                                   std::string &Error);

  /// Writes \p Ckpt atomically (temp file + rename), so a kill at any
  /// point leaves either the previous checkpoint or the new one.
  static bool writeCheckpoint(const std::string &Path,
                              const EngineCheckpoint &Ckpt,
                              std::string &Error);

  /// Histogram bounds shared by every fault.latency.* instrument
  /// (powers of two, 1 .. 2^20 instructions).
  static std::vector<uint64_t> latencyBounds();

  /// Name of the per-category detection-latency histogram.
  static std::string getLatencyHistogramName(BranchErrorCategory Cat);

private:
  const AsmProgram &Program;
  DbtConfig Config;
  EngineConfig Engine;
};

/// Result of one attack-engine run. Registry carries the
/// attack.<family>.* outcome counters plus attack.attacks /
/// attack.gadget_valid.
struct AttackEngineReport : BatchTotals {
  AttackResult Result;
};

/// Resumable, shardable adversarial campaigns on top of AttackCampaign,
/// run by the campaign engine's batch loop: the same EngineConfig, the
/// same EngineCheckpoint record (under kind "cfed-attack-checkpoint", so
/// fault and attack checkpoints never mix) and result files of kind
/// "cfed-campaign-result" (model "attack"), which mergeShards folds like
/// fault shards.
class AttackEngine {
public:
  /// Validates \p Engine (fatal on an invalid shard spec, a zero
  /// checkpoint interval, or a field only fault campaigns read: early
  /// stopping, propagation tracking, a golden trace, or sites or a fault
  /// model other than the defaults).
  AttackEngine(const AsmProgram &Program, DbtConfig Config,
               EngineConfig Engine);

  /// Runs the campaign like CampaignEngine::run; byte-identical to an
  /// uninterrupted run for any kill/resume point, job count, or shard
  /// split.
  AttackEngineReport run();

  /// Serializes \p Report as a single-line campaign result file
  /// mergeable by CampaignEngine::mergeShards.
  static std::string resultToJson(const AttackEngineReport &Report,
                                  const EngineConfig &Engine);

  /// CampaignEngine's checkpoint I/O under the attack kind.
  static bool writeCheckpoint(const std::string &Path,
                              const EngineCheckpoint &Ckpt,
                              std::string &Error);
  static CampaignEngine::LoadStatus
  loadCheckpoint(const std::string &Path, EngineCheckpoint &Out,
                 std::string &Error);

private:
  const AsmProgram &Program;
  DbtConfig Config;
  EngineConfig Engine;
};

} // namespace cfed

#endif // CFED_FAULT_CAMPAIGNENGINE_H
