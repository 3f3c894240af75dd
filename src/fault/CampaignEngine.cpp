//===- CampaignEngine.cpp - Resumable sharded campaign engine -------------------===//

#include "fault/CampaignEngine.h"

#include "fault/BatchLoop.h"
#include "support/Diagnostics.h"
#include "support/FileIO.h"
#include "support/Json.h"
#include "telemetry/FlightRecorder.h"
#include "telemetry/LiveExport.h"
#include "telemetry/Trace.h"

#include <cinttypes>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <unistd.h>

using namespace cfed;

//===----------------------------------------------------------------------===//
// Names, bounds, hashing
//===----------------------------------------------------------------------===//

std::vector<uint64_t> CampaignEngine::latencyBounds() {
  std::vector<uint64_t> Bounds;
  for (unsigned Shift = 0; Shift <= 20; ++Shift)
    Bounds.push_back(uint64_t(1) << Shift);
  return Bounds;
}

std::string CampaignEngine::getLatencyHistogramName(BranchErrorCategory Cat) {
  return std::string("fault.latency.cat_") + getCategoryName(Cat);
}

namespace {

std::string getSkipCounterName(BranchErrorCategory Cat) {
  return std::string("fault.engine.skipped.cat_") + getCategoryName(Cat);
}

std::string getReallocCounterName(BranchErrorCategory Cat) {
  return std::string("fault.engine.realloc.cat_") + getCategoryName(Cat);
}

/// Folds \p Values (each as 8 little-endian bytes) into FNV-1a \p Hash.
template <typename... Ts> uint64_t fnv1a(uint64_t Hash, Ts... Values) {
  for (uint64_t Value : {static_cast<uint64_t>(Values)...})
    for (unsigned I = 0; I < 8; ++I) {
      Hash ^= (Value >> (I * 8)) & 0xff;
      Hash *= 0x100000001b3ULL;
    }
  return Hash;
}

constexpr uint64_t FnvOffsetBasis = 0xcbf29ce484222325ULL;

std::string toHex(uint64_t Value) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%016" PRIx64, Value);
  return Buf;
}

bool fromHex(const std::string &Text, uint64_t &Out) {
  if (Text.empty() || Text.size() > 16 ||
      Text.find_first_not_of("0123456789abcdef") != std::string::npos)
    return false;
  Out = std::strtoull(Text.c_str(), nullptr, 16);
  return true;
}

/// Reads the shard spec of a checkpoint or result file exactly; false
/// unless both are integers and the index is below a non-zero count.
bool readShardSpec(const json::JsonValue &Root, unsigned &Shard,
                   unsigned &NumShards) {
  uint64_t Index, Count;
  if (!json::readUnsigned(Root["shard"], Index, UINT_MAX) ||
      !json::readUnsigned(Root["num_shards"], Count, UINT_MAX) ||
      Count == 0 || Index >= Count)
    return false;
  Shard = static_cast<unsigned>(Index);
  NumShards = static_cast<unsigned>(Count);
  return true;
}

/// The shard-spec and batch-size check both engines' constructors run.
void checkEngineSpec(const EngineConfig &Engine, const char *Noun) {
  if (Engine.NumShards < 1 || Engine.ShardIndex >= Engine.NumShards)
    reportFatalErrorf("invalid shard spec %u/%u: the shard index must be "
                      "below the shard count",
                      Engine.ShardIndex, Engine.NumShards);
  if (Engine.CheckpointInterval < 1)
    reportFatalErrorf("%s checkpoint interval must be at least 1", Noun);
}

/// The error categories cells range over (NoError is never scheduled).
bool isCellCategory(BranchErrorCategory Cat) {
  return Cat != BranchErrorCategory::NoError;
}

struct CellState {
  OutcomeCounts Counts;
  WilsonInterval Interval;
  bool Closed = false;
};

using CellStates = std::array<CellState, NumBranchErrorCategories>;

/// Rebuilds per-cell tallies and Wilson intervals from the cumulative
/// snapshot — the only state that survives a kill, so closing decisions
/// are identical between an interrupted-and-resumed run and an
/// uninterrupted one.
CellStates computeCells(const telemetry::RegistrySnapshot &Snap,
                        double StopHalfWidth, double StopZ) {
  CampaignResult Result = campaignResultFromSnapshot(Snap);
  CellStates Cells;
  for (unsigned C = 0; C < NumBranchErrorCategories; ++C) {
    auto Cat = static_cast<BranchErrorCategory>(C);
    CellState &Cell = Cells[C];
    Cell.Counts = Result.of(Cat);
    Cell.Interval =
        wilsonInterval(Cell.Counts.Sdc, Cell.Counts.total(), StopZ);
    Cell.Closed = StopHalfWidth > 0.0 && isCellCategory(Cat) &&
                  Cell.Interval.halfWidth() <= StopHalfWidth;
  }
  return Cells;
}

/// Heartbeat for a live snapshot: this shard's progress and its own
/// per-cell counts, intervals and closure flags (\p Cells — so merging
/// heartbeats across shards never double-counts).
telemetry::Heartbeat makeHeartbeat(const EngineConfig &Engine,
                                   uint64_t Cursor, uint64_t Planned,
                                   uint64_t Completed,
                                   const telemetry::RegistrySnapshot &Own,
                                   const CellStates &Cells) {
  telemetry::Heartbeat Beat;
  Beat.Present = true;
  Beat.Shard = Engine.ShardIndex;
  Beat.NumShards = Engine.NumShards;
  Beat.Cursor = Cursor;
  Beat.Planned = Planned;
  Beat.Completed = Completed;
  Beat.Rung = telemetry::recoveryRungFromSnapshot(Own);
  for (unsigned C = 0; C < NumBranchErrorCategories; ++C) {
    auto Cat = static_cast<BranchErrorCategory>(C);
    if (!isCellCategory(Cat))
      continue;
    Beat.Skipped += Own.counterOr(getSkipCounterName(Cat));
    const CellState &Cell = Cells[C];
    Beat.Cells.push_back({getCategoryName(Cat), Cell.Counts.total(),
                          Cell.Counts.Sdc, Cell.Interval.Low,
                          Cell.Interval.High, Cell.Closed});
  }
  return Beat;
}

/// Atomic live-snapshot write; failures are fatal like checkpoint
/// failures.
void publishLiveFile(const std::string &Path, const std::string &RunId,
                     uint64_t Seq,
                     const telemetry::RegistrySnapshot &Registry,
                     const telemetry::Heartbeat &Beat) {
  telemetry::LiveSnapshot Snap;
  Snap.RunId = RunId;
  Snap.Pid = static_cast<uint64_t>(::getpid());
  Snap.Seq = Seq;
  Snap.WallMs = telemetry::wallClockMs();
  Snap.Registry = Registry;
  Snap.Beat = Beat;
  std::string Error;
  if (!telemetry::writeLiveSnapshot(Path, Snap, Error))
    reportFatalErrorf("live export failed: %s", Error.c_str());
}

} // namespace

//===----------------------------------------------------------------------===//
// Checkpoint I/O
//===----------------------------------------------------------------------===//

namespace {

std::string checkpointToJson(const EngineCheckpoint &Ckpt,
                             const char *Kind) {
  std::string Out = "{\"kind\":\"";
  Out += Kind;
  Out += "\",\"version\":";
  Out += std::to_string(Ckpt.Version);
  Out += ",\"plan_hash\":\"" + toHex(Ckpt.PlanHash) + '"';
  Out += ",\"shard\":" + std::to_string(Ckpt.Shard);
  Out += ",\"num_shards\":" + std::to_string(Ckpt.NumShards);
  Out += ",\"cursor\":" + std::to_string(Ckpt.Cursor);
  Out += ",\"completed\":" + std::to_string(Ckpt.Completed);
  // Always false: the field stays so checkpoints keep their bytes.
  Out += ",\"coordinated\":false";
  Out += ",\"reserve_cursors\":[";
  for (unsigned C = 0; C < NumBranchErrorCategories; ++C) {
    if (C)
      Out += ',';
    Out += std::to_string(Ckpt.ReserveCursors[C]);
  }
  Out += "],\"registry\":";
  Out += Ckpt.Registry.toJson();
  Out += '}';
  return Out;
}

/// Kind strings distinguishing fault-campaign from attack-campaign
/// checkpoints: a resume must never silently mix the two.
constexpr const char *CampaignCheckpointKind = "cfed-campaign-checkpoint";
constexpr const char *AttackCheckpointKind = "cfed-attack-checkpoint";

bool writeCheckpointKind(const std::string &Path,
                         const EngineCheckpoint &Ckpt, const char *Kind,
                         std::string &Error) {
  return writeFileAtomic(Path, checkpointToJson(Ckpt, Kind) + '\n', Error);
}

using LoadStatus = CampaignEngine::LoadStatus;

LoadStatus loadCheckpointKind(const std::string &Path, EngineCheckpoint &Out,
                              const char *Kind, std::string &Error) {
  std::string Text;
  if (!readWholeFile(Path, Text))
    return LoadStatus::Missing;
  auto Corrupt = [&](const std::string &Why) {
    Error = "checkpoint '" + Path + "' " + Why;
    return LoadStatus::Corrupt;
  };
  json::JsonValue Root;
  json::JsonParser Parser(Text);
  if (!Parser.parse(Root) || Root.K != json::JsonValue::Object)
    return Corrupt("is truncated or not valid JSON");
  if (Root["kind"].Str != Kind) {
    Error = "'" + Path +
            (Kind == std::string(AttackCheckpointKind)
                 ? "' is not an attack campaign checkpoint"
                 : "' is not a campaign checkpoint");
    return LoadStatus::Corrupt;
  }
  if (!json::readUnsigned(Root["version"], Out.Version) ||
      Out.Version != EngineCheckpointVersion)
    return Corrupt("has version '" + Root["version"].Literal +
                   "'; this build reads version " +
                   std::to_string(EngineCheckpointVersion));
  if (!fromHex(Root["plan_hash"].Str, Out.PlanHash))
    return Corrupt("has a malformed plan hash");
  if (!readShardSpec(Root, Out.Shard, Out.NumShards))
    return Corrupt("has a malformed shard spec");
  const json::JsonValue &Reserve = Root["reserve_cursors"];
  bool Progress = json::readUnsigned(Root["cursor"], Out.Cursor) &&
                  json::readUnsigned(Root["completed"], Out.Completed) &&
                  Reserve.K == json::JsonValue::Array &&
                  Reserve.Items.size() == NumBranchErrorCategories;
  for (unsigned C = 0; Progress && C < NumBranchErrorCategories; ++C)
    Progress = json::readUnsigned(Reserve.Items[C], Out.ReserveCursors[C]);
  if (!Progress)
    return Corrupt("has a malformed progress record");
  // Lockstep (coordinated) sharded runs, which this build no longer
  // has, wrote true here; their cursor counts global slots, not owned
  // ones, so reading it as a plain cursor would skip or repeat slots.
  if (Root["coordinated"].B)
    return Corrupt("was written by a coordinated sharded run, which this "
                   "build cannot continue");
  std::string SnapError;
  if (!telemetry::snapshotFromJson(Root["registry"], Out.Registry,
                                   SnapError))
    return Corrupt("registry: " + SnapError);
  return LoadStatus::Ok;
}

} // namespace

bool CampaignEngine::writeCheckpoint(const std::string &Path,
                                     const EngineCheckpoint &Ckpt,
                                     std::string &Error) {
  return writeCheckpointKind(Path, Ckpt, CampaignCheckpointKind, Error);
}

CampaignEngine::LoadStatus
CampaignEngine::loadCheckpoint(const std::string &Path, EngineCheckpoint &Out,
                               std::string &Error) {
  return loadCheckpointKind(Path, Out, CampaignCheckpointKind, Error);
}

bool AttackEngine::writeCheckpoint(const std::string &Path,
                                   const EngineCheckpoint &Ckpt,
                                   std::string &Error) {
  return writeCheckpointKind(Path, Ckpt, AttackCheckpointKind, Error);
}

CampaignEngine::LoadStatus
AttackEngine::loadCheckpoint(const std::string &Path, EngineCheckpoint &Out,
                             std::string &Error) {
  return loadCheckpointKind(Path, Out, AttackCheckpointKind, Error);
}

//===----------------------------------------------------------------------===//
// Result files and shard merging
//===----------------------------------------------------------------------===//

namespace {

/// The one campaign-result writer. Fault and attack shards share kind
/// "cfed-campaign-result", so parseShardResult and mergeShards fold them
/// alike (the registries carry fault.* or attack.* counters).
std::string resultJson(const EngineConfig &Engine, const char *Model,
                       const BatchTotals &Report, uint64_t Skipped) {
  std::string Out = "{\"kind\":\"cfed-campaign-result\",\"version\":1";
  Out += ",\"shard\":" + std::to_string(Engine.ShardIndex);
  Out += ",\"num_shards\":" + std::to_string(Engine.NumShards);
  Out += ",\"seed\":" + std::to_string(Engine.Seed);
  Out += ",\"model\":\"";
  Out += Model;
  // Absent means false, so plain campaigns keep their result bytes.
  if (Engine.Recovery)
    Out += "\",\"recovery\":true";
  else
    Out += '"';
  Out += ",\"completed\":" + std::to_string(Report.Completed);
  Out += ",\"skipped\":" + std::to_string(Skipped);
  Out += ",\"finished\":";
  Out += Report.Finished ? "true" : "false";
  Out += ",\"registry\":";
  Out += Report.Registry.toJson();
  Out += '}';
  return Out;
}

} // namespace

std::string CampaignEngine::resultToJson(const EngineReport &Report,
                                         const EngineConfig &Engine) {
  return resultJson(Engine, getFaultModelName(Engine.Model), Report,
                    Report.Skipped);
}

std::string AttackEngine::resultToJson(const AttackEngineReport &Report,
                                       const EngineConfig &Engine) {
  return resultJson(Engine, "attack", Report, /*Skipped=*/0);
}

bool CampaignEngine::parseShardResult(const std::string &Text,
                                      ShardResult &Out, std::string &Error) {
  json::JsonValue Root;
  json::JsonParser Parser(Text);
  if (!Parser.parse(Root) || Root.K != json::JsonValue::Object) {
    Error = "not valid JSON";
    return false;
  }
  // Live-exporter snapshots are in-flight partial data: folding one into
  // a merge would silently undercount the campaign. Refuse them before
  // the kind check so the diagnostic names the actual mistake.
  if (telemetry::isLiveSnapshotJson(Root)) {
    Error = "this is a live telemetry snapshot (seq/heartbeat fields), "
            "not a final campaign result; live files are in-flight "
            "partial data — merge the --campaign-out files written when "
            "the shards finish";
    return false;
  }
  std::string Kind = Root["kind"].Str;
  if (Kind != "cfed-campaign-result" && Kind != "cfed-campaign-merged") {
    Error = "not a campaign result file (kind '" + Kind + "')";
    return false;
  }
  uint64_t Version = 0;
  if (!json::readUnsigned(Root["version"], Version) || Version != 1) {
    Error = "malformed or unsupported version (this build reads 1)";
    return false;
  }
  if (!readShardSpec(Root, Out.Shard, Out.NumShards)) {
    Error = "malformed shard spec (shard must be an integer below a "
            "non-zero integer num_shards)";
    return false;
  }
  if (!json::readUnsigned(Root["seed"], Out.Seed) ||
      !json::readUnsigned(Root["completed"], Out.Completed) ||
      !json::readUnsigned(Root["skipped"], Out.Skipped)) {
    Error = "malformed seed, completed or skipped count (each must be a "
            "non-negative 64-bit integer)";
    return false;
  }
  // Every writer names the model. A file without one reads as "", which
  // never matches a written model, so mergeShards refuses to mix it in.
  const json::JsonValue &Model = Root["model"];
  if (Model.K != json::JsonValue::String && Model.K != json::JsonValue::Null) {
    Error = "malformed model (must be a string)";
    return false;
  }
  Out.Model = Model.Str;
  Out.Recovery = Root["recovery"].B;
  Out.Finished = Root["finished"].B;
  std::string SnapError;
  if (!telemetry::snapshotFromJson(Root["registry"], Out.Registry,
                                   SnapError)) {
    Error = "registry: " + SnapError;
    return false;
  }
  return true;
}

bool CampaignEngine::mergeShards(const std::vector<ShardResult> &Shards,
                                 ShardResult &Out, std::string &Error) {
  if (Shards.empty()) {
    Error = "no shard results to merge";
    return false;
  }
  // A set, not a bitmap sized by the (file-supplied) shard count.
  std::set<unsigned> Seen;
  for (const ShardResult &S : Shards) {
    if (S.Seed != Shards[0].Seed || S.NumShards != Shards[0].NumShards) {
      Error = "shard results disagree on seed or shard count; they are "
              "not slices of one campaign";
      return false;
    }
    if (S.Model != Shards[0].Model || S.Recovery != Shards[0].Recovery) {
      auto Kind = [](const ShardResult &R) {
        return "'" + R.Model + "'" + (R.Recovery ? " with recovery" : "");
      };
      Error = "shard results disagree on the campaign kind (model " +
              Kind(S) + " vs " + Kind(Shards[0]) +
              "); they are not slices of one campaign";
      return false;
    }
    if (S.Shard >= S.NumShards) {
      Error = "shard index " + std::to_string(S.Shard) +
              " out of range for " + std::to_string(S.NumShards) + " shards";
      return false;
    }
    if (!Seen.insert(S.Shard).second) {
      Error = "shard " + std::to_string(S.Shard) +
              " appears twice; merging it would double-count";
      return false;
    }
  }

  // Counters and histograms are pure sums over disjoint injection sets,
  // so folding through a registry reproduces the unsharded run's
  // snapshot regardless of merge order (names keep the registry's
  // sorted ordering).
  telemetry::MetricsRegistry Merged;
  Out = ShardResult();
  Out.NumShards = Shards[0].NumShards;
  Out.Seed = Shards[0].Seed;
  Out.Model = Shards[0].Model;
  Out.Recovery = Shards[0].Recovery;
  Out.Finished = true;
  for (const ShardResult &S : Shards) {
    Merged.merge(S.Registry);
    Out.Completed += S.Completed;
    Out.Skipped += S.Skipped;
    Out.Finished = Out.Finished && S.Finished;
  }
  Out.Registry = Merged.snapshot();
  return true;
}

//===----------------------------------------------------------------------===//
// The batch loop
//===----------------------------------------------------------------------===//
//
// Every campaign entry point runs this loop (through runBatchLoop in
// BatchLoop.h) over the *global* primary schedule, stepping through only
// the slots it owns (see the header and DESIGN.md §13). A shard's
// batches hold CheckpointInterval owned slots, and its cursor, in
// checkpoints and live heartbeats too, counts owned slots.

BatchTotals cfed::runBatchSchedule(
    const EngineConfig &Engine, const char *CheckpointKind, const char *Noun,
    const SlotPlan &Plan,
    const std::function<BranchErrorCategory(uint64_t)> &Category,
    const std::function<void(const std::vector<uint64_t> &,
                             telemetry::MetricsRegistry &)> &RunBatch) {
  const uint64_t Total = Plan.Primary.size();
  const uint64_t NumShards = Engine.NumShards;
  const uint64_t Shard = Engine.ShardIndex;
  const bool EarlyStop = Engine.StopHalfWidth > 0.0;
  const uint64_t Interval = Engine.CheckpointInterval;
  // The shard owns global slots Shard, Shard + NumShards, ...
  const uint64_t Planned =
      Total > Shard ? (Total - Shard + NumShards - 1) / NumShards : 0;

  const std::string RunId = Engine.RunId.empty()
                                ? "campaign-" + std::to_string(Engine.Seed)
                                : Engine.RunId;

  // Cumulative state; a checkpoint restores it exactly.
  telemetry::MetricsRegistry Cumulative;
  uint64_t Cursor = 0;
  uint64_t Completed = 0;
  std::array<uint64_t, NumBranchErrorCategories> ReserveCursors{};
  bool Resumed = false;

  if (!Engine.CheckpointFile.empty()) {
    const char *Path = Engine.CheckpointFile.c_str();
    EngineCheckpoint Ckpt;
    std::string Error;
    switch (loadCheckpointKind(Path, Ckpt, CheckpointKind, Error)) {
    case LoadStatus::Missing:
      break;
    case LoadStatus::Corrupt:
      reportFatalErrorf("%s (delete the file to restart the campaign "
                        "from scratch)",
                        Error.c_str());
      break;
    case LoadStatus::Ok:
      if (Ckpt.PlanHash != Plan.Hash)
        reportFatalErrorf(
            "checkpoint '%s' belongs to a different %s (plan hash %s, "
            "this campaign is %s); refusing to mix results",
            Path, Noun, toHex(Ckpt.PlanHash).c_str(),
            toHex(Plan.Hash).c_str());
      if (Ckpt.Shard != Engine.ShardIndex ||
          Ckpt.NumShards != Engine.NumShards)
        reportFatalErrorf("checkpoint '%s' was written by shard %u/%u, not "
                          "%u/%u",
                          Path, Ckpt.Shard, Ckpt.NumShards,
                          Engine.ShardIndex, Engine.NumShards);
      if (Ckpt.Cursor > Planned)
        reportFatalErrorf("checkpoint '%s' cursor %llu exceeds the plan "
                          "(%llu slots)",
                          Path, static_cast<unsigned long long>(Ckpt.Cursor),
                          static_cast<unsigned long long>(Planned));
      Cumulative.merge(Ckpt.Registry);
      Cursor = Ckpt.Cursor;
      Completed = Ckpt.Completed;
      ReserveCursors = Ckpt.ReserveCursors;
      Resumed = true;
      break;
    }
  }

  uint64_t Batches = 0;
  bool Finished = true;

  while (Cursor < Planned) {
    if (Engine.MaxBatches && Batches >= Engine.MaxBatches) {
      Finished = false;
      break;
    }
    ++Batches;
    const uint64_t Batch = Cursor / Interval;
    const uint64_t BatchBegin = Batch * Interval;
    const uint64_t BatchEnd =
        Planned - BatchBegin > Interval ? BatchBegin + Interval : Planned;

    // Skip decisions read only tallies frozen at the last boundary, so
    // the schedule is a pure function of checkpointed state.
    CellStates Decision{};
    if (EarlyStop)
      Decision = computeCells(Cumulative.snapshot(), Engine.StopHalfWidth,
                              Engine.StopZ);

    // Early stopping is unsharded only (both engines refuse it with
    // NumShards > 1), so its skips and reallocations are this run's own.
    std::vector<uint64_t> Mine;
    for (; Cursor < BatchEnd; ++Cursor) {
      uint64_t Chosen = Plan.Primary[Shard + Cursor * NumShards];
      BranchErrorCategory Cat = EarlyStop ? Category(Chosen)
                                          : BranchErrorCategory::NoError;
      if (EarlyStop && Decision[static_cast<unsigned>(Cat)].Closed) {
        // The cell closed: record the skip (never silently) and hand
        // the slot to the loosest still-open cell with reserve left.
        Cumulative.counter(getSkipCounterName(Cat)).inc();
        int Loosest = -1;
        for (unsigned C = 0; C < NumBranchErrorCategories; ++C) {
          if (!isCellCategory(static_cast<BranchErrorCategory>(C)) ||
              Decision[C].Closed ||
              ReserveCursors[C] >= Plan.Reserve[C].size())
            continue;
          if (Loosest < 0 || Decision[C].Interval.halfWidth() >
                                 Decision[Loosest].Interval.halfWidth())
            Loosest = static_cast<int>(C);
        }
        if (Loosest < 0)
          continue;
        Chosen = Plan.Reserve[Loosest][ReserveCursors[Loosest]++];
        Cumulative.counter(getReallocCounterName(Category(Chosen))).inc();
      }
      Mine.push_back(Chosen);
    }

    if (!Mine.empty()) {
      RunBatch(Mine, Cumulative);
      Completed += Mine.size();
    }

    telemetry::RegistrySnapshot Boundary = Cumulative.snapshot();
    if (!Engine.LiveExportFile.empty()) {
      // One publish per batch, numbered by batch so a resumed run
      // continues the sequence; the heartbeat shows the state after it.
      telemetry::Heartbeat Beat = makeHeartbeat(
          Engine, Cursor, Planned, Completed, Boundary,
          computeCells(Boundary, Engine.StopHalfWidth, Engine.StopZ));
      publishLiveFile(Engine.LiveExportFile, RunId, Batch + 1, Boundary,
                      Beat);
    }

    if (!Engine.CheckpointFile.empty()) {
      EngineCheckpoint Ckpt;
      Ckpt.Version = EngineCheckpointVersion;
      Ckpt.PlanHash = Plan.Hash;
      Ckpt.Shard = Engine.ShardIndex;
      Ckpt.NumShards = Engine.NumShards;
      Ckpt.Cursor = Cursor;
      Ckpt.Completed = Completed;
      Ckpt.ReserveCursors = ReserveCursors;
      Ckpt.Registry = std::move(Boundary);
      std::string Error;
      if (!writeCheckpointKind(Engine.CheckpointFile, Ckpt,
                               CheckpointKind, Error))
        reportFatalErrorf("%s checkpoint failed: %s", Noun,
                          Error.c_str());
      if (Engine.OnCheckpoint)
        Engine.OnCheckpoint(Completed);
    }
  }

  BatchTotals Out;
  Out.Registry = Cumulative.snapshot();
  Out.Completed = Completed;
  Out.Planned = Planned;
  Out.Finished = Finished;
  Out.Resumed = Resumed;
  return Out;
}

//===----------------------------------------------------------------------===//
// Fault campaigns
//===----------------------------------------------------------------------===//

namespace {

/// Folds Engine.Recovery into a plan hash, only when set: plain
/// campaigns keep their hashes (and checkpoints), and a recovery
/// checkpoint never resumes a plain campaign or the reverse.
uint64_t hashRecovery(uint64_t Hash, const EngineConfig &Engine) {
  const RecoveryConfig *R = Engine.Recovery;
  if (!R)
    return Hash;
  return fnv1a(Hash, /*"recovery"*/ 0x7265636f76657279ULL,
               R->CheckpointInterval, R->MemoryBudget, R->WatchdogBound,
               R->MaxSiteRollbacks, R->MaxTotalRollbacks, R->MaxCheckpoints);
}

/// Deterministic fingerprint of the plan and the knobs that shape it.
/// A checkpoint taken under a different program, seed, model, budget or
/// recovery setting must never silently continue into this plan.
uint64_t hashPlan(const EngineConfig &Engine,
                  const std::vector<PlannedFault> &Candidates) {
  uint64_t Hash = fnv1a(FnvOffsetBasis, Engine.NumInjections, Engine.Seed,
                        Engine.Sites, Engine.Model, Engine.NumShards);
  for (const PlannedFault &F : Candidates)
    Hash = fnv1a(Hash, F.Instance, F.Kind, F.Mask, F.Category, F.SiteAddr,
                 F.InstrSite);
  return hashRecovery(Hash, Engine);
}

/// What both engine kinds do in their serial tally on top of counting:
/// record one CampaignInjection trace event per slot and collect the
/// slots the kind bundles, which the engine re-injects serially with the
/// flight recorder after the loop (injections are deterministic, so each
/// replay is the run the tally counted).
template <typename SlotT> struct SlotAttachments {
  const EngineConfig &Engine;
  uint64_t Tallied = 0;
  std::vector<SlotT> Bundled = {};

  void attach(const SlotT &Slot, const char *Outcome, uint64_t Arg,
              bool Bundle) {
    ++Tallied;
    if (Engine.Tracer)
      Engine.Tracer->record(Tallied,
                            telemetry::TraceEventKind::CampaignInjection,
                            Outcome, Slot.SiteAddr, Arg);
    if (Engine.Recorder && Bundle)
      Bundled.push_back(Slot);
  }
};

/// Branch-fault slots: outcome counters, detection-latency histograms,
/// (when tracked) propagation provenance per category and, under
/// recovery, the recovery ladder's activity. Every fault is bundled.
struct FaultSlots : SlotAttachments<PlannedFault> {
  using Slot = PlannedFault;
  /// The fields of an InjectionReport that tally() reads, copied out on
  /// the worker so the report's heap parts die there (see runBatchLoop).
  struct SlotResult {
    Outcome Result;
    bool Fired;
    uint64_t LatencyInsns;
    telemetry::PropagationReport Prop;
    uint64_t Checkpoints, Rollbacks, WatchdogFires;
    bool Degraded, InterpreterFallback;
  };

  const FaultCampaign &Campaign;
  std::vector<uint64_t> LatBounds = CampaignEngine::latencyBounds();
  std::vector<uint64_t> DistBounds = telemetry::propDistanceBounds();

  static BranchErrorCategory category(const Slot &Fault) {
    return Fault.Category;
  }
  SlotResult inject(const Slot &Fault,
                    telemetry::FlightRecorder *Recorder = nullptr) const {
    InjectionReport R =
        Engine.Recovery
            ? Campaign.injectWithRecovery(Fault, *Engine.Recovery, Recorder)
            : Campaign.injectDetailed(Fault, Recorder);
    const RecoveryReport &Rec = R.Recovery;
    return {R.Result, R.Fired, R.LatencyInsns, R.Prop, Rec.NumCheckpoints,
            Rec.NumRollbacks, Rec.NumWatchdogFires, Rec.Degraded,
            Rec.InterpreterFallback};
  }
  void tally(telemetry::MetricsRegistry &Cumulative, const Slot &Fault,
             const SlotResult &Report) {
    attach(Fault, getOutcomeName(Report.Result),
           Engine.Recovery ? Report.Rollbacks : Report.LatencyInsns, true);
    BranchErrorCategory Cat = Fault.Category;
    Cumulative.counter(getOutcomeCounterName(Cat, Report.Result)).inc();
    Cumulative.counter("fault.injections").inc();
    if (Report.Fired && (Report.Result == Outcome::DetectedSignature ||
                         Report.Result == Outcome::DetectedHardware))
      Cumulative.histogram(CampaignEngine::getLatencyHistogramName(Cat),
                           LatBounds)
          .observe(Report.LatencyInsns);
    if (Report.Prop.Enabled) {
      Cumulative.counter(getPropagationCounterName(Cat, Report.Prop.Class))
          .inc();
      if (Report.Prop.Class == telemetry::PropClass::DetectedAfterDivergence)
        Cumulative.histogram(getPropagationDistanceName(Cat), DistBounds)
            .observe(Report.Prop.InsnsCrossed);
    }
    if (!Engine.Recovery)
      return;
    // Each injection's RecoveryManager counted into its own translator's
    // registry, which dies with the run; re-aggregate under the same
    // names so campaign-level snapshots carry the recovery story too.
    Cumulative.counter("recovery.checkpoints").inc(Report.Checkpoints);
    Cumulative.counter("recovery.rollbacks").inc(Report.Rollbacks);
    Cumulative.counter("recovery.watchdog_fires").inc(Report.WatchdogFires);
    Cumulative.counter("recovery.degradations").inc(Report.Degraded ? 1 : 0);
    Cumulative.counter("recovery.interp_fallbacks")
        .inc(Report.InterpreterFallback ? 1 : 0);
  }
};

} // namespace

BatchTotals cfed::runFaultPlan(FaultCampaign &Campaign,
                               const EngineConfig &Engine) {
  // Deterministic plan. Over-plan 4x: a sizeable share of random faults
  // are NoError, and the surplus beyond the primary schedule is the
  // reserve pool early stopping reallocates from. Every slot forks the
  // nearest plan-time snapshot at or before its instant; a recovery plan
  // runs under recovery, so its snapshots carry the recovery run.
  std::vector<PlannedFault> Candidates =
      Campaign.plan(Engine.NumInjections * 4, Engine.Seed, Engine.Sites,
                    Engine.Model, /*TakeSnapshots=*/true, Engine.Recovery);
  SlotPlan Plan;
  for (uint64_t C = 0; C < Candidates.size(); ++C) {
    BranchErrorCategory Cat = Candidates[C].Category;
    if (Cat == BranchErrorCategory::NoError)
      continue;
    if (Plan.Primary.size() < Engine.NumInjections)
      Plan.Primary.push_back(C);
    else
      Plan.Reserve[static_cast<unsigned>(Cat)].push_back(C);
  }
  Plan.Hash = hashPlan(Engine, Candidates);
  FaultSlots Slots{{Engine}, Campaign};
  BatchTotals Loop = runBatchLoop(Engine, Slots, Candidates, Plan,
                                  CampaignCheckpointKind, "campaign");
  for (const PlannedFault &Fault : Slots.Bundled)
    Slots.inject(Fault, Engine.Recorder);
  return Loop;
}

CampaignEngine::CampaignEngine(const AsmProgram &Program, DbtConfig Config,
                               EngineConfig Engine)
    : Program(Program), Config(Config), Engine(std::move(Engine)) {
  const EngineConfig &E = this->Engine;
  checkEngineSpec(E, "campaign");
  if (E.StopHalfWidth > 0.0 && E.NumShards > 1)
    reportFatalError(
        "early stopping cannot be combined with sharding: a shard only "
        "sees its own slice of each cell, so its Wilson intervals say "
        "nothing about the campaign-wide SDC rate. Run the sharded "
        "campaign without a stop width, or run early stopping "
        "unsharded.");
  if (E.TrackPropagation && E.Recovery)
    reportFatalError("propagation tracking does not compose with recovery: "
                     "rollback rewinds architectural state but not the "
                     "digest stream, so recovery runs compute no "
                     "propagation. Drop --prop-trace/--golden-trace or "
                     "--recover.");
}

EngineReport CampaignEngine::run() {
  FaultCampaign Campaign(Program, Config);
  Campaign.enablePropagation(Engine.TrackPropagation);
  if (!Campaign.prepare(Engine.MaxInsns))
    reportFatalError("campaign engine: golden run failed (program does not "
                     "load or halt within the instruction budget)");
  if (Engine.TrackPropagation && !Engine.GoldenTraceFile.empty()) {
    std::string Error;
    if (!Campaign.goldenTrace().save(Engine.GoldenTraceFile, &Error))
      reportFatalErrorf("campaign engine: %s", Error.c_str());
  }

  EngineReport Report;
  static_cast<BatchTotals &>(Report) = runFaultPlan(Campaign, Engine);
  Report.Result = campaignResultFromSnapshot(Report.Registry);

  // Per-cell counts/intervals describe this shard's own slice.
  CellStates Cells =
      computeCells(Report.Registry, Engine.StopHalfWidth, Engine.StopZ);
  for (unsigned C = 0; C < NumBranchErrorCategories; ++C) {
    auto Cat = static_cast<BranchErrorCategory>(C);
    if (!isCellCategory(Cat))
      continue;
    CellReport Cell;
    Cell.Category = Cat;
    Cell.Counts = Cells[C].Counts;
    Cell.Interval = Cells[C].Interval;
    Cell.Stopped = Cells[C].Closed;
    uint64_t Total = Cell.Counts.total();
    Cell.SdcRate = Total == 0 ? 0.0
                              : static_cast<double>(Cell.Counts.Sdc) /
                                    static_cast<double>(Total);
    Cell.Skipped = Report.Registry.counterOr(getSkipCounterName(Cat));
    Cell.Reallocated = Report.Registry.counterOr(getReallocCounterName(Cat));
    Report.Skipped += Cell.Skipped;
    Report.Cells.push_back(Cell);
  }
  return Report;
}

//===----------------------------------------------------------------------===//
// Attack campaigns
//===----------------------------------------------------------------------===//

namespace {

/// Deterministic fingerprint of an attack plan and the knobs that shape
/// it, so an attack checkpoint can never continue into a different
/// campaign (or a fault campaign's — the kind string already separates
/// those).
uint64_t hashAttackPlan(const EngineConfig &Engine,
                        const std::vector<PlannedAttack> &Candidates) {
  uint64_t Hash = fnv1a(FnvOffsetBasis, Engine.NumInjections, Engine.Seed,
                        Engine.NumShards);
  for (const PlannedAttack &A : Candidates)
    Hash = fnv1a(Hash, A.Instance, A.Family, A.SiteAddr, A.RealTarget,
                 A.ForgedTarget, A.GadgetValid);
  return hashRecovery(Hash, Engine);
}

/// Attack slots: per-family outcome counters plus attack.attacks and
/// attack.gadget_valid. Evaded/Timeout attacks are bundled (the evasion
/// proofs the precision matrix cites).
struct AttackSlots : SlotAttachments<PlannedAttack> {
  using Slot = PlannedAttack;
  using SlotResult = AttackOutcome;

  const AttackCampaign &Campaign;

  SlotResult inject(const Slot &Attack,
                    telemetry::FlightRecorder *Recorder = nullptr) const {
    return Campaign.injectAttack(Attack, Engine.Recovery, Recorder).Result;
  }
  void tally(telemetry::MetricsRegistry &Cumulative, const Slot &Attack,
             SlotResult Result) {
    attach(Attack, getAttackOutcomeName(Result), 0,
           Result == AttackOutcome::Evaded ||
               Result == AttackOutcome::Timeout);
    Cumulative.counter(getAttackCounterName(Attack.Family, Result)).inc();
    Cumulative.counter("attack.attacks").inc();
    if (Attack.GadgetValid)
      Cumulative.counter("attack.gadget_valid").inc();
  }
};

} // namespace

BatchTotals cfed::runAttackPlan(AttackCampaign &Campaign,
                                const EngineConfig &Engine) {
  // Deterministic plan; over-plan 2x so gadget-search misses on tiny
  // programs do not starve the primary schedule. Recovery injections all
  // start at instant 0 and need no snapshots.
  std::vector<PlannedAttack> Candidates = Campaign.plan(
      Engine.NumInjections * 2, Engine.Seed, /*TakeSnapshots=*/!Engine.Recovery);
  SlotPlan Plan;
  for (uint64_t C = 0; C < Candidates.size() &&
                       Plan.Primary.size() < Engine.NumInjections;
       ++C)
    if (Candidates[C].ForgedTarget)
      Plan.Primary.push_back(C);
  Plan.Hash = hashAttackPlan(Engine, Candidates);
  AttackSlots Slots{{Engine}, Campaign};
  BatchTotals Loop = runBatchLoop(Engine, Slots, Candidates, Plan,
                                  AttackCheckpointKind, "attack campaign");
  for (const PlannedAttack &Attack : Slots.Bundled)
    Slots.inject(Attack, Engine.Recorder);
  return Loop;
}

AttackEngine::AttackEngine(const AsmProgram &Program, DbtConfig Config,
                           EngineConfig Engine)
    : Program(Program), Config(Config), Engine(std::move(Engine)) {
  const EngineConfig &E = this->Engine;
  checkEngineSpec(E, "attack");
  if (E.StopHalfWidth > 0.0 || E.TrackPropagation ||
      !E.GoldenTraceFile.empty() || E.Sites != SiteClass::Any ||
      E.Model != FaultModel::SingleBit)
    reportFatalError("attack campaigns take no early stopping, propagation "
                     "tracking, golden trace, fault sites or fault model "
                     "(--campaign-stop-ci, --prop-trace, --golden-trace and "
                     "--fault-model apply to --campaign only)");
}

AttackEngineReport AttackEngine::run() {
  AttackCampaign Campaign(Program, Config);
  if (!Campaign.prepare(Engine.MaxInsns))
    reportFatalError("attack engine: golden run failed (program does not "
                     "load or halt within the instruction budget)");
  AttackEngineReport Report;
  static_cast<BatchTotals &>(Report) = runAttackPlan(Campaign, Engine);
  Report.Result = attackResultFromSnapshot(Report.Registry);
  return Report;
}
