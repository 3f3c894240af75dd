//===- CampaignEngine.cpp - Resumable sharded campaign engine -------------------===//

#include "fault/CampaignEngine.h"

#include "support/Diagnostics.h"
#include "support/FileIO.h"
#include "support/Json.h"
#include "support/ThreadPool.h"
#include "telemetry/LiveExport.h"

#include <chrono>
#include <cinttypes>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <thread>
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

std::string CampaignEngine::coordinatorBatchPath(const std::string &Dir,
                                                 unsigned Shard,
                                                 uint64_t Batch) {
  return Dir + "/shard_" + std::to_string(Shard) + ".batch_" +
         std::to_string(Batch) + ".json";
}

std::string CampaignEngine::coordinatorLivePath(const std::string &Dir,
                                                unsigned Shard) {
  return Dir + "/shard_" + std::to_string(Shard) + ".live.json";
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
void checkEngineSpec(unsigned ShardIndex, unsigned NumShards,
                     uint64_t CheckpointInterval, const char *Noun) {
  if (NumShards < 1 || ShardIndex >= NumShards)
    reportFatalErrorf("invalid shard spec %u/%u: the shard index must be "
                      "below the shard count",
                      ShardIndex, NumShards);
  if (CheckpointInterval < 1)
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

/// Heartbeat for a live snapshot: this shard's progress, its own
/// per-cell counts/intervals (\p OwnCells — so merging heartbeats
/// across shards never double-counts), and the closure flags of
/// \p ClosedCells.
telemetry::Heartbeat makeHeartbeat(const EngineConfig &Engine,
                                   uint64_t Cursor, uint64_t Planned,
                                   uint64_t Completed,
                                   const telemetry::RegistrySnapshot &Own,
                                   const CellStates &OwnCells,
                                   const CellStates &ClosedCells) {
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
    const CellState &Cell = OwnCells[C];
    Beat.Cells.push_back({getCategoryName(Cat), Cell.Counts.total(),
                          Cell.Counts.Sdc, Cell.Interval.Low,
                          Cell.Interval.High, ClosedCells[C].Closed});
  }
  return Beat;
}

/// Atomic live-snapshot write; failures are fatal like checkpoint
/// failures (in coordinated mode siblings block on these files, so a
/// silent skip would hang the campaign, not degrade it).
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
  Out += ",\"coordinated\":";
  Out += Ckpt.Coordinated ? "true" : "false";
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
  // Absent in pre-coordinator checkpoints, which were by definition
  // uncoordinated.
  Out.Coordinated = Root["coordinated"].B;
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
std::string resultJson(unsigned Shard, unsigned NumShards, uint64_t Seed,
                       const char *Model, uint64_t Completed,
                       uint64_t Skipped, bool Finished,
                       const telemetry::RegistrySnapshot &Registry) {
  std::string Out = "{\"kind\":\"cfed-campaign-result\",\"version\":1";
  Out += ",\"shard\":" + std::to_string(Shard);
  Out += ",\"num_shards\":" + std::to_string(NumShards);
  Out += ",\"seed\":" + std::to_string(Seed);
  Out += ",\"model\":\"";
  Out += Model;
  Out += "\",\"completed\":" + std::to_string(Completed);
  Out += ",\"skipped\":" + std::to_string(Skipped);
  Out += ",\"finished\":";
  Out += Finished ? "true" : "false";
  Out += ",\"registry\":";
  Out += Registry.toJson();
  Out += '}';
  return Out;
}

} // namespace

std::string CampaignEngine::resultToJson(const EngineReport &Report,
                                         const EngineConfig &Engine) {
  return resultJson(Engine.ShardIndex, Engine.NumShards, Engine.Seed,
                    getFaultModelName(Engine.Model), Report.Completed,
                    Report.Skipped, Report.Finished, Report.Registry);
}

std::string AttackEngine::resultToJson(const AttackEngineReport &Report,
                                       const AttackEngineConfig &Engine) {
  return resultJson(Engine.ShardIndex, Engine.NumShards, Engine.Seed,
                    "attack", Report.Completed, /*Skipped=*/0,
                    Report.Finished, Report.Registry);
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
// Every engine mode runs this loop over the *global* primary schedule,
// executing only the slots it owns (see the header and DESIGN.md §13). A
// plain shard's batches span CheckpointInterval x NumShards global slots,
// so each holds CheckpointInterval owned slots. A coordinated shard walks
// the unsharded batches and publishes a batch file after each, before its
// checkpoint (a kill in between only republishes identical content); with
// early stopping it first merges every sibling's previous batch file into
// its boundary state (the barrier). Each shard replays the whole global
// batch construction but counts skips and reallocations only for owned
// slots, so merged shards equal the unsharded run byte for byte.
//
// A campaign kind plugs in through a policy class providing:
//   Slot, SlotResult          planned-slot and per-slot result types
//   CheckpointKind, Noun      checkpoint kind string, diagnostic noun
//   category(Slot)            the early-stopping cell of a slot
//   inject(Slot)              one injection, thread-safe
//   tally(Registry, Slot, R)  serial fold into the cumulative registry

namespace {

/// A kind's deterministic plan: the primary schedule, the per-category
/// reserve early stopping reallocates from (empty for kinds that never
/// stop early), and the fingerprint a checkpoint must match.
template <typename Slot> struct SlotPlan {
  std::vector<const Slot *> Primary;
  std::array<std::vector<const Slot *>, NumBranchErrorCategories> Reserve;
  uint64_t Hash = 0;
};

/// Runs \p Plan and fills the Registry/Completed/Planned/Finished/Resumed
/// fields of \p Out. Returns the state the final closure decision reads:
/// the merged campaign registry for a finished coordinated
/// early-stopping shard, else Out.Registry.
template <typename Kind, typename Report>
telemetry::RegistrySnapshot
runBatchLoop(const EngineConfig &Engine, const Kind &K,
             const SlotPlan<typename Kind::Slot> &Plan, Report &Out) {
  using Slot = typename Kind::Slot;
  const uint64_t Total = Plan.Primary.size();
  const uint64_t NumShards = Engine.NumShards;
  const uint64_t Shard = Engine.ShardIndex;
  const bool Coordinated = !Engine.CoordinatorDir.empty();
  const bool EarlyStop = Engine.StopHalfWidth > 0.0;
  const uint64_t Interval = Engine.CheckpointInterval;
  const uint64_t BatchSlots =
      Coordinated ? Interval
                  : (Interval > UINT64_MAX / NumShards ? UINT64_MAX
                                                       : Interval * NumShards);
  auto OwnedBefore = [&](uint64_t Global) -> uint64_t {
    return Global > Shard ? (Global - Shard + NumShards - 1) / NumShards : 0;
  };
  const uint64_t Planned = OwnedBefore(Total);
  // A plain shard is done after its last owned slot; a coordinated one
  // walks every global batch, because siblings wait on its batch files.
  const uint64_t End =
      Coordinated ? Total
                  : (Planned ? Shard + (Planned - 1) * NumShards + 1 : 0);
  auto CheckpointCursor = [&](uint64_t Global) {
    return Coordinated ? Global : OwnedBefore(Global);
  };
  const uint64_t CheckpointLimit = Coordinated ? Total : Planned;

  const std::string RunId = Engine.RunId.empty()
                                ? "campaign-" + std::to_string(Engine.Seed)
                                : Engine.RunId;
  const std::string LivePath =
      !Engine.LiveExportFile.empty() || !Coordinated
          ? Engine.LiveExportFile
          : CampaignEngine::coordinatorLivePath(Engine.CoordinatorDir,
                                                Engine.ShardIndex);

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
    switch (loadCheckpointKind(Path, Ckpt, Kind::CheckpointKind, Error)) {
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
            Path, Kind::Noun, toHex(Ckpt.PlanHash).c_str(),
            toHex(Plan.Hash).c_str());
      if (Ckpt.Shard != Engine.ShardIndex ||
          Ckpt.NumShards != Engine.NumShards)
        reportFatalErrorf("checkpoint '%s' was written by shard %u/%u, not "
                          "%u/%u",
                          Path, Ckpt.Shard, Ckpt.NumShards,
                          Engine.ShardIndex, Engine.NumShards);
      if (Ckpt.Coordinated != Coordinated)
        reportFatalErrorf(
            Coordinated
                ? "checkpoint '%s' was written without "
                  "--campaign-coordinator (its cursor counts shard slots, "
                  "not global slots); continue it uncoordinated or delete it"
                : "checkpoint '%s' was written by a coordinated run (its "
                  "cursor counts global slots, not shard slots); pass "
                  "--campaign-coordinator to continue it",
            Path);
      if (Ckpt.Cursor > CheckpointLimit)
        reportFatalErrorf("checkpoint '%s' cursor %llu exceeds the plan "
                          "(%llu slots)",
                          Path, static_cast<unsigned long long>(Ckpt.Cursor),
                          static_cast<unsigned long long>(CheckpointLimit));
      Cumulative.merge(Ckpt.Registry);
      // A plain cursor counts owned slots; each batch ends on a multiple
      // of NumShards global slots, the last one at End.
      Cursor = Coordinated               ? Ckpt.Cursor
               : Ckpt.Cursor < Planned ? Ckpt.Cursor * NumShards
                                       : End;
      Completed = Ckpt.Completed;
      ReserveCursors = Ckpt.ReserveCursors;
      Resumed = true;
      break;
    }
  }

  // Waits for sibling \p Sibling's batch \p Batch file. Files are
  // written atomically, so an unparsable one is corruption, never an
  // in-progress write.
  auto AwaitSibling = [&](unsigned Sibling,
                          uint64_t Batch) -> telemetry::RegistrySnapshot {
    std::string Path = CampaignEngine::coordinatorBatchPath(
        Engine.CoordinatorDir, Sibling, Batch);
    auto Deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(Engine.CoordinatorTimeoutMs);
    for (std::string Text;;) {
      if (readWholeFile(Path, Text)) {
        json::JsonValue Root;
        json::JsonParser Parser(Text);
        telemetry::LiveSnapshot Snap;
        std::string Error = "not valid JSON";
        if (!Parser.parse(Root) ||
            !telemetry::liveSnapshotFromJson(Root, Snap, Error))
          reportFatalErrorf("campaign coordinator: snapshot '%s' is corrupt: "
                            "%s",
                            Path.c_str(), Error.c_str());
        if (!Snap.Beat.Present || Snap.Beat.Shard != Sibling ||
            Snap.Beat.NumShards != Engine.NumShards)
          reportFatalErrorf(
              "campaign coordinator: snapshot '%s' was published by "
              "shard %u/%u, expected shard %u of %u",
              Path.c_str(), Snap.Beat.Shard, Snap.Beat.NumShards, Sibling,
              Engine.NumShards);
        return Snap.Registry;
      }
      if (std::chrono::steady_clock::now() >= Deadline)
        reportFatalErrorf(
            "campaign coordinator: shard %u has not published batch %llu "
            "in '%s' within %llu ms; restart the missing shard (it "
            "resumes from its checkpoint) or raise the timeout",
            Sibling, static_cast<unsigned long long>(Batch),
            Engine.CoordinatorDir.c_str(),
            static_cast<unsigned long long>(Engine.CoordinatorTimeoutMs));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };

  // Campaign state at the boundary after batch \p Batch - 1: this
  // shard's own, plus the siblings' when coordinated (the barrier).
  auto BoundaryState = [&](const telemetry::RegistrySnapshot &Own,
                           uint64_t Batch) {
    if (!Coordinated || Batch == 0 || NumShards == 1)
      return Own;
    telemetry::MetricsRegistry Merged;
    Merged.merge(Own);
    for (unsigned J = 0; J < NumShards; ++J)
      if (J != Engine.ShardIndex)
        Merged.merge(AwaitSibling(J, Batch - 1));
    return Merged.snapshot();
  };

  ThreadPool Pool(Engine.Jobs);
  uint64_t Batches = 0;
  bool Finished = true;

  while (Cursor < End) {
    if (Engine.MaxBatches && Batches >= Engine.MaxBatches) {
      Finished = false;
      break;
    }
    ++Batches;
    const uint64_t Batch = Cursor / BatchSlots;
    const uint64_t BatchBegin = Batch * BatchSlots;
    const uint64_t BatchEnd =
        End - BatchBegin > BatchSlots ? BatchBegin + BatchSlots : End;

    // Skip decisions read only tallies frozen at the last boundary, so
    // the schedule is a pure function of checkpointed state. Without
    // early stopping coordinated shards never wait.
    CellStates Decision{};
    if (EarlyStop)
      Decision = computeCells(BoundaryState(Cumulative.snapshot(), Batch),
                              Engine.StopHalfWidth, Engine.StopZ);

    std::vector<const Slot *> Mine;
    for (; Cursor < BatchEnd; ++Cursor) {
      const Slot *Chosen = Plan.Primary[Cursor];
      const bool Owned = Cursor % NumShards == Shard;
      BranchErrorCategory Cat = Kind::category(*Chosen);
      if (EarlyStop && Decision[static_cast<unsigned>(Cat)].Closed) {
        // The cell closed: record the skip (never silently) and hand
        // the slot to the loosest still-open cell with reserve left.
        if (Owned)
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
        Chosen = nullptr;
        if (Loosest >= 0) {
          Chosen = Plan.Reserve[Loosest][ReserveCursors[Loosest]++];
          if (Owned)
            Cumulative.counter(getReallocCounterName(Kind::category(*Chosen)))
                .inc();
        }
      }
      if (Chosen && Owned)
        Mine.push_back(Chosen);
    }

    if (!Mine.empty()) {
      std::vector<typename Kind::SlotResult> Results(Mine.size());
      Pool.parallelFor(Mine.size(),
                       [&](uint64_t I) { Results[I] = K.inject(*Mine[I]); });
      for (size_t I = 0; I < Mine.size(); ++I)
        K.tally(Cumulative, *Mine[I], Results[I]);
      Completed += Mine.size();
    }

    telemetry::RegistrySnapshot Boundary = Cumulative.snapshot();
    if (!LivePath.empty()) {
      // One publish per batch, numbered by batch so a resumed run
      // continues the sequence. A coordinated heartbeat shows the merged
      // decision the batch used, a plain one the state after it.
      CellStates Own =
          computeCells(Boundary, Engine.StopHalfWidth, Engine.StopZ);
      telemetry::Heartbeat Beat = makeHeartbeat(
          Engine, CheckpointCursor(Cursor), Coordinated ? Total : Planned,
          Completed, Boundary, Own, Coordinated ? Decision : Own);
      if (Coordinated)
        publishLiveFile(CampaignEngine::coordinatorBatchPath(
                            Engine.CoordinatorDir, Engine.ShardIndex, Batch),
                        RunId, Batch + 1, Boundary, Beat);
      publishLiveFile(LivePath, RunId, Batch + 1, Boundary, Beat);
      if (Coordinated && Batch >= 2)
        std::remove(CampaignEngine::coordinatorBatchPath(
                        Engine.CoordinatorDir, Engine.ShardIndex, Batch - 2)
                        .c_str());
    }

    if (!Engine.CheckpointFile.empty()) {
      EngineCheckpoint Ckpt;
      Ckpt.Version = EngineCheckpointVersion;
      Ckpt.PlanHash = Plan.Hash;
      Ckpt.Shard = Engine.ShardIndex;
      Ckpt.NumShards = Engine.NumShards;
      Ckpt.Cursor = CheckpointCursor(Cursor);
      Ckpt.Completed = Completed;
      Ckpt.Coordinated = Coordinated;
      Ckpt.ReserveCursors = ReserveCursors;
      Ckpt.Registry = std::move(Boundary);
      std::string Error;
      if (!writeCheckpointKind(Engine.CheckpointFile, Ckpt,
                               Kind::CheckpointKind, Error))
        reportFatalErrorf("%s checkpoint failed: %s", Kind::Noun,
                          Error.c_str());
      if (Engine.OnCheckpoint)
        Engine.OnCheckpoint(Completed);
    }
  }

  Out.Registry = Cumulative.snapshot();
  Out.Completed = Completed;
  Out.Planned = Planned;
  Out.Finished = Finished;
  Out.Resumed = Resumed;
  // Every shard publishes its final batch before waiting here, so this
  // last barrier cannot deadlock.
  if (!EarlyStop || !Finished || Total == 0)
    return Out.Registry;
  return BoundaryState(Out.Registry, (Total - 1) / BatchSlots + 1);
}

} // namespace

//===----------------------------------------------------------------------===//
// Fault campaigns
//===----------------------------------------------------------------------===//

namespace {

/// Deterministic fingerprint of the plan and the knobs that shape it.
/// A checkpoint taken under a different program, seed, model or budget
/// must never silently continue into this plan.
uint64_t hashPlan(const EngineConfig &Engine,
                  const std::vector<PlannedFault> &Candidates) {
  uint64_t Hash = fnv1a(FnvOffsetBasis, Engine.NumInjections, Engine.Seed,
                        Engine.Sites, Engine.Model, Engine.NumShards);
  for (const PlannedFault &F : Candidates)
    Hash = fnv1a(Hash, F.Instance, F.Kind, F.Mask, F.Category, F.SiteAddr,
                 F.InstrSite);
  return Hash;
}

/// Branch-fault slots: outcome counters, detection-latency histograms
/// and (when tracked) propagation provenance per category.
struct FaultSlots {
  using Slot = PlannedFault;
  using SlotResult = InjectionReport;
  static constexpr const char *CheckpointKind = CampaignCheckpointKind;
  static constexpr const char *Noun = "campaign";

  const FaultCampaign &Campaign;
  std::vector<uint64_t> LatBounds = CampaignEngine::latencyBounds();
  std::vector<uint64_t> DistBounds = telemetry::propDistanceBounds();

  static BranchErrorCategory category(const Slot &Fault) {
    return Fault.Category;
  }
  SlotResult inject(const Slot &Fault) const {
    return Campaign.injectDetailed(Fault);
  }
  void tally(telemetry::MetricsRegistry &Cumulative, const Slot &Fault,
             const SlotResult &Report) const {
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
  }
};

} // namespace

CampaignEngine::CampaignEngine(const AsmProgram &Program, DbtConfig Config,
                               EngineConfig Engine)
    : Program(Program), Config(Config), Engine(std::move(Engine)) {
  checkEngineSpec(this->Engine.ShardIndex, this->Engine.NumShards,
                  this->Engine.CheckpointInterval, "campaign");
  if (this->Engine.StopHalfWidth > 0.0 && this->Engine.NumShards > 1 &&
      this->Engine.CoordinatorDir.empty())
    reportFatalError(
        "early stopping cannot be combined with sharding: a shard only "
        "sees its own slice of each cell, so its Wilson intervals say "
        "nothing about the campaign-wide SDC rate. Pass "
        "--campaign-coordinator=DIR so shards stop on merged cell "
        "counts, run the sharded campaign without a stop width, or run "
        "early stopping unsharded.");
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

  // Deterministic plan. Over-plan 4x: the surplus beyond the primary
  // schedule is the reserve pool early stopping reallocates from.
  std::vector<PlannedFault> Candidates =
      Campaign.plan(Engine.NumInjections * 4, Engine.Seed, Engine.Sites,
                    Engine.Model);
  SlotPlan<PlannedFault> Plan;
  for (const PlannedFault &Fault : Candidates) {
    if (Fault.Category == BranchErrorCategory::NoError)
      continue;
    if (Plan.Primary.size() < Engine.NumInjections)
      Plan.Primary.push_back(&Fault);
    else
      Plan.Reserve[static_cast<unsigned>(Fault.Category)].push_back(&Fault);
  }
  Plan.Hash = hashPlan(Engine, Candidates);

  EngineReport Report;
  telemetry::RegistrySnapshot Decision =
      runBatchLoop(Engine, FaultSlots{Campaign}, Plan, Report);
  Report.Result = campaignResultFromSnapshot(Report.Registry);

  // Per-cell counts/intervals describe this shard's own slice; Stopped
  // reports the closure decision (the merged one when coordinated,
  // identical on every shard and equal to the unsharded run's).
  CellStates Own =
      computeCells(Report.Registry, Engine.StopHalfWidth, Engine.StopZ);
  CellStates Final =
      computeCells(Decision, Engine.StopHalfWidth, Engine.StopZ);
  for (unsigned C = 0; C < NumBranchErrorCategories; ++C) {
    auto Cat = static_cast<BranchErrorCategory>(C);
    if (!isCellCategory(Cat))
      continue;
    CellReport Cell;
    Cell.Category = Cat;
    Cell.Counts = Own[C].Counts;
    Cell.Interval = Own[C].Interval;
    Cell.Stopped = Final[C].Closed;
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
uint64_t hashAttackPlan(const AttackEngineConfig &Engine,
                        const std::vector<PlannedAttack> &Candidates) {
  uint64_t Hash =
      fnv1a(FnvOffsetBasis, Engine.NumAttacks, Engine.Seed, Engine.NumShards);
  for (const PlannedAttack &A : Candidates)
    Hash = fnv1a(Hash, A.Instance, A.Family, A.SiteAddr, A.RealTarget,
                 A.ForgedTarget, A.GadgetValid);
  return Hash;
}

/// Attack slots: per-family outcome counters plus attack.attacks and
/// attack.gadget_valid.
struct AttackSlots {
  using Slot = PlannedAttack;
  using SlotResult = AttackOutcome;
  static constexpr const char *CheckpointKind = AttackCheckpointKind;
  static constexpr const char *Noun = "attack campaign";

  const AttackCampaign &Campaign;

  /// Attack slots belong to no early-stopping cell (and the attack
  /// engine never stops early).
  static BranchErrorCategory category(const Slot &) {
    return BranchErrorCategory::NoError;
  }
  SlotResult inject(const Slot &Attack) const {
    return Campaign.injectAttack(Attack).Result;
  }
  void tally(telemetry::MetricsRegistry &Cumulative, const Slot &Attack,
             SlotResult Result) const {
    Cumulative.counter(getAttackCounterName(Attack.Family, Result)).inc();
    Cumulative.counter("attack.attacks").inc();
    if (Attack.GadgetValid)
      Cumulative.counter("attack.gadget_valid").inc();
  }
};

} // namespace

AttackEngine::AttackEngine(const AsmProgram &Program, DbtConfig Config,
                           AttackEngineConfig Engine)
    : Program(Program), Config(Config), Engine(std::move(Engine)) {
  checkEngineSpec(this->Engine.ShardIndex, this->Engine.NumShards,
                  this->Engine.CheckpointInterval, "attack");
}

AttackEngineReport AttackEngine::run() {
  AttackCampaign Campaign(Program, Config);
  if (!Campaign.prepare(Engine.MaxInsns))
    reportFatalError("attack engine: golden run failed (program does not "
                     "load or halt within the instruction budget)");

  // Deterministic plan; over-plan 2x so gadget-search misses on tiny
  // programs do not starve the primary schedule.
  std::vector<PlannedAttack> Candidates =
      Campaign.plan(Engine.NumAttacks * 2, Engine.Seed);
  SlotPlan<PlannedAttack> Plan;
  for (const PlannedAttack &Attack : Candidates) {
    if (!Attack.ForgedTarget)
      continue;
    if (Plan.Primary.size() >= Engine.NumAttacks)
      break;
    Plan.Primary.push_back(&Attack);
  }
  Plan.Hash = hashAttackPlan(Engine, Candidates);

  // The loop knobs the attack engine supports: no early stopping,
  // coordination or live export.
  EngineConfig Loop;
  Loop.Seed = Engine.Seed;
  Loop.Jobs = Engine.Jobs;
  Loop.CheckpointInterval = Engine.CheckpointInterval;
  Loop.CheckpointFile = Engine.CheckpointFile;
  Loop.ShardIndex = Engine.ShardIndex;
  Loop.NumShards = Engine.NumShards;
  Loop.MaxBatches = Engine.MaxBatches;
  Loop.OnCheckpoint = Engine.OnCheckpoint;
  AttackEngineReport Report;
  runBatchLoop(Loop, AttackSlots{Campaign}, Plan, Report);
  Report.Result = attackResultFromSnapshot(Report.Registry);
  return Report;
}
