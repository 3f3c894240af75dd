//===- LiveExport.h - Live telemetry snapshot export ------------*- C++ -*-===//
//
// Part of the CFED project (CGO'06 control-flow error detection repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The live telemetry plane: every other observability surface in this
/// repository (registry snapshots, traces, flight-recorder bundles) is
/// post-hoc, written when the run ends. The LiveExporter instead
/// publishes the current registry snapshot *while the run executes*, as
/// an atomically-replaced (temp file + rename, like campaign
/// checkpoints) single-line-JSON file stamped with a run id, the pid, a
/// monotonic sequence number and a wall-clock timestamp, plus an
/// optional per-shard heartbeat record (engine cursor, completed and
/// skipped slots, per-cell Wilson intervals, the current recovery
/// ladder rung). Readers (cfed-top, cfed-stat tail) always see a
/// complete snapshot, never a torn write.
///
/// Two drive modes:
///  - Service mode: start() spawns a background thread that publishes
///    every IntervalMs. Safe beside a running DBT because the registry
///    instruments are relaxed atomics and snapshot() takes only the
///    registry's registration mutex.
///  - Deterministic mode: the owner calls publish() (or the static
///    writeLiveSnapshot()) at its own boundaries — the campaign engine
///    publishes at batch boundaries so live output is reproducible.
///
//===----------------------------------------------------------------------===//

#ifndef CFED_TELEMETRY_LIVEEXPORT_H
#define CFED_TELEMETRY_LIVEEXPORT_H

#include "telemetry/Metrics.h"

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace cfed {
namespace json {
struct JsonValue;
} // namespace json
namespace telemetry {

/// One campaign cell (branch-error category) in a heartbeat: the counts
/// and Wilson interval the publishing shard based its last stopping
/// decision on.
struct HeartbeatCell {
  std::string Name; ///< Category name ("A".."F").
  uint64_t Total = 0;
  uint64_t Sdc = 0;
  double Low = 0.0; ///< Wilson interval on the SDC rate.
  double High = 1.0;
  bool Closed = false; ///< Early stopping closed this cell.

  bool operator==(const HeartbeatCell &) const = default;
};

/// Per-shard liveness record embedded in a live snapshot. Present only
/// for campaign-engine runs; plain runs publish registry-only
/// snapshots.
struct Heartbeat {
  bool Present = false;
  unsigned Shard = 0;
  unsigned NumShards = 1;
  /// Next unprocessed slot among the shard's own slots.
  uint64_t Cursor = 0;
  uint64_t Planned = 0; ///< Total slots the shard owns.
  uint64_t Completed = 0;
  uint64_t Skipped = 0;
  /// Current recovery-ladder rung (recoveryRungFromSnapshot()).
  std::string Rung;
  std::vector<HeartbeatCell> Cells;

  bool operator==(const Heartbeat &) const = default;
};

inline constexpr uint64_t LiveSnapshotVersion = 1;

/// The unit the live plane publishes and readers consume.
struct LiveSnapshot {
  uint64_t Version = LiveSnapshotVersion;
  std::string RunId;
  uint64_t Pid = 0;
  /// Strictly increasing per publisher; readers compute rates from
  /// sequence-numbered deltas and detect restarts from decreases.
  uint64_t Seq = 0;
  /// Wall-clock milliseconds since the Unix epoch at publish time;
  /// readers age it against their own clock to flag stalled shards.
  uint64_t WallMs = 0;
  RegistrySnapshot Registry;
  Heartbeat Beat;

  bool operator==(const LiveSnapshot &) const = default;
};

/// Single-line JSON (kind "cfed-live-snapshot"); the inverse of
/// liveSnapshotFromJson so the two can never drift apart.
std::string liveSnapshotToJson(const LiveSnapshot &Snap);

/// Parses the shape liveSnapshotToJson emits. Returns false (and sets
/// \p Error) on a mismatch.
bool liveSnapshotFromJson(const json::JsonValue &Json, LiveSnapshot &Out,
                          std::string &Error);

/// True when \p Json carries live-exporter markers (the live-snapshot
/// kind, or sequence/heartbeat fields): such files are in-flight
/// partial data and must never fold into final campaign results.
bool isLiveSnapshotJson(const json::JsonValue &Json);

/// Wall-clock milliseconds since the Unix epoch.
uint64_t wallClockMs();

/// The recovery-ladder rung a run is currently on, judged from its
/// registry counters: "interp-fallback" > "degraded" > "retranslate" >
/// "rollback" > "normal".
const char *recoveryRungFromSnapshot(const RegistrySnapshot &Snap);

/// Writes \p Snap to \p Path atomically (temp file + rename): readers
/// see either the previous snapshot or this one, never a torn write.
bool writeLiveSnapshot(const std::string &Path, const LiveSnapshot &Snap,
                       std::string &Error);

/// Periodic or caller-driven publisher of live snapshots.
class LiveExporter {
public:
  struct Config {
    std::string Path;
    std::string RunId;
    /// Service-mode publish period.
    uint64_t IntervalMs = 1000;
  };

  /// Pull hook invoked at every publish; fills the registry snapshot
  /// and (optionally) the heartbeat. Runs on the exporter thread in
  /// service mode, so it must only touch thread-safe state (registry
  /// snapshots are).
  using Source = std::function<void(RegistrySnapshot &, Heartbeat &)>;

  LiveExporter(Config C, Source S);
  LiveExporter(const LiveExporter &) = delete;
  LiveExporter &operator=(const LiveExporter &) = delete;
  /// Stops the service thread if running.
  ~LiveExporter();

  /// Publishes one snapshot now (deterministic mode, also usable while
  /// the service thread runs). Returns false and sets \p Error on I/O
  /// failure.
  bool publish(std::string *Error = nullptr);

  /// Starts the background publisher; idempotent.
  void start();
  /// Publishes one final snapshot and joins the thread; idempotent.
  void stop();
  bool running() const { return Started; }

  /// Snapshots published so far (the Seq of the latest file).
  uint64_t sequence() const { return Seq.load(std::memory_order_relaxed); }
  /// Publishes that failed (service mode keeps going; the count is the
  /// observable).
  uint64_t failureCount() const {
    return Failures.load(std::memory_order_relaxed);
  }
  const std::string &path() const { return Cfg.Path; }

private:
  void serviceLoop();

  Config Cfg;
  Source Src;
  std::atomic<uint64_t> Seq{0};
  std::atomic<uint64_t> Failures{0};
  /// Serializes writers: a service tick and a caller-driven publish
  /// share the temp file, and the on-disk sequence must be ordered.
  std::mutex PublishMutex;
  std::mutex M;
  std::condition_variable CV;
  std::thread Worker;
  bool Started = false;
  bool Stopping = false;
};

} // namespace telemetry
} // namespace cfed

#endif // CFED_TELEMETRY_LIVEEXPORT_H
