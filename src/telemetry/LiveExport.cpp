//===- LiveExport.cpp - Live telemetry snapshot export ---------------------===//

#include "telemetry/LiveExport.h"

#include "support/FileIO.h"
#include "support/Json.h"

#include <chrono>
#include <cstdio>
#include <unistd.h>

using namespace cfed;
using namespace cfed::telemetry;

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

namespace {

const char *LiveSnapshotKind = "cfed-live-snapshot";

void appendJsonString(std::string &Out, const std::string &S) {
  Out += '"';
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  Out += '"';
}

// %.17g so a parse-back reproduces the exact double (Wilson interval
// endpoints round-trip through the coordinator byte-identically).
std::string formatDoubleExact(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

bool numberField(const json::JsonValue &Obj, const char *Name, uint64_t &Out,
                 std::string &Error) {
  const json::JsonValue &V = Obj[Name];
  if (V.K != json::JsonValue::Number) {
    Error = std::string("live snapshot field '") + Name + "' is not a number";
    return false;
  }
  Out = static_cast<uint64_t>(V.Num);
  return true;
}

} // namespace

std::string telemetry::liveSnapshotToJson(const LiveSnapshot &Snap) {
  std::string Out = "{\"kind\":\"";
  Out += LiveSnapshotKind;
  Out += "\",\"version\":";
  Out += std::to_string(Snap.Version);
  Out += ",\"run_id\":";
  appendJsonString(Out, Snap.RunId);
  Out += ",\"pid\":";
  Out += std::to_string(Snap.Pid);
  Out += ",\"seq\":";
  Out += std::to_string(Snap.Seq);
  Out += ",\"wall_ms\":";
  Out += std::to_string(Snap.WallMs);
  Out += ",\"registry\":";
  Out += Snap.Registry.toJson();
  if (Snap.Beat.Present) {
    Out += ",\"heartbeat\":{\"shard\":";
    Out += std::to_string(Snap.Beat.Shard);
    Out += ",\"num_shards\":";
    Out += std::to_string(Snap.Beat.NumShards);
    Out += ",\"cursor\":";
    Out += std::to_string(Snap.Beat.Cursor);
    Out += ",\"planned\":";
    Out += std::to_string(Snap.Beat.Planned);
    Out += ",\"completed\":";
    Out += std::to_string(Snap.Beat.Completed);
    Out += ",\"skipped\":";
    Out += std::to_string(Snap.Beat.Skipped);
    Out += ",\"rung\":";
    appendJsonString(Out, Snap.Beat.Rung);
    Out += ",\"cells\":[";
    for (size_t I = 0; I < Snap.Beat.Cells.size(); ++I) {
      const HeartbeatCell &Cell = Snap.Beat.Cells[I];
      if (I)
        Out += ',';
      Out += "{\"name\":";
      appendJsonString(Out, Cell.Name);
      Out += ",\"total\":";
      Out += std::to_string(Cell.Total);
      Out += ",\"sdc\":";
      Out += std::to_string(Cell.Sdc);
      Out += ",\"low\":";
      Out += formatDoubleExact(Cell.Low);
      Out += ",\"high\":";
      Out += formatDoubleExact(Cell.High);
      Out += ",\"closed\":";
      Out += Cell.Closed ? "true" : "false";
      Out += '}';
    }
    Out += "]}";
  }
  Out += '}';
  return Out;
}

bool telemetry::liveSnapshotFromJson(const json::JsonValue &Json,
                                     LiveSnapshot &Out, std::string &Error) {
  using json::JsonValue;
  if (Json.K != JsonValue::Object) {
    Error = "live snapshot is not a JSON object";
    return false;
  }
  if (Json["kind"].Str != LiveSnapshotKind) {
    Error = "not a live snapshot (kind is not 'cfed-live-snapshot')";
    return false;
  }
  Out = LiveSnapshot();
  if (!numberField(Json, "version", Out.Version, Error))
    return false;
  if (Out.Version != LiveSnapshotVersion) {
    Error = "unsupported live snapshot version " + std::to_string(Out.Version);
    return false;
  }
  if (Json["run_id"].K != JsonValue::String) {
    Error = "live snapshot field 'run_id' is not a string";
    return false;
  }
  Out.RunId = Json["run_id"].Str;
  if (!numberField(Json, "pid", Out.Pid, Error) ||
      !numberField(Json, "seq", Out.Seq, Error) ||
      !numberField(Json, "wall_ms", Out.WallMs, Error))
    return false;
  if (!snapshotFromJson(Json["registry"], Out.Registry, Error)) {
    Error = "live snapshot registry: " + Error;
    return false;
  }
  const JsonValue &Beat = Json["heartbeat"];
  if (Beat.K == JsonValue::Null)
    return true;
  if (Beat.K != JsonValue::Object) {
    Error = "live snapshot field 'heartbeat' is not an object";
    return false;
  }
  Out.Beat.Present = true;
  uint64_t Shard = 0, NumShards = 1;
  if (!numberField(Beat, "shard", Shard, Error) ||
      !numberField(Beat, "num_shards", NumShards, Error) ||
      !numberField(Beat, "cursor", Out.Beat.Cursor, Error) ||
      !numberField(Beat, "planned", Out.Beat.Planned, Error) ||
      !numberField(Beat, "completed", Out.Beat.Completed, Error) ||
      !numberField(Beat, "skipped", Out.Beat.Skipped, Error))
    return false;
  Out.Beat.Shard = static_cast<unsigned>(Shard);
  Out.Beat.NumShards = static_cast<unsigned>(NumShards);
  if (Beat["rung"].K != JsonValue::String) {
    Error = "heartbeat field 'rung' is not a string";
    return false;
  }
  Out.Beat.Rung = Beat["rung"].Str;
  const JsonValue &Cells = Beat["cells"];
  if (Cells.K != JsonValue::Array) {
    Error = "heartbeat field 'cells' is not an array";
    return false;
  }
  for (const JsonValue &C : Cells.Items) {
    if (C.K != JsonValue::Object || C["name"].K != JsonValue::String ||
        C["low"].K != JsonValue::Number || C["high"].K != JsonValue::Number ||
        C["closed"].K != JsonValue::Bool) {
      Error = "heartbeat cell has a malformed shape";
      return false;
    }
    HeartbeatCell Cell;
    Cell.Name = C["name"].Str;
    if (!numberField(C, "total", Cell.Total, Error) ||
        !numberField(C, "sdc", Cell.Sdc, Error))
      return false;
    Cell.Low = C["low"].Num;
    Cell.High = C["high"].Num;
    Cell.Closed = C["closed"].B;
    Out.Beat.Cells.push_back(std::move(Cell));
  }
  return true;
}

bool telemetry::isLiveSnapshotJson(const json::JsonValue &Json) {
  if (Json.K != json::JsonValue::Object)
    return false;
  if (Json["kind"].Str == LiveSnapshotKind)
    return true;
  // Defensive: even a re-wrapped or hand-edited file that still carries
  // live-exporter markers (a sequence number or a heartbeat) is
  // in-flight data, not a final result.
  return Json.Fields.count("seq") != 0 || Json.Fields.count("heartbeat") != 0;
}

//===----------------------------------------------------------------------===//
// Environment probes
//===----------------------------------------------------------------------===//

uint64_t telemetry::wallClockMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

const char *telemetry::recoveryRungFromSnapshot(const RegistrySnapshot &Snap) {
  // Highest rung wins: the ladder only escalates within a run, so the
  // strongest counter that has fired names the current operating mode.
  if (Snap.counterOr("recovery.interp_fallbacks"))
    return "interp-fallback";
  if (Snap.counterOr("recovery.degradations"))
    return "degraded";
  if (Snap.counterOr("integrity.retranslations"))
    return "retranslate";
  if (Snap.counterOr("recovery.rollbacks"))
    return "rollback";
  return "normal";
}

//===----------------------------------------------------------------------===//
// Atomic publish
//===----------------------------------------------------------------------===//

bool telemetry::writeLiveSnapshot(const std::string &Path,
                                  const LiveSnapshot &Snap,
                                  std::string &Error) {
  return writeFileAtomic(Path, liveSnapshotToJson(Snap) + '\n', Error);
}

//===----------------------------------------------------------------------===//
// LiveExporter
//===----------------------------------------------------------------------===//

LiveExporter::LiveExporter(Config C, Source S)
    : Cfg(std::move(C)), Src(std::move(S)) {}

LiveExporter::~LiveExporter() { stop(); }

bool LiveExporter::publish(std::string *Error) {
  // One writer at a time: a service-mode tick and a caller-driven
  // publish share the temp file, and sequence numbers must match the
  // order the files land on disk.
  std::lock_guard<std::mutex> Lock(PublishMutex);
  LiveSnapshot Snap;
  Snap.RunId = Cfg.RunId;
  Snap.Pid = static_cast<uint64_t>(::getpid());
  Snap.Seq = Seq.load(std::memory_order_relaxed) + 1;
  Snap.WallMs = wallClockMs();
  Src(Snap.Registry, Snap.Beat);
  std::string Err;
  if (!writeLiveSnapshot(Cfg.Path, Snap, Err)) {
    Failures.fetch_add(1, std::memory_order_relaxed);
    if (Error)
      *Error = Err;
    return false;
  }
  Seq.store(Snap.Seq, std::memory_order_relaxed);
  return true;
}

void LiveExporter::start() {
  std::lock_guard<std::mutex> Lock(M);
  if (Started)
    return;
  Stopping = false;
  Started = true;
  Worker = std::thread([this] { serviceLoop(); });
}

void LiveExporter::stop() {
  {
    std::lock_guard<std::mutex> Lock(M);
    if (!Started)
      return;
    Stopping = true;
  }
  CV.notify_all();
  Worker.join();
  {
    std::lock_guard<std::mutex> Lock(M);
    Started = false;
  }
  // Final publish so the file on disk reflects the end state even when
  // the last periodic tick raced the run's completion.
  publish();
}

void LiveExporter::serviceLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> Lock(M);
      CV.wait_for(Lock, std::chrono::milliseconds(Cfg.IntervalMs),
                  [this] { return Stopping; });
      if (Stopping)
        return;
    }
    publish();
  }
}
