//===- Recovery.h - Checkpoint/rollback error recovery ----------*- C++ -*-===//
//
// Part of the CFED project (CGO'06 control-flow error detection repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Detect → contain → recover: the layer the paper names as future work.
/// Detection (signature mismatches, execute-disable traps, illegal
/// instructions) only tells you the run is wrong; this subsystem makes the
/// run *survive*:
///
///  * Checkpointing — at safe points (sub-block prologue starts, where all
///    architectural state is guest state) the manager snapshots the
///    CpuState and starts a copy-on-write undo log of guest memory:
///    Memory's page-write observer hands it each page's pre-image on the
///    first write per epoch. A small ring of checkpoints is kept so a
///    detection that slipped past one checkpoint (errant flow crossing a
///    checkpoint trigger before being caught) can roll back deeper.
///
///  * Errant-flow watchdog — relaxed checking policies admit the Section 6
///    infinite-loop hazard: a corrupted branch can spin in checked-free
///    code forever. The watchdog bounds instructions-between-signature-
///    checks; exceeding the bound is treated exactly like a detection.
///
///  * Graceful degradation — rollback + re-execute cures transient faults.
///    For persistent ones the manager climbs a ladder: after
///    MaxSiteRollbacks rollbacks attributed to the same guest code region
///    it first quarantines and retranslates just that region's translation
///    unit (the self-integrity rung: a corrupted translation is surgically
///    replaced); if the same site keeps failing it flushes the code cache
///    and retranslates conservatively (chaining and superblocks off, AllBB
///    checks); after MaxTotalRollbacks total it
///    abandons translation entirely and finishes the run under the plain
///    interpreter on the guest pages, reporting a structured
///    RecoveryReport instead of dying in reportFatalError.
///
//===----------------------------------------------------------------------===//

#ifndef CFED_RECOVERY_RECOVERY_H
#define CFED_RECOVERY_RECOVERY_H

#include "dbt/Dbt.h"
#include "vm/Interp.h"
#include "vm/Memory.h"

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace cfed {

/// Tuning knobs for the recovery subsystem.
struct RecoveryConfig {
  /// Take a checkpoint at the first safe point after this many
  /// instructions since the previous checkpoint.
  uint64_t CheckpointInterval = 10000;
  /// Soft cap on undo-log bytes across the checkpoint ring; exceeding it
  /// forces a checkpoint (retiring the oldest ring entry and its log).
  uint64_t MemoryBudget = 16ull << 20;
  /// Errant-flow watchdog: maximum instructions between signature checks
  /// before the flow is declared errant (0 disables the watchdog).
  /// Detection latency is at most twice this bound (slice granularity).
  uint64_t WatchdogBound = 1000000;
  /// Rollbacks attributed to the same guest code region before the DBT is
  /// degraded to its conservative configuration.
  unsigned MaxSiteRollbacks = 2;
  /// Total rollbacks before giving up on translation and finishing the
  /// run under the plain interpreter.
  unsigned MaxTotalRollbacks = 6;
  /// Checkpoint ring depth (>= 1). Deeper rings survive detections that
  /// cross a checkpoint boundary before firing.
  unsigned MaxCheckpoints = 2;
};

/// What happened across a recovered run. This is the structured
/// alternative to reportFatalError the degradation ladder ends in.
struct RecoveryReport {
  /// True when the program ran to Halt (possibly after rollbacks).
  bool Completed = false;
  /// Final interpreter stop (the Halt, or whatever ended the run).
  StopInfo FinalStop;
  /// Guest-level attribution of FinalStop.PC.
  uint64_t GuestStopPC = 0;
  uint64_t NumCheckpoints = 0;
  uint64_t NumRollbacks = 0;
  uint64_t NumWatchdogFires = 0;
  /// The DBT was degraded to its conservative configuration.
  bool Degraded = false;
  /// The run finished under the plain interpreter (last ladder rung).
  bool InterpreterFallback = false;
  /// Diagnostic line for the first detection, empty for a clean run
  /// (see formatTrapDiagnostic).
  std::string FirstDetection;
  /// Instructions executed including all rolled-back work.
  uint64_t TotalExecuted = 0;
};

/// Drives an Interpreter + Dbt pair with checkpointing, watchdog
/// supervision and rollback recovery. Use after Dbt::load in place of
/// Dbt::run. Installs itself as the interpreter's SafePointHook (over the
/// translator's safe points) and as the Memory's page-write observer for
/// the duration of run(), so an unhooked run stays on the hook-free loop;
/// a fault injector composes by arming at its instant
/// (Interpreter::armFault).
class RecoveryManager : public SafePointHook, public PageWriteObserver {
public:
  RecoveryManager(Interpreter &Interp, Dbt &Translator,
                  RecoveryConfig Config);
  ~RecoveryManager() override;

  /// Runs to completion with recovery. \p MaxInsns bounds forward
  /// progress (like Interpreter::run); total work including re-execution
  /// is additionally bounded by MaxInsns * (MaxTotalRollbacks + 2).
  RecoveryReport run(uint64_t MaxInsns);

  /// Attaches/detaches a flight recorder: every detection (trap,
  /// watchdog fire) and every ladder escalation (quarantine,
  /// degradation, interpreter fallback) then writes a post-mortem
  /// bundle. Also forwarded to the translator so integrity quarantines
  /// found by its scrubber/dispatch verifier are bundled too.
  void setFlightRecorder(telemetry::FlightRecorder *FR) {
    Recorder = FR;
    Translator.setFlightRecorder(FR);
  }

  // SafePointHook: checkpoints and watchdog anchors.
  void onSafePoint(uint64_t CacheAddr, bool Checked, uint64_t Insns,
                   uint64_t Cycles) override;

  // PageWriteObserver: undo-log pre-image capture.
  void onPageDirtied(uint64_t PageBase, const uint8_t *OldBytes) override;

private:
  struct Checkpoint {
    uint64_t GuestPC = 0;
    CpuState State;
    uint64_t Insns = 0;
    uint64_t Cycles = 0;
    size_t OutputLen = 0;
    /// Page base -> pre-image of the page at checkpoint time, for every
    /// page written since this checkpoint (while it was newest).
    std::unordered_map<uint64_t, std::vector<uint8_t>> UndoLog;
    uint64_t UndoBytes = 0;
  };

  void takeCheckpoint(uint64_t GuestPC, uint64_t InsnsNow, uint64_t CyclesNow);
  /// Rolls back \p Depth checkpoints (1 = newest). Returns the guest PC
  /// of the restored checkpoint.
  uint64_t rollbackTo(size_t Depth);
  /// Handles one detection attributed to \p SiteKey; climbs the
  /// degradation ladder as counters dictate. \p Stop is the interpreter
  /// stop that triggered the detection (post-mortem context).
  void recover(uint64_t SiteKey, const StopInfo &Stop);
  void enterInterpreterFallback(const StopInfo &Stop);
  /// Writes a post-mortem bundle when a recorder is attached.
  void dumpPostMortem(const char *Reason, const StopInfo &Stop);

  Interpreter &Interp;
  Dbt &Translator;
  RecoveryConfig Config;
  RecoveryReport Report;

  // Registry-backed counters (the translator's registry), cached once.
  // The per-run RecoveryReport fields are kept alongside: the report is
  // this run's result object, the registry the cumulative telemetry.
  telemetry::Counter &CkptCounter;
  telemetry::Counter &RollbackCounter;
  telemetry::Counter &WatchdogCounter;
  telemetry::Counter &DegradeCounter;
  telemetry::Counter &FallbackCounter;

  std::deque<Checkpoint> Checkpoints;
  std::unordered_map<uint64_t, unsigned> SiteRollbacks;
  /// Sites already given the quarantine-retranslate rung; a second
  /// escalation at such a site climbs to degradeToConservative().
  std::unordered_set<uint64_t> QuarantinedSites;
  unsigned TotalRollbacks = 0;
  /// Instruction count at the newest checkpoint.
  uint64_t CheckpointInsns = 0;
  /// Undo-log bytes across the ring: the sum of every checkpoint's
  /// UndoBytes, kept as they change.
  uint64_t RingUndoBytes = 0;
  /// Instruction count when a signature check site last executed.
  uint64_t LastCheck = 0;
  bool Fallback = false;
  bool InRestore = false;
  telemetry::FlightRecorder *Recorder = nullptr;
};

} // namespace cfed

#endif // CFED_RECOVERY_RECOVERY_H
