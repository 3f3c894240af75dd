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

  bool operator==(const RecoveryConfig &Other) const = default;
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
/// translator's safe points) and as the Memory's page-write observer
/// while a run is attached (start() or resume() to finish()), so an
/// unhooked run stays on the hook-free loop; a fault injector composes by
/// arming at its instant (Interpreter::armFault).
///
/// A run can stop between two instructions and go on (advance()), and
/// its state there can be copied out (pausedState()) and resumed by
/// another manager on a fork of the guest run (resume()): that is how a
/// recovery plan's snapshots carry the recovery run (DESIGN.md §7, §12).
class RecoveryManager : public SafePointHook, public PageWriteObserver {
public:
  /// One entry of the checkpoint ring.
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

  /// Everything a recovery run carries from one instruction to the next
  /// besides the guest run itself (memory, CPU state, translator).
  struct RunState {
    RecoveryReport Report;
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
    /// The watchdog slice in progress (InSlice) ends at SliceEnd; the
    /// watchdog is checked there when WatchdogOn.
    bool InSlice = false;
    bool WatchdogOn = false;
    uint64_t SliceEnd = 0;
    /// The safe point at SettledPC already took effect for the
    /// instruction that retires as number SettledAt + 1 (settle()), so
    /// the manager passes over it once when that instruction executes.
    bool Settled = false;
    uint64_t SettledAt = 0;
    uint64_t SettledPC = 0;
  };

  RecoveryManager(Interpreter &Interp, Dbt &Translator,
                  RecoveryConfig Config);
  ~RecoveryManager() override;

  /// Runs to completion with recovery: start(), advance(), finish().
  /// \p MaxInsns bounds forward progress (like Interpreter::run); total
  /// work including re-execution is additionally bounded by
  /// MaxInsns * (MaxTotalRollbacks + 2).
  RecoveryReport run(uint64_t MaxInsns);

  /// Attaches a new run at the program entry: the seed checkpoint is
  /// taken there and the watchdog anchored at the current instant.
  void start(uint64_t MaxInsns);
  /// Attaches a run that goes on from \p From, a pausedState() of
  /// another manager's run over the guest run this one's interpreter,
  /// memory and translator fork; nothing is seeded.
  void resume(const RunState &From, uint64_t MaxInsns);
  /// Runs the attached run until it ends (returns true: Halt, a trap
  /// below the last ladder rung, or a budget) or pauses between two
  /// instructions (returns false): when the instruction count reaches
  /// \p Until (a count at or past the budget never pauses), or when a
  /// fault hook asked the interpreter to stop. Pausing does not move
  /// the watchdog's slices: the run goes on exactly as an uninterrupted
  /// one. After the end it returns true at once.
  bool advance(uint64_t Until = ~0ull);
  /// Detaches the run and returns its report.
  RecoveryReport finish();

  /// Lets the safe point of the instruction about to execute, if it is
  /// one, take effect now instead of when it executes: a paused run then
  /// stands where a snapshot taken by a hook of that instruction stands.
  void settle();
  /// The run's state as a hook of the instruction that retires as number
  /// \p Insns + 1 sees it (inside advance()), settled: what a snapshot
  /// taken there carries.
  RunState pausedState(uint64_t Insns) const;
  /// The run's state while paused.
  const RunState &runState() const { return Run; }

  /// Whether this run, paused and settled at the instant where the
  /// fault-free run of the same program stood in \p Golden, takes the
  /// same course from there as that run did when the guest runs are
  /// equal: no ladder rung was climbed, the checkpoint ring will take the
  /// same checkpoints, the watchdog cannot fire in the \p RestInsns
  /// instructions \p Golden went on for (given its longest check-free
  /// stretch from there, \p Stretch) and the work budget lasts.
  bool rejoins(const RunState &Golden, uint64_t Stretch,
               uint64_t RestInsns) const;

  /// The longest check-free stretch ended by a signature check since the
  /// previous call (a planning run's per-snapshot statistic).
  uint64_t takeLongestCheckGap() {
    uint64_t Gap = LongestCheckGap;
    LongestCheckGap = 0;
    return Gap;
  }

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
  /// Installs the hooks and the budgets of a run of \p MaxInsns.
  void attach(uint64_t MaxInsns);
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

  // Registry-backed counters (the translator's registry), cached once.
  // The per-run RecoveryReport fields are kept alongside: the report is
  // this run's result object, the registry the cumulative telemetry.
  telemetry::Counter &CkptCounter;
  telemetry::Counter &RollbackCounter;
  telemetry::Counter &WatchdogCounter;
  telemetry::Counter &DegradeCounter;
  telemetry::Counter &FallbackCounter;

  RunState Run;
  uint64_t MaxInsns = 0;
  uint64_t TotalBudget = 0;
  /// Instruction count where the interpreter run in progress began.
  uint64_t ChunkStart = 0;
  /// The run ended; LastStop is how.
  bool Ended = false;
  StopInfo LastStop;
  uint64_t LongestCheckGap = 0;
  bool InRestore = false;
  telemetry::FlightRecorder *Recorder = nullptr;
};

} // namespace cfed

#endif // CFED_RECOVERY_RECOVERY_H
