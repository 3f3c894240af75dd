//===- GuestRun.h - One campaign run and its classification -----*- C++ -*-===//
//
// Part of the CFED project (CGO'06 control-flow error detection repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The run every campaign kind shares: a fresh memory/translator/
/// interpreter trio with the program loaded, the golden reference run and
/// its instruction budget, one injected run (plain or under recovery),
/// and the one classifier that turns how the run ended into an outcome.
/// Kinds differ only in their detector table (DESIGN.md §13): which break
/// codes count as signature or shadow-stack detections, whether ECCA's
/// div-by-zero inside instrumentation counts, and whether a golden run
/// the self-integrity layer healed counts as a detection.
///
//===----------------------------------------------------------------------===//

#ifndef CFED_FAULT_GUESTRUN_H
#define CFED_FAULT_GUESTRUN_H

#include "asm/Assembler.h"
#include "dbt/Dbt.h"
#include "recovery/Recovery.h"

#include <memory>
#include <vector>

namespace cfed {

enum class Outcome : uint8_t;       // fault/Campaign.h
enum class AttackOutcome : uint8_t; // fault/Attack.h

/// The fault-free reference run a campaign compares against.
struct GoldenRun {
  uint64_t Insns = 0;
  uint64_t Hash = 0;

  /// Instruction budget of every planning and injected run: four golden
  /// runs plus slack, so a fault-induced detour ends as a timeout.
  uint64_t budget() const { return Insns * 4 + 100000; }
};

/// How one run ended, as the classifier reads it.
struct RunEnd {
  /// The final stop (RecoveryReport::FinalStop under recovery).
  StopInfo Stop;
  bool UnderRecovery = false;
  /// The recovery ladder's record; zero-filled for plain runs.
  RecoveryReport Recovery;
  /// The run halted with the golden output.
  bool GoldenOutput = false;
  /// The self-integrity layer found (and healed) tampered code or
  /// metadata during the run.
  bool Healed = false;
  /// The instruction count the run ended at.
  uint64_t Insns = 0;
  /// Under recovery, the instant where the run rejoined the golden
  /// recovery run and was cut off (SnapshotSet::rejoin); 0 when it ran to
  /// its end.
  uint64_t RejoinedAt = 0;
  /// The trap instruction lies in checker-inserted code (read only for
  /// div-by-zero traps, ECCA's error report).
  bool TrapInInstrumentation = false;
};

/// One execution instance: a fresh one with the program loaded, a
/// copy-on-write fork of a snapshot, or a snapshot (DESIGN.md §12).
class SnapshotSet;

struct GuestRun {
  Memory Mem;
  /// The run's digest stream, when it tracks propagation.
  std::unique_ptr<telemetry::DigestRecorder> Digests;
  Dbt Translator;
  Interpreter Interp;
  bool Loaded;
  /// In a recovery plan's snapshot, the state of the planning run's
  /// recovery manager there; a fork shares it and resumes that run.
  std::shared_ptr<const RecoveryManager::RunState> RecoveryState;

  /// Loads \p Program. With \p TrackDigests the digest recorder is
  /// attached before load(): eager configurations translate at load
  /// time, and every run of a campaign must share one code-cache layout.
  GuestRun(const AsmProgram &Program, const DbtConfig &Config,
           bool TrackDigests = false);

  /// Forks \p Snapshot (made by snapshot()): shares its pages and copies
  /// its translator, CPU state, progress, output and digest capture
  /// state, so running the fork equals running on from where the
  /// snapshot was taken. Any number of threads may fork one snapshot at
  /// once.
  explicit GuestRun(const GuestRun &Snapshot);

  /// Freezes this run's memory and returns a snapshot of the run at this
  /// point, for later forks to start from. A snapshot holds a memory
  /// image (DESIGN.md §12) and is never run itself. This run goes on;
  /// its next write to each page copies it.
  std::unique_ptr<GuestRun> snapshot();

  /// Runs the loaded program (hooks already attached) as the golden run;
  /// false unless it loaded and halts within \p MaxInsns.
  bool golden(uint64_t MaxInsns, GoldenRun &Out);

  /// Runs a planning or injected run up to \p Golden's budget (counted
  /// from program start, so a fork gets what is left of it): plain
  /// Dbt::run, or under a RecoveryManager for \p Recovery, which starts
  /// at instant 0 or resumes the recovery run of the snapshot this run
  /// forks. With \p Plan (whose recovery snapshots this run forks) the
  /// run is cut off where it rejoins the golden recovery run at or after
  /// instant \p RejoinFrom (SnapshotSet::rejoin). Fatal when the program
  /// did not load (its golden run did).
  RunEnd finish(const GoldenRun &Golden,
                const RecoveryConfig *Recovery = nullptr,
                const SnapshotSet *Plan = nullptr, uint64_t RejoinFrom = 0);

private:
  /// Copies \p From's run state onto a memory made by
  /// Memory(From.Mem, \p Tag): an image or a fork.
  template <typename MemoryTag> GuestRun(const GuestRun &From, MemoryTag Tag);
};

/// The snapshots a campaign forks its injections from (DESIGN.md §12):
/// the load-time one (instant 0) and the current plan's, in instant
/// order, at most MaxPlanSnapshots spaced over the golden run. The owner
/// replaces them only between injections, so they outlive every fork and
/// frozen pages are freed on the planning thread.
///
/// A recovery plan's planning run runs under a RecoveryManager to its
/// end: its snapshots carry the recovery run's state, and the set keeps
/// how that golden recovery run ended, so an injection under the same
/// RecoveryConfig forks the latest snapshot before its fault and stops
/// where it rejoins the golden run (DESIGN.md §7).
class SnapshotSet {
public:
  static constexpr uint64_t MaxPlanSnapshots = 64;

  /// Takes \p Loaded's load-time snapshot, dropping every other one.
  void reset(GuestRun &Loaded);
  /// Drops the plan snapshots; the next plan over a golden run of
  /// \p GoldenInsns instructions takes its own only when \p Take, under
  /// \p Recovery when given.
  void beginPlan(uint64_t GoldenInsns, bool Take,
                 const RecoveryConfig *Recovery = nullptr);
  /// A planning hook offers the planned instruction \p Planner has
  /// charged (opcode \p Op) but not executed. It is snapshotted just
  /// before, counts adjusted like a recovery checkpoint's, when it stands
  /// 1/MaxPlanSnapshots of the golden run past the previous snapshot,
  /// with the state of \p Manager, the planner's recovery manager in a
  /// recovery plan.
  void offer(GuestRun &Planner, Opcode Op,
             RecoveryManager *Manager = nullptr);
  /// Ends a recovery plan whose planning run \p Planner, under
  /// \p Manager, has ended: records how the golden recovery run ended.
  /// Its snapshots serve injections only when it reproduced \p Golden
  /// without a rollback, a watchdog fire or a healed translation.
  void endRecoveryPlan(GuestRun &Planner, RecoveryManager &Manager,
                       const GoldenRun &Golden);

  const GuestRun &start() const { return *Start; }
  /// The latest snapshot before the instruction that retires as number
  /// \p InsnIndex: what an injection armed there forks.
  const GuestRun &before(uint64_t InsnIndex) const;
  size_t numPlanSnapshots() const { return Plan.size(); }
  /// The plan's snapshots carry a golden recovery run under \p Config.
  bool forksRecovery(const RecoveryConfig &Config) const {
    return RecoveryPlan && RecoveryPlan->Usable &&
           RecoveryPlan->Config == Config;
  }

  /// Advances \p Manager's run of \p Run (a fork of this recovery plan's
  /// snapshots) through each later snapshot instant from \p From on and
  /// compares the paused run with that snapshot: guest registers, FLAGS,
  /// FP file and PC, cycles, output, every mapped page and its
  /// permissions, the translations, and the recovery manager's schedule
  /// (RecoveryManager::rejoins). When equal, the rest of the run is the
  /// golden run's: \p End is filled from the golden recovery run's end
  /// (Recovered if it rolled back, Masked otherwise) and true returned.
  /// Returns false when the run ended or passed the last snapshot without
  /// rejoining.
  bool rejoin(GuestRun &Run, RecoveryManager &Manager, uint64_t From,
              RunEnd &End) const;

private:
  /// How a recovery plan's golden run ended.
  struct GoldenRecovery {
    RecoveryConfig Config;
    bool Usable = false;
    RecoveryReport End;
    uint64_t Insns = 0;
    /// Per plan snapshot: the longest check-free stretch of the golden
    /// run from there on, counted from the snapshot's watchdog anchor.
    std::vector<uint64_t> Stretch;
  };

  std::unique_ptr<GuestRun> Start;
  std::vector<std::unique_ptr<GuestRun>> Plan;
  uint64_t Spacing = 0; ///< 0: the plan takes none.
  uint64_t Last = 0;    ///< Instant of the latest snapshot.
  /// Set by beginPlan() under recovery; endRecoveryPlan() completes it.
  std::unique_ptr<GoldenRecovery> RecoveryPlan;
  /// Per plan snapshot of a recovery plan: the longest check-free
  /// stretch that ended between the previous snapshot and this one.
  std::vector<uint64_t> GapBefore;
};

/// Which detectors a campaign kind credits beyond the signature check's
/// 0xCFE, which every kind counts (DESIGN.md §13 tabulates the four).
struct DetectorTable {
  /// Break codes counted as signature detections.
  bool MonitorCorruption = false; ///< 0x5EC, shadow-signature mismatch.
  bool DataFlow = false;          ///< 0xDFE, data-flow checking.
  /// 0x5AC counts as a shadow-return-stack detection.
  bool ShadowStack = false;
  /// A div-by-zero trap inside instrumentation is ECCA's error report.
  bool EccaDivByZero = false;
  /// A golden run with a healed integrity mismatch counts as
  /// DetectedIntegrity, in plain runs / under recovery.
  bool HealsPlain = false;
  bool HealsUnderRecovery = false;
};

/// Branch-fault campaigns (FaultCampaign, CampaignEngine).
inline constexpr DetectorTable FaultDetectors{.EccaDivByZero = true};
/// Adversarial campaigns (AttackCampaign, AttackEngine).
inline constexpr DetectorTable AttackDetectors{.MonitorCorruption = true,
                                               .ShadowStack = true,
                                               .EccaDivByZero = true,
                                               .HealsPlain = true};
/// Register-file campaigns (the data-flow checking evaluation).
inline constexpr DetectorTable RegisterDetectors{.DataFlow = true};
/// Checker-targeted campaigns (the self-integrity evaluation).
inline constexpr DetectorTable IntegrityDetectors{.MonitorCorruption = true,
                                                  .DataFlow = true,
                                                  .HealsPlain = true,
                                                  .HealsUnderRecovery = true};

/// Classifies one finished run under \p Kind's detector table into the
/// finest outcome set. A rolled-back run is Recovered when it reproduces
/// the golden output and RecoveryFailed otherwise; a trap that ends a
/// recovery run means the ladder is exhausted (RecoveryFailed).
AttackOutcome classifyRun(const DetectorTable &Kind, const RunEnd &End);

/// Projects an attack outcome onto the fault outcomes: shadow-stack
/// catches are hardware detections, healed runs are Recovered and
/// evasions are silent data corruption.
Outcome toOutcome(AttackOutcome O);

} // namespace cfed

#endif // CFED_FAULT_GUESTRUN_H
