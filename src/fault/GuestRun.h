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
  /// The trap instruction lies in checker-inserted code (read only for
  /// div-by-zero traps, ECCA's error report).
  bool TrapInInstrumentation = false;
};

/// One execution instance: a fresh one with the program loaded, a
/// copy-on-write fork of a snapshot, or a snapshot (DESIGN.md §12).
struct GuestRun {
  Memory Mem;
  /// The run's digest stream, when it tracks propagation.
  std::unique_ptr<telemetry::DigestRecorder> Digests;
  Dbt Translator;
  Interpreter Interp;
  bool Loaded;

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
  /// Dbt::run, or RecoveryManager::run when \p Recovery is given. Fatal
  /// when the program did not load (its golden run did).
  RunEnd finish(const GoldenRun &Golden,
                const RecoveryConfig *Recovery = nullptr);

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
class SnapshotSet {
public:
  static constexpr uint64_t MaxPlanSnapshots = 64;

  /// Takes \p Loaded's load-time snapshot, dropping every other one.
  void reset(GuestRun &Loaded);
  /// Drops the plan snapshots; the next plan over a golden run of
  /// \p GoldenInsns instructions takes its own only when \p Take.
  void beginPlan(uint64_t GoldenInsns, bool Take);
  /// A planning hook offers the planned instruction \p Planner has
  /// charged (opcode \p Op) but not executed. It is snapshotted just
  /// before, counts adjusted like a recovery checkpoint's, when it stands
  /// 1/MaxPlanSnapshots of the golden run past the previous snapshot.
  void offer(GuestRun &Planner, Opcode Op);

  const GuestRun &start() const { return *Start; }
  /// The latest snapshot before the instruction that retires as number
  /// \p InsnIndex: what an injection armed there forks.
  const GuestRun &before(uint64_t InsnIndex) const;
  size_t numPlanSnapshots() const { return Plan.size(); }

private:
  std::unique_ptr<GuestRun> Start;
  std::vector<std::unique_ptr<GuestRun>> Plan;
  uint64_t Spacing = 0; ///< 0: the plan takes none.
  uint64_t Last = 0;    ///< Instant of the latest snapshot.
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
