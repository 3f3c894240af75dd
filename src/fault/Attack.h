//===- Attack.h - Adversarial control-flow attack campaigns -----*- C++ -*-===//
//
// Part of the CFED project (CGO'06 control-flow error detection repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Adversarial-mode campaigns: instead of flipping random bits (the
/// paper's soft-error model, fault/Campaign.h), an attacker picks the
/// *worst case* — control transfers redirected to targets that carry a
/// valid signature under the configured technique, so the signature
/// check has nothing to catch. Three adversary families:
///
///  * Return    — ROP-style corruption of a return address on the VISA
///                stack, applied immediately before the ret lowering's
///                Pop consumes it. Gadget search consults the checker's
///                acceptsForgedReturn() oracle: for the address-mapped
///                schemes (EdgCF/RCF/ECF) every translated block is a
///                valid gadget (the signature is derived from the popped
///                value itself), which is exactly why a shadow return
///                stack is needed.
///  * Indirect  — an IBTC entry is swapped to the live translation of
///                another signature-carrying block, with a correctly
///                resealed check word (an attacker who understands the
///                seal). Models indirect-jump/call target hijacking.
///  * CodePatch — SMC-style patching of a direct exit (Tramp stub or
///                chained Jmp) in translated code, keeping the patch
///                signature-compatible for the additive schemes by
///                adjusting the preceding lea signature update. The
///                self-integrity machinery (scrubber / dispatch verify),
///                not the signature algebra, is the intended catcher.
///
/// The campaign runs like a fault campaign: prepare() golden run,
/// deterministic plan() over per-family dynamic event streams, then the
/// campaign batch loop (fault/BatchLoop.h), every attack forked from a
/// snapshot and armed at its event's retired-instruction index. Outcomes are finer-grained
/// than fault outcomes: detection is attributed to the signature scheme
/// (0xCFE/0x5EC), the shadow return stack (0x5AC), the self-integrity
/// layer, or hardware — the per-technique precision matrix of DESIGN.md
/// §15.
///
//===----------------------------------------------------------------------===//

#ifndef CFED_FAULT_ATTACK_H
#define CFED_FAULT_ATTACK_H

#include "asm/Assembler.h"
#include "dbt/Dbt.h"
#include "fault/Category.h"
#include "fault/GuestRun.h"
#include "recovery/Recovery.h"
#include "telemetry/FlightRecorder.h"

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace cfed {

/// The adversary families. Keep NumAttackFamilies in sync.
enum class AttackFamily : uint8_t {
  Return,   ///< Forge a return address on the stack before its Pop.
  Indirect, ///< Swap an IBTC entry to another translated block.
  CodePatch ///< Patch a direct exit in the code cache (SMC).
};

inline constexpr unsigned NumAttackFamilies = 3;

/// Returns "return", "indirect" or "code-patch".
const char *getAttackFamilyName(AttackFamily F);

/// The appended branch-error category an attack family reports under
/// (AttackReturn/AttackIndirect/AttackCodePatch — stable numeric IDs,
/// see fault/Category.h).
BranchErrorCategory attackCategory(AttackFamily F);

/// How one attacked run ended. Finer-grained than fault Outcome: the
/// detector that fired matters (the precision matrix separates
/// shadow-stack-only catches from signature catches). Keep
/// NumAttackOutcomes in sync.
enum class AttackOutcome : uint8_t {
  DetectedSignature,   ///< 0xCFE / 0x5EC: the signature scheme caught it.
  DetectedShadowStack, ///< 0x5AC: only the shadow return stack caught it.
  DetectedIntegrity,   ///< Self-integrity quarantined the tampered code
                       ///< and the healed run completed golden.
  DetectedHardware,    ///< Memory protection / illegal instruction.
  Evaded,              ///< Run completed with corrupted output and no
                       ///< detector fired: the attack won.
  Masked,              ///< Run completed with the golden output.
  Timeout,             ///< Run exceeded the instruction budget without
                       ///< any detector firing.
  Recovered,           ///< Detected, rolled back, completed golden
                       ///< (recovery campaigns only).
  RecoveryFailed       ///< Detected and rolled back, but the run did not
                       ///< reproduce the golden output.
};

inline constexpr unsigned NumAttackOutcomes = 9;

/// Returns a short display name for \p O.
const char *getAttackOutcomeName(AttackOutcome O);

/// The registry counter name tallying \p O for \p F attacks:
/// "attack.<family>.<outcome>".
std::string getAttackCounterName(AttackFamily F, AttackOutcome O);

/// One planned attack: at the \p Instance-th dynamic event of \p Family
/// (return-pop / indirect-dispatch / direct-exit execution), redirect
/// the transfer from \p RealTarget to \p ForgedTarget.
struct PlannedAttack {
  uint64_t Instance = 0;
  AttackFamily Family = AttackFamily::Return;
  /// Cache address of the event instruction.
  uint64_t SiteAddr = 0;
  /// Guest target the unattacked run would have taken.
  uint64_t RealTarget = 0;
  /// Guest address of the gadget block control is redirected to.
  /// 0 when the gadget search found no candidate (unactionable).
  uint64_t ForgedTarget = 0;
  /// The checker's acceptsForgedReturn() oracle accepted the forged
  /// edge — the signature check provably cannot fire on it.
  bool GadgetValid = false;
  /// Retired-instruction index of the event in the fault-free run
  /// (instructionCount() right after it): where an injection arms the
  /// attack. 0 when planning never reached it (it then never fires).
  uint64_t InsnIndex = 0;
};

/// Per-family outcome tallies.
struct AttackOutcomeCounts {
  uint64_t DetectedSig = 0;
  uint64_t DetectedShadow = 0;
  uint64_t DetectedIntegrity = 0;
  uint64_t DetectedHw = 0;
  uint64_t Evaded = 0;
  uint64_t Masked = 0;
  uint64_t Timeout = 0;
  uint64_t Recovered = 0;
  uint64_t RecoveryFailed = 0;

  uint64_t total() const {
    return DetectedSig + DetectedShadow + DetectedIntegrity + DetectedHw +
           Evaded + Masked + Timeout + Recovered + RecoveryFailed;
  }
  /// Detections the technique can claim without the shadow stack.
  uint64_t detected() const {
    return DetectedSig + DetectedIntegrity + DetectedHw + RecoveryFailed;
  }
  /// Attacks no detector caught (the attacker's score).
  uint64_t undetected() const { return Evaded + Timeout; }
  /// The tally of outcome \p O.
  uint64_t &of(AttackOutcome O);
  void add(AttackOutcome O) { ++of(O); }
  void merge(const AttackOutcomeCounts &Other);

  bool operator==(const AttackOutcomeCounts &Other) const = default;
};

/// Aggregated campaign results, bucketed by attack family.
struct AttackResult {
  std::array<AttackOutcomeCounts, NumAttackFamilies> PerFamily;
  uint64_t Attacks = 0;

  AttackOutcomeCounts &of(AttackFamily F) {
    return PerFamily[static_cast<unsigned>(F)];
  }
  const AttackOutcomeCounts &of(AttackFamily F) const {
    return PerFamily[static_cast<unsigned>(F)];
  }
  AttackOutcomeCounts totals() const;

  bool operator==(const AttackResult &Other) const = default;
};

/// Rebuilds per-family outcome tallies from the "attack.<family>.*"
/// counters of \p Snap — the inverse of the campaign's tally pass, so
/// results and telemetry can never disagree (and shard merges reuse the
/// registry fold).
AttackResult
attackResultFromSnapshot(const telemetry::RegistrySnapshot &Snap);

/// True when \p Snap carries any attack campaign tallies — how
/// cfed-stat decides whether a result file is an attack campaign.
bool hasAttackTallies(const telemetry::RegistrySnapshot &Snap);

/// Renders the per-family precision matrix (one row per attack family,
/// one column per outcome, plus a totals row) from the attack.*
/// counters of \p Snap. Returns "" when the snapshot carries none.
std::string renderPrecisionMatrix(const telemetry::RegistrySnapshot &Snap);

/// The fixed machine-readable summary line CI greps:
/// "precision-summary: attacks=N detected=X shadow_only=Y undetected=Z
///  recovered=R benign=B". The five cells partition every attack:
/// detected = signature + integrity + hardware + failed recoveries,
/// shadow_only = caught by the shadow return stack alone,
/// undetected = evaded + timeout, benign = masked.
std::string
renderPrecisionSummaryLine(const telemetry::RegistrySnapshot &Snap);

/// An adversarial campaign against one program under one DBT
/// configuration.
class AttackCampaign {
public:
  AttackCampaign(const AsmProgram &Program, DbtConfig Config);

  /// Golden run: records the reference output hash, the instruction
  /// budget and the per-family dynamic event populations. Returns false
  /// if the program fails to load or does not halt within \p MaxInsns.
  bool prepare(uint64_t MaxInsns);

  /// Plans \p NumCandidates attacks split evenly over the families with
  /// a non-empty event stream, interleaved round-robin. Deterministic in
  /// \p Seed: per-family draws use derived seeds, so the plan is
  /// identical for any job count and shard split. Gadgets are drawn from
  /// the blocks live at the event instant, preferring targets the
  /// checker's acceptsForgedReturn() oracle accepts. The planning run
  /// snapshots itself before actionable attacks like
  /// FaultCampaign::plan(); pass \p TakeSnapshots false when every
  /// injection starts at instant 0 (recovery runs).
  std::vector<PlannedAttack> plan(uint64_t NumCandidates, uint64_t Seed,
                                  bool TakeSnapshots = true);

  /// Full record of one attacked run.
  struct AttackReport {
    AttackOutcome Result = AttackOutcome::Masked;
    /// The attack actually fired.
    bool Fired = false;
    /// Instructions retired after the attacked one until the run ended;
    /// 0 unless the attack fired.
    uint64_t LatencyInsns = 0;
  };

  /// Executes one planned attack, plain or under checkpoint/rollback
  /// \p Recovery, and classifies the outcome. Thread-safe after
  /// prepare(): every run forks the latest snapshot before the attack's
  /// instant (instant 0 under recovery and with a recorder, so rollbacks
  /// and bundles see the whole run) and only reads campaign state. With a
  /// \p Recorder one post-mortem bundle is written — reason
  /// "attack-evasion" for Evaded/Timeout outcomes (the proof artifact
  /// the precision matrix cites), "attack-injection" otherwise.
  /// Recorder use is serial-only.
  AttackReport
  injectAttack(const PlannedAttack &Attack,
               const RecoveryConfig *Recovery = nullptr,
               telemetry::FlightRecorder *Recorder = nullptr) const;

  /// Runs a full campaign: plan, drop unactionable candidates, inject —
  /// the AttackEngine's batch loop as one checkpoint-free batch, so the
  /// registry equals the unsharded engine's for any \p Jobs. With a
  /// \p Recorder, every Evaded/Timeout attack is re-injected serially
  /// afterwards to write its evasion bundle (injections are
  /// deterministic, so the replay reproduces the run).
  AttackResult run(uint64_t NumAttacks, uint64_t Seed, unsigned Jobs = 1,
                   telemetry::FlightRecorder *Recorder = nullptr);

  /// The recovery-effectiveness variant: same plan and selection as
  /// run() for equal arguments, every injection under recovery.
  AttackResult runWithRecovery(uint64_t NumAttacks, uint64_t Seed,
                               const RecoveryConfig &Recovery,
                               unsigned Jobs = 1);

  uint64_t goldenInsns() const { return Reference.Insns; }
  uint64_t goldenHash() const { return Reference.Hash; }
  /// Snapshots the current plan took.
  size_t numSnapshots() const { return Snaps.numPlanSnapshots(); }
  /// Dynamic events of \p F in the golden run (the plan population).
  uint64_t eventExecutions(AttackFamily F) const {
    return EventCounts[static_cast<unsigned>(F)];
  }

  /// Cumulative "attack.<family>.<outcome>" counters plus
  /// "attack.attacks" across every run()/runWithRecovery() call.
  const telemetry::MetricsRegistry &metrics() const { return Metrics; }

private:
  /// run()/runWithRecovery(): one checkpoint-free batch through the
  /// campaign batch loop, folded into Metrics.
  AttackResult runOneBatch(uint64_t NumAttacks, uint64_t Seed, unsigned Jobs,
                           const RecoveryConfig *Recovery,
                           telemetry::FlightRecorder *Recorder);

  const AsmProgram &Program;
  DbtConfig Config;
  telemetry::MetricsRegistry Metrics;
  /// The golden run (output hash, instruction count, budget).
  GoldenRun Reference;
  std::array<uint64_t, NumAttackFamilies> EventCounts{};
  bool Prepared = false;
  /// Every injection forks one of these.
  SnapshotSet Snaps;
};

} // namespace cfed

#endif // CFED_FAULT_ATTACK_H
