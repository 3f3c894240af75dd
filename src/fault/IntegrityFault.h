//===- IntegrityFault.h - Checker-targeted fault injection ------*- C++ -*-===//
//
// Part of the CFED project (CGO'06 control-flow error detection repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The expanded fault model that targets the checker itself — the "who
/// checks the checker" campaigns validating the self-integrity subsystem
/// (DESIGN.md §10). Three new injection targets, each striking monitor
/// state instead of guest state:
///
///  * CodeByte   — one bit of a translated block's emitted cache bytes
///                 (the scrubber's and dispatch verifier's domain);
///  * TableEntry — one bit of DBT dispatch metadata: a BlockTable
///                 entry's guest/cache address or size, or an IBTC
///                 entry's cached target (the sealed-header and
///                 check-word domain);
///  * SigState   — one bit of the live signature registers (PCP/RTS or
///                 their shadows; the shadow cross-check's domain).
///
/// Outcomes reuse the campaign Outcome enum: a BrkMonitorCorruption
/// (0x5EC) trap counts as a signature detection, a run that completes
/// with the golden output after the integrity machinery fired counts as
/// Recovered (the self-healing path), and a golden run with no
/// machinery involvement is Masked. Coordinates are drawn serially up
/// front and run through the campaign batch loop (fault/BatchLoop.h),
/// so results are identical for any job count.
///
//===----------------------------------------------------------------------===//

#ifndef CFED_FAULT_INTEGRITYFAULT_H
#define CFED_FAULT_INTEGRITYFAULT_H

#include "asm/Assembler.h"
#include "dbt/Dbt.h"
#include "fault/Campaign.h"
#include "recovery/Recovery.h"

#include <array>
#include <cstdint>

namespace cfed {

/// What checker state the fault strikes.
enum class IntegrityTarget : uint8_t { CodeByte, TableEntry, SigState };

inline constexpr unsigned NumIntegrityTargets = 3;

inline constexpr IntegrityTarget AllIntegrityTargets[] = {
    IntegrityTarget::CodeByte, IntegrityTarget::TableEntry,
    IntegrityTarget::SigState};

/// Returns "code", "meta" or "sig".
const char *getIntegrityTargetName(IntegrityTarget T);

/// The registry counter name tallying \p O for target \p T:
/// "fault.int_<target>.<outcome>".
std::string getIntegrityOutcomeCounterName(IntegrityTarget T, Outcome O);

/// Flips one bit of checker state immediately before the instruction it
/// is armed for (Interpreter::armFault at the fault's instant). CodeByte
/// picks a victim block outside the translation unit currently executing
/// (corruption inside the running unit cannot be caught before it
/// executes — dispatch verification happens at unit boundaries);
/// TableEntry alternates between BlockTable metadata and IBTC entries.
/// When no victim exists yet at the firing instant (nothing translated,
/// IBTC empty), the injector stays armed and fires at the next
/// opportunity.
class IntegrityFaultInjector : public FaultHook {
public:
  /// \p Pick selects the victim (block index, table word, register) and
  /// \p Bit the bit; both are reduced modulo the victim's ranges.
  IntegrityFaultInjector(Memory &Mem, Dbt &Translator, IntegrityTarget Target,
                         uint64_t Pick, unsigned Bit)
      : Mem(Mem), Translator(Translator), Target(Target), Pick(Pick),
        Bit(Bit) {}

  bool fired() const { return Fired; }

  bool apply(uint64_t InsnAddr, Instruction &I, Flags &F,
             CpuState &State) override;

private:
  /// Each strikes its target and returns true, or finds no victim.
  bool fireCodeByte(uint64_t InsnAddr);
  bool fireTableEntry();
  bool fireSigState(CpuState &State);

  Memory &Mem;
  Dbt &Translator;
  IntegrityTarget Target;
  uint64_t Pick;
  unsigned Bit;
  bool Fired = false;
};

/// Per-target outcome tallies of a checker-targeted campaign.
struct IntegrityCampaignResult {
  std::array<OutcomeCounts, NumIntegrityTargets> PerTarget;
  uint64_t Injections = 0;

  OutcomeCounts &of(IntegrityTarget T) {
    return PerTarget[static_cast<unsigned>(T)];
  }
  const OutcomeCounts &of(IntegrityTarget T) const {
    return PerTarget[static_cast<unsigned>(T)];
  }
  OutcomeCounts totals() const;
};

/// Runs \p PerTarget single-bit checker faults per integrity target
/// against \p Program translated under \p Config (which carries the
/// self-integrity knobs being evaluated). The program must halt within
/// \p MaxInsns fault-free. With a \p Recovery config every injection
/// executes under a RecoveryManager and rollback-cured runs classify as
/// Recovered. Outcomes are also tallied into \p Metrics (when given)
/// under "fault.int_<target>.<outcome>".
IntegrityCampaignResult
runIntegrityCampaign(const AsmProgram &Program, const DbtConfig &Config,
                     uint64_t PerTarget, uint64_t Seed, uint64_t MaxInsns,
                     unsigned Jobs = 1, const RecoveryConfig *Recovery = nullptr,
                     telemetry::MetricsRegistry *Metrics = nullptr);

} // namespace cfed

#endif // CFED_FAULT_INTEGRITYFAULT_H
