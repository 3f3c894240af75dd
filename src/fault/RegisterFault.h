//===- RegisterFault.h - Datapath fault injection ---------------*- C++ -*-===//
//
// Part of the CFED project (CGO'06 control-flow error detection repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Register-file fault injection for evaluating the data-flow checking
/// extension: one bit of one guest register flips at one dynamic
/// instruction (the datapath counterpart of the Section 2 branch error
/// model). Outcomes use the same classification as the control-flow
/// campaigns; a BrkDataFlowError report counts as a signature detection.
///
//===----------------------------------------------------------------------===//

#ifndef CFED_FAULT_REGISTERFAULT_H
#define CFED_FAULT_REGISTERFAULT_H

#include "asm/Assembler.h"
#include "dbt/Dbt.h"
#include "fault/Campaign.h"

namespace cfed {

/// XORs a non-zero \p Mask (one bit under the single-bit model, see
/// drawFaultMask) into guest register \p Reg immediately before the
/// instruction it is armed for (Interpreter::armFault at the fault's
/// instant, counted in retired instructions from program start).
class RegisterFaultInjector : public FaultHook {
public:
  RegisterFaultInjector(uint8_t Reg, uint64_t Mask) : Reg(Reg), Mask(Mask) {}

  bool fired() const { return Fired; }

  bool apply(uint64_t, Instruction &, Flags &, CpuState &State) override {
    Fired = true;
    State.Regs[Reg] ^= Mask;
    return true;
  }

private:
  uint8_t Reg;
  uint64_t Mask;
  bool Fired = false;
};

/// Results of a register-fault campaign: outcome tallies plus the
/// detection latency (instructions from the fault firing to the trap)
/// of every detected run, in injection order.
struct RegisterCampaignReport {
  OutcomeCounts Counts;
  std::vector<uint64_t> DetectionLatencies;

  double latencyMean() const;
  uint64_t latencyMax() const;
};

/// Runs \p NumInjections register faults of \p Model shape against
/// \p Program translated under \p Config, at uniformly random
/// (instruction, register r0-r14, mask) coordinates. The program must
/// halt within \p MaxInsns fault-free. All fault coordinates are drawn
/// up front from \p Seed and run through the campaign batch loop, so the
/// report is identical for any \p Jobs; the SingleBit model consumes
/// the Prng exactly like the original single-bit campaign did.
RegisterCampaignReport runRegisterFaultCampaignDetailed(
    const AsmProgram &Program, const DbtConfig &Config,
    uint64_t NumInjections, uint64_t Seed, uint64_t MaxInsns,
    FaultModel Model = FaultModel::SingleBit, unsigned Jobs = 1);

/// The original single-bit entry point: tallies of
/// runRegisterFaultCampaignDetailed under FaultModel::SingleBit.
OutcomeCounts runRegisterFaultCampaign(const AsmProgram &Program,
                                       const DbtConfig &Config,
                                       uint64_t NumInjections, uint64_t Seed,
                                       uint64_t MaxInsns, unsigned Jobs = 1);

} // namespace cfed

#endif // CFED_FAULT_REGISTERFAULT_H
