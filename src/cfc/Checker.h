//===- Checker.h - Control-flow checking technique interface ----*- C++ -*-===//
//
// Part of the CFED project (CGO'06 control-flow error detection repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The signature-monitoring interface shared by every control-flow
/// checking technique in the paper:
///
///   * None   — no instrumentation (the DBT baseline);
///   * CFCSS  — control-flow checking by software signatures (Oh et al.),
///              xor signatures with a run-time adjusting D register;
///   * ECCA   — enhanced control-flow checking using assertions
///              (Alkhalifa et al.), prime IDs checked with div;
///   * ECF    — enhanced control flow checking (Reis et al.), run-time
///              adjusting signature RTS with conditional updates (Fig. 4);
///   * EdgCF  — the paper's edge control-flow checking (Figs. 5-8);
///   * RCF    — the paper's region-based control-flow checking (Fig. 9),
///              which additionally protects the checking/update branches
///              the instrumentation itself inserts.
///
/// A technique decomposes into a block prologue (signature check and/or
/// entry update) and per-exit signature updates, emitted as VISA
/// instruction sequences the DBT splices into translated blocks. All
/// emitted sequences are position-independent: internal branches only
/// skip a fixed number of following instructions.
///
/// Following Section 5, block signatures are the guest address of the
/// block's first instruction, which makes signatures unique and makes the
/// dynamic-target-to-signature mapping free for indirect branches.
/// GEN_SIG uses the add/subtract algebra (GEN_SIG(x,y,z) = x - y + z,
/// Section 4.4) implemented with the flag-neutral lea, avoiding the
/// EFLAGS problem (Section 5.1).
///
//===----------------------------------------------------------------------===//

#ifndef CFED_CFC_CHECKER_H
#define CFED_CFC_CHECKER_H

#include "cfg/Cfg.h"
#include "isa/Isa.h"
#include "telemetry/Metrics.h"
#include "vm/Interp.h"

#include <memory>
#include <vector>

namespace cfed {

/// The implemented signature-monitoring techniques.
enum class Technique : uint8_t { None, Cfcss, Ecca, Ecf, EdgCf, Rcf };

/// Returns the display name ("RCF", "EdgCF", ...).
const char *getTechniqueName(Technique T);

/// How conditional signature updates are implemented (Figure 14): with an
/// inserted conditional jump (cheaper, but the inserted jump is itself an
/// unprotected fault site except under RCF) or with a conditional move.
enum class UpdateFlavor : uint8_t { Jcc, CMovcc };

/// Returns "Jcc" or "CMOVcc".
const char *getUpdateFlavorName(UpdateFlavor Flavor);

/// The signature checking policies of Section 6. Updates happen in every
/// block under every policy; the policy only decides where the check runs.
enum class CheckPolicy : uint8_t {
  AllBB,   ///< Check in every basic block.
  RetBE,   ///< Check in blocks with back edges and in blocks with returns.
  Ret,     ///< Check in blocks with return instructions.
  End,     ///< Check only at the end of the application.
  StoreBB, ///< Check in blocks that store to memory (the optimization
           ///< Section 6 credits to Reis et al.: validate the signature
           ///< before data can leave the processor).
};

/// Returns "ALLBB", "RET-BE", "RET", "END" or "STORE".
const char *getCheckPolicyName(CheckPolicy Policy);

/// Decides whether the prologue of a block should include the signature
/// check under \p Policy. Usable block-locally (no whole-program CFG), as
/// required by on-demand translation: a back edge is a backward direct
/// branch, and \p HasStore says whether the block's body writes memory.
bool policyChecksBlock(CheckPolicy Policy, OpKind TermKind,
                       bool HasBackEdge, bool HasStore);

/// Returns true if \p Op writes to data memory (stores, pushes, calls).
bool opcodeStoresMemory(Opcode Op);

/// One signature-monitoring technique. Stateless across blocks except for
/// data computed by prepare().
class ControlFlowChecker {
public:
  virtual ~ControlFlowChecker();

  virtual Technique technique() const = 0;
  const char *name() const { return getTechniqueName(technique()); }

  /// True if the technique assigns signatures from the whole-program CFG
  /// and therefore cannot run under on-demand translation (the paper's
  /// reason for excluding CFCSS and ECCA from its DBT).
  virtual bool requiresWholeProgramCfg() const { return false; }

  /// A copy of this checker with the same technique state (for the
  /// whole-program techniques, the prepared signature assignment). The
  /// copy's emission counters still point into this checker's registry
  /// until bindMetrics() rebinds them; a forked translator does that.
  virtual std::unique_ptr<ControlFlowChecker> clone() const = 0;

  /// Supplies the whole-program CFG (eager mode). Returns false if the
  /// program cannot be instrumented by this technique (e.g. indirect
  /// calls defeat CFCSS's static signature assignment).
  virtual bool prepare(const Cfg &Graph);

  /// Initializes the reserved signature registers for a program whose
  /// entry block has signature \p EntryL.
  virtual void initState(CpuState &State, uint64_t EntryL) const = 0;

  /// Adversarial-precision oracle: if an attacker redirects the return in
  /// the block with signature \p RetBlock to the entry of the block with
  /// signature \p Target, does the technique's signature algebra still
  /// hold (i.e. is \p Target a valid-signature gadget)? Address-mapped
  /// schemes (ECF/EdgCF/RCF — and trivially None) compute the indirect
  /// update from the *corrupted* return address itself, so the update and
  /// the forged target's entry signature cancel for every translated
  /// block: any block head is a gadget, hence the default. CFCSS and ECCA
  /// override this with their static assignment algebra, which only
  /// admits targets in the same return-signature class.
  virtual bool acceptsForgedReturn(uint64_t RetBlock, uint64_t Target) const {
    (void)RetBlock;
    (void)Target;
    return true;
  }

  /// Registers this checker's emission counters
  /// ("cfc.<tech>.check_sig_emitted", "cfc.<tech>.gen_sig_emitted",
  /// "cfc.<tech>.instr_insns") in \p Registry. Until bound, the emit
  /// wrappers below skip counting.
  void bindMetrics(telemetry::MetricsRegistry &Registry);

  /// Enables shadow-signature duplication (the self-integrity
  /// extension): every emitted signature sequence is re-applied to
  /// shadow copies of PCP/RTS (RegPCPShadow/RegRTSShadow), and checked
  /// prologues are preceded by a cross-check that traps with
  /// BrkMonitorCorruption (0x5EC) when a signature register diverges
  /// from its shadow — distinguishing a flipped signature variable from
  /// a real control-flow error.
  void setShadowSignature(bool Enabled) { ShadowSig = Enabled; }
  bool shadowSignature() const { return ShadowSig; }

  /// Copies the live signature registers into their shadow copies.
  /// Callers invoke this right after initState() when shadow signatures
  /// are enabled.
  void seedShadowState(CpuState &State) const;

  /// Emits the block prologue for the block with signature \p L. When
  /// \p DoCheck is false (relaxed policies) only the entry update is
  /// emitted. Counts CHECK_SIG emissions when metrics are bound.
  void emitPrologue(std::vector<Instruction> &Out, uint64_t L,
                    bool DoCheck) const;

  /// Emits the exit update for an unconditional direct edge L -> Target.
  /// This and the remaining emit wrappers count GEN_SIG emissions.
  void emitDirectUpdate(std::vector<Instruction> &Out, uint64_t L,
                        uint64_t Target) const;

  /// Emits the exit update for a conditional (flags) branch: control goes
  /// to \p Taken when \p CC holds, else to \p Fall. Emitted immediately
  /// before the branch; must not clobber FLAGS.
  void emitCondUpdate(std::vector<Instruction> &Out, uint64_t L, CondCode CC,
                      uint64_t Taken, uint64_t Fall) const;

  /// Like emitCondUpdate for register-zero branches (Jzr/Jnzr on
  /// \p Reg). These have no CMOVcc equivalent (like jcxz on IA-32), so
  /// every flavor uses an inserted register-zero jump.
  void emitRegCondUpdate(std::vector<Instruction> &Out, uint64_t L,
                         Opcode BranchOp, uint8_t Reg, uint64_t Taken,
                         uint64_t Fall) const;

  /// Emits the exit update for an indirect edge whose guest target is in
  /// \p TargetReg (Figure 7). Must not clobber \p TargetReg.
  void emitIndirectUpdate(std::vector<Instruction> &Out, uint64_t L,
                          uint8_t TargetReg) const;

protected:
  // Technique implementations. Techniques that reuse their direct-edge
  // sequence internally (ECF/EdgCF/RCF call directUpdateImpl from their
  // conditional updates) call the Impl directly so no emission is
  // double-counted by the public wrappers.
  virtual void prologueImpl(std::vector<Instruction> &Out, uint64_t L,
                            bool DoCheck) const = 0;
  virtual void directUpdateImpl(std::vector<Instruction> &Out, uint64_t L,
                                uint64_t Target) const = 0;
  virtual void condUpdateImpl(std::vector<Instruction> &Out, uint64_t L,
                              CondCode CC, uint64_t Taken,
                              uint64_t Fall) const = 0;
  virtual void regCondUpdateImpl(std::vector<Instruction> &Out, uint64_t L,
                                 Opcode BranchOp, uint8_t Reg,
                                 uint64_t Taken, uint64_t Fall) const = 0;
  virtual void indirectUpdateImpl(std::vector<Instruction> &Out, uint64_t L,
                                  uint8_t TargetReg) const = 0;

private:
  /// Charges \p Emitted instructions to the instrumentation counters and
  /// \p SigCounter (when anything was emitted and metrics are bound).
  void chargeEmission(telemetry::Counter *SigCounter, size_t Emitted) const;

  /// Re-emits Out[Begin..) with PCP/RTS renamed to their shadow
  /// registers, appended after the primary sequence. Emitted sequences
  /// are position-independent (internal branches skip a fixed number of
  /// following instructions), so the copy stays correct.
  void appendShadowCopy(std::vector<Instruction> &Out, size_t Begin) const;

  /// Emits the PCP==PCP' and RTS==RTS' cross-checks (trap 0x5EC on
  /// divergence). Flag-neutral; clobbers only AUX.
  void emitCrossCheck(std::vector<Instruction> &Out) const;

  bool ShadowSig = false;

  // Bound by bindMetrics(); null until then.
  telemetry::Counter *CheckSigEmitted = nullptr;
  telemetry::Counter *GenSigEmitted = nullptr;
  telemetry::Counter *InstrInsns = nullptr;
};

/// Creates a checker for \p T with conditional updates in \p Flavor.
std::unique_ptr<ControlFlowChecker> createChecker(Technique T,
                                                  UpdateFlavor Flavor);

/// All techniques the on-demand DBT supports, in the order the paper's
/// figures present them.
inline constexpr Technique DbtTechniques[] = {Technique::Rcf,
                                              Technique::EdgCf,
                                              Technique::Ecf};

} // namespace cfed

#endif // CFED_CFC_CHECKER_H
