//===- Interp.h - VISA interpreter ------------------------------*- C++ -*-===//
//
// Part of the CFED project (CGO'06 control-flow error detection repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The VISA interpreter: executes encoded instructions from guest memory
/// with cycle accounting, and exposes the hooks everything else in the
/// repository is built on:
///
///  * FaultHook     — mutates one dynamic instruction: every campaign
///                    kind's fault, armed at a retired-instruction index
///                    (armFault), or installed to see every offset branch.
///  * PreInsnHook   — observes every executed instruction (campaign
///                    planners, counting reference injectors in tests).
///  * SafePointHook — called at each translator-registered safe point,
///                    which guest memory tags in its predecoded slots
///                    (the recovery manager's checkpoints and watchdog
///                    anchors). Unlike the three hooks above it keeps
///                    the hook-free loop (DESIGN.md §6, §7).
///  * BranchObserver— passive profiling of every executed offset branch
///                    (drives the Figure 2/3 analytic error model).
///  * BranchCounter — counts and indexes every offset branch on the
///                    hook-free loop (campaign golden runs, DESIGN.md §6).
///  * DbtHooks      — services code-cache exits (Tramp/TrampR) and
///                    write-protection faults, turning the interpreter
///                    into the execution engine under the DBT.
///
//===----------------------------------------------------------------------===//

#ifndef CFED_VM_INTERP_H
#define CFED_VM_INTERP_H

#include "isa/Isa.h"
#include "vm/Memory.h"

#include <cstdint>
#include <string>

namespace cfed {

class BranchCounter;

/// Architectural CPU state.
struct CpuState {
  uint64_t Regs[NumIntRegs] = {};
  double FpRegs[NumFpRegs] = {};
  Flags F;
  uint64_t PC = 0;
};

/// Why execution stopped.
enum class StopKind : uint8_t {
  Halted,   ///< The program executed Halt.
  Trapped,  ///< A trap fired (see TrapKind).
  InsnLimit ///< The dynamic instruction budget ran out.
};

/// Trap causes. ExecViolation is the hardware category-F detector (the
/// execute-disable bit); WriteViolation drives self-modifying-code
/// handling; BreakTrap is the instrumentation's .report_error exit.
enum class TrapKind : uint8_t {
  None,
  IllegalInsn,
  ExecViolation,
  ReadViolation,
  WriteViolation,
  DivByZero,
  BreakTrap,
};

/// Returns a human-readable name for \p Kind.
const char *getTrapKindName(TrapKind Kind);

struct CpuState;
struct StopInfo;

namespace telemetry {
class BlockProfile;
class DigestRecorder;
class MetricsRegistry;
} // namespace telemetry

/// Short human-readable phrase for why a run stopped ("halted",
/// "instruction limit reached", "control-flow error reported", or the
/// trap kind name). The single stop-description used by all tools.
const char *describeStop(const StopInfo &Stop);

/// Formats a one-line structured diagnostic for a stopped run: stop/trap
/// kind, guest PC, faulting address, break code, and the live values of
/// the reserved signature registers (pcp/rts/aux/aux2) the checkers key
/// on. \p GuestPC is the guest-level PC the caller attributes the stop to
/// (under the DBT, Stop.PC is a code-cache address; callers translate it
/// back before reporting).
std::string formatTrapDiagnostic(const StopInfo &Stop, const CpuState &State,
                                 uint64_t GuestPC);

/// Break code used by instrumentation-inserted .report_error stubs: a
/// BreakTrap with this code means "control-flow error detected by the
/// signature check".
inline constexpr int32_t BrkControlFlowError = 0xCFE;

/// Break code used by the data-flow checking extension: a value about to
/// leave the processor disagreed with its duplicated computation.
inline constexpr int32_t BrkDataFlowError = 0xDFE;

/// Break code used by the DBT's internal assertion stubs.
inline constexpr int32_t BrkDbtInternal = 0xDB;

/// Break code raised by the self-integrity cross-check: the monitor's own
/// signature state diverged from its shadow copy. Distinguishes checker
/// corruption from a guest control-flow error (which reports 0xCFE).
inline constexpr int32_t BrkMonitorCorruption = 0x5EC;

/// Break code raised by the shadow return stack: a return popped an
/// address that disagrees with the one recorded at the matching call —
/// the adversarial-mode detector for forged returns whose target still
/// carries a valid signature (so 0xCFE cannot fire).
inline constexpr int32_t BrkShadowStackViolation = 0x5AC;

/// Final state of a run() call.
struct StopInfo {
  StopKind Kind = StopKind::Halted;
  TrapKind Trap = TrapKind::None;
  /// Faulting data address for memory traps; PC of the trapping
  /// instruction otherwise.
  uint64_t TrapAddr = 0;
  /// Imm operand of a BreakTrap.
  int32_t BreakCode = 0;
  /// PC at which execution stopped.
  uint64_t PC = 0;
};

/// Mutates one dynamic instruction before it executes: offset bits via
/// \p I.Imm, the flags a branch observes via \p F (a transient copy), or
/// the architectural \p State. An installed hook is called for offset
/// branches (Jmp/Jcc/Jzr/Jnzr/Call) only.
class FaultHook {
public:
  virtual ~FaultHook();
  /// Returns false when there is nothing to strike yet: an armed hook
  /// then stays armed for the next instruction.
  virtual bool apply(uint64_t InsnAddr, Instruction &I, Flags &F,
                     CpuState &State) = 0;
};

/// Observes every executed instruction before it runs.
class PreInsnHook {
public:
  virtual ~PreInsnHook();
  virtual void onInsn(uint64_t InsnAddr, const Instruction &I,
                      CpuState &State) = 0;
};

/// Called before the instruction at a safe point executes (DESIGN.md §7).
/// Memory tags the safe points of the table passed to
/// Interpreter::setSafePointHook, and both run loops hand a tagged slot
/// here before anything else sees its instruction.
class SafePointHook {
public:
  virtual ~SafePointHook();
  /// \p CacheAddr is the safe point; \p Checked is its checked bit.
  /// \p Insns and \p Cycles are the counts before its instruction: in
  /// the hook-free loop the interpreter's own counters lag behind them.
  /// The hook must not write guest memory.
  virtual void onSafePoint(uint64_t CacheAddr, bool Checked, uint64_t Insns,
                           uint64_t Cycles) = 0;
};

/// Observes every executed offset branch after its direction was decided.
class BranchObserver {
public:
  virtual ~BranchObserver();
  /// \p Taken is true if control left the fall-through path; \p NextPC is
  /// where control actually went.
  virtual void onBranch(uint64_t InsnAddr, const Instruction &I,
                        const Flags &F, bool Taken, uint64_t NextPC) = 0;
};

/// Services DBT-internal opcodes and write faults.
class DbtHooks {
public:
  virtual ~DbtHooks();
  /// A Tramp at \p SiteAddr requested guest target \p GuestTarget. Returns
  /// the cache address to continue at.
  virtual uint64_t onDirectExit(uint64_t SiteAddr, uint64_t GuestTarget) = 0;
  /// A TrampR at \p SiteAddr requested dynamic guest target
  /// \p GuestTarget. Returns the cache address to continue at.
  virtual uint64_t onIndirectExit(uint64_t SiteAddr, uint64_t GuestTarget) = 0;
  /// A store faulted on a write-protected page (self-modifying code).
  /// Returns true if handled; the instruction is then retried.
  virtual bool onWriteViolation(uint64_t DataAddr) = 0;
};

/// Executes VISA code from a Memory image.
class Interpreter {
public:
  explicit Interpreter(Memory &Mem) : Mem(Mem) {}
  /// Continues \p Parent's execution on \p Mem (a fork of its memory):
  /// CPU state, progress counters and output carry over; hooks do not.
  Interpreter(Memory &Mem, const Interpreter &Parent)
      : Mem(Mem), State(Parent.State), Insns(Parent.Insns),
        Cycles(Parent.Cycles), FusedInsns(Parent.FusedInsns),
        OutputBuffer(Parent.OutputBuffer) {}

  CpuState &state() { return State; }
  const CpuState &state() const { return State; }
  Memory &memory() { return Mem; }

  /// Installs / clears the fault-injection hook.
  void setFaultHook(FaultHook *Hook) { Fault = Hook; }
  /// Arms \p Hook for one instruction: the one that retires as number
  /// \p AtInsn (so instructionCount() == AtInsn right after it). A run()
  /// whose budget reaches it executes the instructions before it on the
  /// loop the installed hooks select, then that one instruction, whatever
  /// its opcode, on the hooked loop with \p Hook as the fault hook, then
  /// the rest of its budget. The hook is disarmed once offered the
  /// instruction unless it returns false. Budget and stops are exactly
  /// those of one uninterrupted run().
  void armFault(FaultHook *Hook, uint64_t AtInsn) {
    ArmedFault = Hook;
    ArmedAt = AtInsn;
  }

  /// Ends the current run() after the instruction being executed, with an
  /// InsnLimit stop. Only a fault hook or a pre-instruction hook may call
  /// it (it is checked where the hooked loop calls them).
  void requestStop() { StopRequested = true; }

  /// Installs / clears the per-instruction hook.
  void setPreInsnHook(PreInsnHook *Hook) { PreInsn = Hook; }
  /// Installs \p Hook for the safe points of \p Points, which memory
  /// tags while it is installed, or clears it (nullptr). Either way
  /// memory drops every predecoded page (Memory::setSafePointTags).
  void setSafePointHook(SafePointHook *Hook, const SafePointTable *Points) {
    SafePoint = Hook;
    Mem.setSafePointTags(Hook ? Points : nullptr);
  }
  /// Installs / clears the branch profiler.
  void setBranchObserver(BranchObserver *Observer) { Profiler = Observer; }
  /// Installs / clears the DBT service hooks.
  void setDbtHooks(DbtHooks *Hooks) { Dbt = Hooks; }
  /// Binds / clears the block-execution profile that Prof instructions
  /// bump. With no profile bound, Prof is a nop.
  void setBlockProfile(telemetry::BlockProfile *Profile) {
    BlockProf = Profile;
  }
  /// Binds / clears the branch counter. While one is bound and no
  /// per-instruction hook is installed, run() takes the counting
  /// instantiation of the hook-free loop, which notes every offset
  /// branch with it; hooked runs count nothing.
  void setBranchCounter(BranchCounter *Counter) { BranchCount = Counter; }
  /// Binds / clears the architectural digest recorder (DESIGN.md §14).
  /// In Interp mode the transfer handlers capture directly; in Marker
  /// mode capture is driven by translator-planted Digest instructions,
  /// and Digest acts as a nop when no recorder is bound.
  void setDigestRecorder(telemetry::DigestRecorder *Recorder) {
    DigestRec = Recorder;
  }
  telemetry::DigestRecorder *digestRecorder() const { return DigestRec; }

  /// Runs until Halt, a trap, or \p MaxInsns executed instructions.
  StopInfo run(uint64_t MaxInsns);

  /// Dynamic instruction count so far.
  uint64_t instructionCount() const { return Insns; }
  /// Weighted cycle count so far (the performance-model metric).
  uint64_t cycleCount() const { return Cycles; }
  /// Instructions retired so far by a fused run of check code, without a
  /// dispatch of their own (they count in instructionCount() as usual).
  uint64_t fusedInsnCount() const { return FusedInsns; }

  /// Program output accumulated by Out/OutC instructions.
  const std::string &output() const { return OutputBuffer; }

  /// Resets counters and output, keeping memory and CPU state.
  void resetCounters();

  /// Rewinds progress counters and truncates buffered output back to a
  /// checkpointed position. \p OutputLen must not exceed the current
  /// output length. Used by the recovery subsystem's rollback path; CPU
  /// state and memory are restored separately by the caller.
  void restoreProgress(uint64_t NewInsns, uint64_t NewCycles,
                       size_t OutputLen);

  /// Publishes the per-instruction counters (instructions, cycles, and
  /// the memory predecode-cache hit statistics) into \p Registry as
  /// gauges. The hot dispatch loop keeps plain fields and publishes only
  /// at synchronization points like this one, per the overhead policy in
  /// DESIGN.md §8.
  void publishMetrics(telemetry::MetricsRegistry &Registry) const;

private:
  /// The run loop, instantiated with and without the per-instruction
  /// hooks (PreInsnHook, FaultHook, BranchObserver); run() picks one.
  /// Both hand safe-point tags to the SafePointHook.
  /// With \p Armed (hooked only) Fault is the armed hook, offered the
  /// instruction whatever its opcode. With \p Counting (hook-free only)
  /// every offset branch is noted with the bound BranchCounter.
  template <bool Hooked, bool Armed = false, bool Counting = false>
  StopInfo runLoop(uint64_t MaxInsns);
  /// run() without an armed fault in reach: picks the loop.
  StopInfo runSelected(uint64_t MaxInsns);

  Memory &Mem;
  CpuState State;
  FaultHook *Fault = nullptr;
  PreInsnHook *PreInsn = nullptr;
  SafePointHook *SafePoint = nullptr;
  BranchObserver *Profiler = nullptr;
  DbtHooks *Dbt = nullptr;
  FaultHook *ArmedFault = nullptr;
  uint64_t ArmedAt = 0;
  bool StopRequested = false;
  telemetry::BlockProfile *BlockProf = nullptr;
  telemetry::DigestRecorder *DigestRec = nullptr;
  uint64_t Insns = 0;
  uint64_t Cycles = 0;
  uint64_t FusedInsns = 0;
  std::string OutputBuffer;
  BranchCounter *BranchCount = nullptr;
};

/// FNV-1a hash of \p Data — the silent-data-corruption oracle: a run is an
/// SDC when its output hash differs from the golden run's.
uint64_t hashOutput(const std::string &Data);

} // namespace cfed

#endif // CFED_VM_INTERP_H
