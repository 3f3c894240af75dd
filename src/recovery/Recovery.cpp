//===- Recovery.cpp - Checkpoint/rollback error recovery -------------------===//

#include "recovery/Recovery.h"

#include "support/Format.h"
#include "vm/Layout.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace cfed;

RecoveryManager::RecoveryManager(Interpreter &Interp, Dbt &Translator,
                                 RecoveryConfig Config)
    : Interp(Interp), Translator(Translator), Config(Config),
      CkptCounter(Translator.metrics().counter("recovery.checkpoints")),
      RollbackCounter(Translator.metrics().counter("recovery.rollbacks")),
      WatchdogCounter(
          Translator.metrics().counter("recovery.watchdog_fires")),
      DegradeCounter(Translator.metrics().counter("recovery.degradations")),
      FallbackCounter(
          Translator.metrics().counter("recovery.interp_fallbacks")) {
  if (this->Config.MaxCheckpoints == 0)
    this->Config.MaxCheckpoints = 1;
}

RecoveryManager::~RecoveryManager() = default;

void RecoveryManager::onPageDirtied(uint64_t PageBase,
                                    const uint8_t *OldBytes) {
  if (InRestore || Run.Checkpoints.empty())
    return;
  Checkpoint &CP = Run.Checkpoints.back();
  auto [It, Inserted] = CP.UndoLog.try_emplace(PageBase);
  if (!Inserted)
    return; // Already have this page's pre-image for this checkpoint.
  It->second.assign(OldBytes, OldBytes + PageSize);
  CP.UndoBytes += PageSize;
  Run.RingUndoBytes += PageSize;
}

void RecoveryManager::onSafePoint(uint64_t CacheAddr, bool Checked,
                                  uint64_t Insns, uint64_t Cycles) {
  if (Run.Settled) {
    Run.Settled = false;
    if (Insns == Run.SettledAt && CacheAddr == Run.SettledPC)
      return; // settle() already let this one take effect.
  }
  if (Run.Fallback)
    return;
  // The counts exclude the safe point's instruction: it re-executes after
  // a rollback to the checkpoint taken here.
  if (Checked) {
    LongestCheckGap = std::max(LongestCheckGap, Insns - Run.LastCheck);
    Run.LastCheck = Insns;
  }
  assert(!Run.Checkpoints.empty() && "start() seeds the ring");
  if (Insns - Run.CheckpointInsns < Config.CheckpointInterval &&
      Run.RingUndoBytes <= Config.MemoryBudget)
    return;
  const SafePointInfo *Point = Translator.safePoints().find(CacheAddr);
  assert(Point && "a tag outlived its safe point");
  takeCheckpoint(Point->GuestAddr, Insns, Cycles);
}

void RecoveryManager::takeCheckpoint(uint64_t GuestPC, uint64_t InsnsNow,
                                     uint64_t CyclesNow) {
  Run.Checkpoints.emplace_back();
  Checkpoint &CP = Run.Checkpoints.back();
  CP.GuestPC = GuestPC;
  CP.State = Interp.state();
  CP.Insns = InsnsNow;
  CP.Cycles = CyclesNow;
  CP.OutputLen = Interp.output().size();
  while (Run.Checkpoints.size() > Config.MaxCheckpoints) {
    Run.RingUndoBytes -= Run.Checkpoints.front().UndoBytes;
    Run.Checkpoints.pop_front();
  }
  // New epoch: the next write to any tracked page lands in this
  // checkpoint's undo log.
  Interp.memory().resetWriteEpoch();
  Run.CheckpointInsns = InsnsNow;
  ++Run.Report.NumCheckpoints;
  CkptCounter.inc();
  if (telemetry::EventTracer *T = Translator.tracer())
    T->record(InsnsNow, telemetry::TraceEventKind::CheckpointTaken, nullptr,
              GuestPC, Run.Checkpoints.size());
}

uint64_t RecoveryManager::rollbackTo(size_t Depth) {
  std::deque<Checkpoint> &Ring = Run.Checkpoints;
  assert(!Ring.empty() && "rollback without a checkpoint");
  Depth = std::min(Depth, Ring.size());
  size_t Target = Ring.size() - Depth;

  // Apply undo logs newest-first so that where logs overlap the older
  // pre-image (the state at the older checkpoint) wins.
  Memory &Mem = Interp.memory();
  InRestore = true;
  for (size_t Index = Ring.size(); Index-- > Target;)
    for (const auto &[PageBase, Bytes] : Ring[Index].UndoLog)
      Mem.writeRaw(PageBase, Bytes.data(), PageSize);
  InRestore = false;

  for (size_t Index = Target; Index < Ring.size(); ++Index)
    Run.RingUndoBytes -= Ring[Index].UndoBytes;
  Ring.resize(Target + 1);
  Checkpoint &CP = Ring.back();
  CP.UndoLog.clear();
  CP.UndoBytes = 0;
  Mem.resetWriteEpoch();

  CpuState Restored = CP.State;
  Restored.PC = Translator.resolveGuestTarget(CP.GuestPC);
  Interp.state() = Restored;
  Interp.restoreProgress(CP.Insns, CP.Cycles, CP.OutputLen);
  Run.CheckpointInsns = CP.Insns;
  Run.LastCheck = CP.Insns; // The checkpoint is the new watchdog anchor.
  Run.Settled = false;
  return CP.GuestPC;
}

void RecoveryManager::dumpPostMortem(const char *Reason,
                                     const StopInfo &Stop) {
  if (!Recorder)
    return;
  telemetry::PostMortem PM = Translator.buildPostMortem(Reason, Stop, Interp);
  const RecoveryReport &Report = Run.Report;
  PM.Recovery.Present = true;
  PM.Recovery.Checkpoints = Report.NumCheckpoints;
  PM.Recovery.Rollbacks = Report.NumRollbacks;
  PM.Recovery.WatchdogFires = Report.NumWatchdogFires;
  PM.Recovery.RingDepth = Run.Checkpoints.size();
  PM.Recovery.Degraded = Report.Degraded;
  PM.Recovery.InterpreterFallback = Report.InterpreterFallback;
  Recorder->write(PM);
}

void RecoveryManager::enterInterpreterFallback(const StopInfo &Stop) {
  FallbackCounter.inc();
  if (telemetry::EventTracer *T = Translator.tracer())
    T->record(Interp.instructionCount(),
              telemetry::TraceEventKind::InterpreterFallback);
  uint64_t GuestPC = rollbackTo(Run.Checkpoints.size());
  // Abandon translation: run the guest pages directly. Translated calls
  // pushed *guest* return addresses, so the guest stack is directly
  // consumable by raw guest code.
  if (Translator.guestCodeSize() > 0)
    Interp.memory().setPerms(Translator.guestCodeBase(),
                             Translator.guestCodeSize(), PermRX);
  Interp.state().PC = GuestPC;
  Run.Fallback = true;
  Run.Report.InterpreterFallback = true;
  dumpPostMortem("interpreter-fallback", Stop);
}

void RecoveryManager::recover(uint64_t SiteKey, const StopInfo &Stop) {
  telemetry::PhaseProfiler::Scope Timer(Translator.profiler(),
                                        telemetry::Phase::Recover);
  ++Run.TotalRollbacks;
  ++Run.Report.NumRollbacks;
  RollbackCounter.inc();
  if (telemetry::EventTracer *T = Translator.tracer())
    T->record(Interp.instructionCount(), telemetry::TraceEventKind::Rollback,
              nullptr, SiteKey, Run.TotalRollbacks);
  if (Run.TotalRollbacks > Config.MaxTotalRollbacks) {
    enterInterpreterFallback(Stop);
    return;
  }
  unsigned &SiteCount = Run.SiteRollbacks[SiteKey];
  ++SiteCount;
  if (SiteCount > Config.MaxSiteRollbacks) {
    // Self-integrity rung: before the whole-cache degradation, try to
    // surgically quarantine and retranslate just the failing site's
    // translation unit — this cures persistent corruption confined to
    // one translation (flipped code-cache bytes, a mangled table
    // entry). Granted once per site; a repeat escalation climbs on.
    if (!Run.Fallback && Run.QuarantinedSites.insert(SiteKey).second &&
        Translator.quarantineGuestBlock(SiteKey)) {
      SiteCount = 0;
      dumpPostMortem("quarantine-retranslate", Stop);
      rollbackTo(Run.Checkpoints.size());
      return;
    }
    // Same region keeps failing: flush and retranslate conservatively,
    // and roll back as deep as the ring allows in case a corrupted
    // checkpoint is what keeps bringing us back here.
    Translator.degradeToConservative();
    Run.Report.Degraded = true;
    DegradeCounter.inc();
    Run.SiteRollbacks.clear();
    dumpPostMortem("degradation", Stop);
    rollbackTo(Run.Checkpoints.size());
    return;
  }
  rollbackTo(1);
}

void RecoveryManager::attach(uint64_t Max) {
  MaxInsns = Max;
  uint64_t TotalBudgetFactor = Config.MaxTotalRollbacks + 2ull;
  TotalBudget = MaxInsns > ~0ull / TotalBudgetFactor
                    ? ~0ull
                    : MaxInsns * TotalBudgetFactor;
  Ended = false;
  LastStop = StopInfo();
  LongestCheckGap = 0;
  Interp.setSafePointHook(this, &Translator.safePoints());
  Interp.setDbtHooks(&Translator);
  Interp.memory().setWriteObserver(this, CacheBase);
}

void RecoveryManager::start(uint64_t Max) {
  Run = RunState();
  Run.LastCheck = Interp.instructionCount();
  attach(Max);
  // Seed checkpoint: the program entry is trivially a safe point.
  takeCheckpoint(Translator.guestEntry(), Interp.instructionCount(),
                 Interp.cycleCount());
}

void RecoveryManager::resume(const RunState &From, uint64_t Max) {
  Run = From;
  attach(Max);
}

RecoveryReport RecoveryManager::run(uint64_t Max) {
  start(Max);
  advance();
  return finish();
}

bool RecoveryManager::advance(uint64_t Until) {
  if (Ended)
    return true;
  if (Until >= MaxInsns)
    Until = ~0ull;
  StopInfo &Stop = LastStop;
  for (;;) {
    if (Interp.instructionCount() == Until)
      return false;
    if (!Run.InSlice) {
      uint64_t Progress = Interp.instructionCount();
      if (Progress >= MaxInsns) {
        Stop.Kind = StopKind::InsnLimit;
        Stop.Trap = TrapKind::None;
        Stop.PC = Interp.state().PC;
        break;
      }
      uint64_t Slice = MaxInsns - Progress;
      // Armed whenever a checking technique is configured — not gated on
      // translated-so-far check sites: under on-demand translation with
      // a relaxed policy the first checked block may only be translated
      // near the end of the run, and a flow spinning check-free before
      // that is exactly what the watchdog must bound.
      Run.WatchdogOn = !Run.Fallback && Config.WatchdogBound > 0 &&
                       Translator.config().Tech != Technique::None;
      if (Run.WatchdogOn)
        Slice = std::min(Slice, Config.WatchdogBound);
      Run.SliceEnd = Progress + Slice;
      Run.InSlice = true;
    }

    uint64_t Before = Interp.instructionCount();
    uint64_t Target =
        Until > Before && Until < Run.SliceEnd ? Until : Run.SliceEnd;
    ChunkStart = Before;
    Stop = Interp.run(Target - Before);
    Run.Report.TotalExecuted += Interp.instructionCount() - Before;
    if (Stop.Kind == StopKind::InsnLimit &&
        Interp.instructionCount() < Run.SliceEnd)
      return false; // Paused inside the slice.
    Run.InSlice = false;

    if (Stop.Kind == StopKind::Halted)
      break;
    if (Run.Report.TotalExecuted >= TotalBudget)
      break; // Livelock guard: stop with whatever the last slice said.

    if (Stop.Kind == StopKind::Trapped) {
      uint64_t GuestPC = Translator.guestPCFor(Stop.PC);
      Translator.metrics()
          .counter(std::string("trap.") + getTrapKindName(Stop.Trap))
          .inc();
      if (Stop.Trap == TrapKind::BreakTrap &&
          Stop.BreakCode == BrkShadowStackViolation)
        Translator.metrics().counter("recovery.shadow_stack_traps").inc();
      if (telemetry::EventTracer *T = Translator.tracer())
        T->record(Interp.instructionCount(),
                  telemetry::TraceEventKind::TrapRaised,
                  getTrapKindName(Stop.Trap), GuestPC);
      if (Run.Report.FirstDetection.empty())
        Run.Report.FirstDetection =
            formatTrapDiagnostic(Stop, Interp.state(), GuestPC);
      dumpPostMortem("trap", Stop);
      if (Run.Fallback)
        break; // No further containment below the interpreter.
      recover(GuestPC, Stop);
      continue;
    }

    // InsnLimit at the slice end: check the watchdog, then keep running.
    if (Run.WatchdogOn &&
        Interp.instructionCount() - Run.LastCheck > Config.WatchdogBound) {
      ++Run.Report.NumWatchdogFires;
      WatchdogCounter.inc();
      uint64_t GuestPC = Translator.guestPCFor(Interp.state().PC);
      if (telemetry::EventTracer *T = Translator.tracer())
        T->record(Interp.instructionCount(),
                  telemetry::TraceEventKind::WatchdogFire, nullptr, GuestPC,
                  Interp.instructionCount() - Run.LastCheck);
      if (Run.Report.FirstDetection.empty())
        Run.Report.FirstDetection = formatString(
            "watchdog: %llu instructions since last signature check, "
            "guest-pc=0x%llx",
            static_cast<unsigned long long>(Interp.instructionCount() -
                                            Run.LastCheck),
            static_cast<unsigned long long>(GuestPC));
      dumpPostMortem("watchdog", Stop);
      recover(GuestPC, Stop);
    }
  }
  Ended = true;
  return true;
}

RecoveryReport RecoveryManager::finish() {
  RecoveryReport &Report = Run.Report;
  Report.Completed = LastStop.Kind == StopKind::Halted;
  Report.FinalStop = LastStop;
  Report.GuestStopPC = Translator.guestPCFor(LastStop.PC);

  Interp.memory().setWriteObserver(nullptr, 0);
  Interp.setSafePointHook(nullptr, nullptr);
  Run.Checkpoints.clear();
  Run.RingUndoBytes = 0;
  return Report;
}

void RecoveryManager::settle() {
  uint64_t PC = Interp.state().PC;
  uint64_t Insns = Interp.instructionCount();
  if (Run.Settled && Run.SettledAt == Insns && Run.SettledPC == PC)
    return;
  const SafePointInfo *Point = Translator.safePoints().find(PC);
  if (!Point)
    return;
  onSafePoint(PC, Point->Checked, Insns, Interp.cycleCount());
  Run.Settled = true;
  Run.SettledAt = Insns;
  Run.SettledPC = PC;
}

RecoveryManager::RunState RecoveryManager::pausedState(uint64_t Insns) const {
  RunState State = Run;
  State.Report.TotalExecuted += Insns - ChunkStart;
  uint64_t PC = Interp.state().PC;
  State.Settled = Translator.safePoints().find(PC) != nullptr;
  State.SettledAt = Insns;
  State.SettledPC = PC;
  return State;
}

bool RecoveryManager::rejoins(const RunState &Golden, uint64_t Stretch,
                              uint64_t RestInsns) const {
  const RecoveryReport &Report = Run.Report;
  if (Run.Fallback || Report.Degraded || !Run.QuarantinedSites.empty())
    return false;
  // The checkpoint schedule from here on depends on the newest
  // checkpoint's instant, the undo bytes each ring entry holds (the
  // ring retires them) and the pages already logged since the newest
  // (they add nothing when written again).
  if (Run.CheckpointInsns != Golden.CheckpointInsns ||
      Run.RingUndoBytes != Golden.RingUndoBytes ||
      Run.Checkpoints.size() != Golden.Checkpoints.size() ||
      Run.Settled != Golden.Settled)
    return false;
  for (size_t I = 0; I < Run.Checkpoints.size(); ++I) {
    const Checkpoint &Mine = Run.Checkpoints[I], &Theirs =
                                                     Golden.Checkpoints[I];
    if (Mine.Insns != Theirs.Insns || Mine.UndoBytes != Theirs.UndoBytes)
      return false;
  }
  if (!Run.Checkpoints.empty())
    for (const auto &Entry : Run.Checkpoints.back().UndoLog)
      if (!Golden.Checkpoints.back().UndoLog.count(Entry.first))
        return false;
  // A watchdog anchor no older than the golden run's meets the next
  // check no later, so every slice end finds at most Stretch
  // instructions since a check.
  bool WatchdogOn = Config.WatchdogBound > 0 &&
                    Translator.config().Tech != Technique::None;
  if (WatchdogOn &&
      (Run.LastCheck < Golden.LastCheck || Stretch > Config.WatchdogBound))
    return false;
  return Report.TotalExecuted + RestInsns < TotalBudget;
}
