//===- BatchLoop.h - The one campaign batch loop ----------------*- C++ -*-===//
//
// Part of the CFED project (CGO'06 control-flow error detection repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Internal to src/fault. Every campaign entry point — the resumable
/// engines and the in-process FaultCampaign/AttackCampaign runs, the
/// register-fault and the checker-targeted campaigns — is "build the
/// plan, pick a slot policy, call runBatchLoop once" (DESIGN.md §13).
/// A one-shot run passes a checkpoint-free EngineConfig whose
/// CheckpointInterval covers the whole primary schedule, so it runs as a
/// single parallel batch.
///
/// A slot policy (the Injector) provides:
///   Slot, SlotResult          planned-slot and per-slot result types
///   category(Slot)            the early-stopping cell of a slot (kinds
///                             that never stop early omit it)
///   inject(Slot)              one injection, thread-safe
///                             (SlotResult must be plain data; see
///                             runBatchLoop)
///   tally(Registry, Slot, R)  serial fold in schedule order
///
//===----------------------------------------------------------------------===//

#ifndef CFED_FAULT_BATCHLOOP_H
#define CFED_FAULT_BATCHLOOP_H

#include "fault/CampaignEngine.h"
#include "support/ThreadPool.h"

#include <functional>
#include <type_traits>

namespace cfed {

/// A kind's deterministic plan over its candidate vector (by index): the
/// primary schedule, the per-category reserve early stopping reallocates
/// from (empty for kinds that never stop early), and the fingerprint a
/// checkpoint must match.
struct SlotPlan {
  std::vector<uint64_t> Primary;
  std::array<std::vector<uint64_t>, NumBranchErrorCategories> Reserve;
  uint64_t Hash = 0;
};

/// The kind-independent loop (CampaignEngine.cpp): batches, resume,
/// sharding, early stopping, live export and checkpoints.
/// \p Category names a candidate's cell; \p RunBatch injects a batch of
/// candidates and tallies them into the registry in order.
BatchTotals runBatchSchedule(
    const EngineConfig &Engine, const char *CheckpointKind, const char *Noun,
    const SlotPlan &Plan,
    const std::function<BranchErrorCategory(uint64_t)> &Category,
    const std::function<void(const std::vector<uint64_t> &,
                             telemetry::MetricsRegistry &)> &RunBatch);

/// Runs \p Plan over \p Candidates with slot policy \p K: each batch is
/// injected in parallel into position-indexed results and tallied
/// serially, so results never depend on the job count.
template <typename Kind>
BatchTotals runBatchLoop(const EngineConfig &Engine, Kind &K,
                        const std::vector<typename Kind::Slot> &Candidates,
                        const SlotPlan &Plan,
                        const char *CheckpointKind = nullptr,
                        const char *Noun = nullptr) {
  // A result that owned heap memory would be allocated by a worker and
  // freed by the tallying thread. glibc then parks the chunk in the
  // tallying thread's cache, where it pins the top of the worker's arena:
  // the arena can no longer trim, so every injection's pages stay resident
  // and the process's peak RSS depends on which arena each worker drew.
  static_assert(std::is_trivially_copyable_v<typename Kind::SlotResult>,
                "slot results cross threads and must be plain data");
  ThreadPool Pool(Engine.Jobs);
  return runBatchSchedule(
      Engine, CheckpointKind, Noun, Plan,
      [&](uint64_t C) {
        if constexpr (requires { Kind::category(Candidates[C]); })
          return Kind::category(Candidates[C]);
        else
          return BranchErrorCategory::NoError;
      },
      [&](const std::vector<uint64_t> &Batch,
          telemetry::MetricsRegistry &Cumulative) {
        std::vector<typename Kind::SlotResult> Results(Batch.size());
        Pool.parallelFor(Batch.size(), [&](uint64_t I) {
          Results[I] = K.inject(Candidates[Batch[I]]);
        });
        for (size_t I = 0; I < Batch.size(); ++I)
          K.tally(Cumulative, Candidates[Batch[I]], Results[I]);
      });
}

/// The checkpoint-free configuration of a one-shot run: one batch
/// covering all \p PrimarySlots.
inline EngineConfig oneBatch(uint64_t PrimarySlots, unsigned Jobs) {
  EngineConfig Engine;
  Engine.NumInjections = PrimarySlots;
  Engine.Jobs = Jobs;
  Engine.CheckpointInterval = PrimarySlots ? PrimarySlots : 1;
  return Engine;
}

/// Plans \p Campaign's first Engine.NumInjections control-flow-deviating
/// faults (the surplus of a 4x over-plan is the early-stopping reserve)
/// and runs them, under Engine.Recovery when set (adding the recovery.*
/// ladder counters), with Engine's recorder and tracer attached.
/// \p Campaign must be prepared.
BatchTotals runFaultPlan(FaultCampaign &Campaign, const EngineConfig &Engine);

/// Plans \p Campaign's first Engine.NumInjections actionable attacks and
/// runs them like runFaultPlan.
BatchTotals runAttackPlan(AttackCampaign &Campaign, const EngineConfig &Engine);

} // namespace cfed

#endif // CFED_FAULT_BATCHLOOP_H
