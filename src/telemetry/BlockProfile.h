//===- BlockProfile.h - Per-block execution attribution ---------*- C++ -*-===//
//
// Part of the CFED project (CGO'06 control-flow error detection repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hot-spot attribution for translated guest code. The translator embeds
/// one Prof instruction (a counter bump) in each sub-block's prologue and
/// before each direct exit stub; the interpreter forwards the bump here.
/// That yields per-guest-block execution counts and taken-edge
/// frequencies that survive chaining (chained jumps land on the Prof at
/// the sub-block start), superblock fusion (every fused sub-block keeps
/// its own slot) and cache flushes (slots are keyed by guest address, not
/// cache address, so retranslation reuses them).
///
/// Counter storage is chunked: slot addresses never move once handed
/// out, so translated code can keep bumping across registrations of new
/// blocks. Off by default — a Dbt without an attached profile emits no
/// Prof instructions and the dispatch loop pays nothing.
///
//===----------------------------------------------------------------------===//

#ifndef CFED_TELEMETRY_BLOCKPROFILE_H
#define CFED_TELEMETRY_BLOCKPROFILE_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace cfed {
namespace telemetry {

class MetricsRegistry;

class BlockProfile {
public:
  /// Aggregated view of one profiled guest block.
  struct BlockStats {
    uint64_t GuestAddr = 0;
    /// Exclusive end of the guest range this sub-block covers.
    uint64_t GuestEnd = 0;
    uint64_t Execs = 0;
    uint64_t GuestInsns = 0;
    /// Bytes of checker-emitted instrumentation in the translation.
    uint64_t InstrBytes = 0;
    /// Total translated bytes attributed to this sub-block.
    uint64_t CacheBytes = 0;

    /// Dynamic guest instructions attributed to this block.
    uint64_t dynInsns() const { return Execs * GuestInsns; }
  };

  /// One profiled control-flow edge (direct transfers only; indirect
  /// targets are not statically enumerable at translation time).
  struct EdgeStats {
    uint64_t From = 0;
    uint64_t To = 0;
    uint64_t Count = 0;
  };

  BlockProfile() = default;
  /// A deep copy: same slots, counts and metadata.
  BlockProfile(const BlockProfile &Other);
  BlockProfile &operator=(const BlockProfile &) = delete;

  /// Returns the counter slot for the block entered at \p GuestAddr,
  /// creating it on first use. Stable across retranslations.
  uint32_t blockSlot(uint64_t GuestAddr);

  /// Returns the counter slot for the direct edge \p From -> \p To.
  uint32_t edgeSlot(uint64_t From, uint64_t To);

  /// Records translation-time metadata for \p GuestAddr's block. Called
  /// on every (re)translation; the latest layout wins.
  void noteBlock(uint64_t GuestAddr, uint64_t GuestEnd, uint64_t GuestInsns,
                 uint64_t InstrBytes, uint64_t CacheBytes);

  /// The hot path: executed once per Prof instruction. Out-of-range
  /// slots (corrupted immediates) are ignored rather than trapped.
  void bump(uint32_t Slot) {
    if (Slot < NumSlots)
      ++Chunks[Slot / ChunkSize]->Counts[Slot % ChunkSize];
  }

  uint64_t slotCount(uint32_t Slot) const;
  /// Executions of the block entered at \p GuestAddr (0 if unknown).
  uint64_t execCount(uint64_t GuestAddr) const;
  /// Taken count of the direct edge \p From -> \p To (0 if unknown).
  uint64_t edgeCount(uint64_t From, uint64_t To) const;

  /// True once any profiled block has executed. Until then hotness is
  /// unknowable and consumers should fall back to their unprofiled
  /// behavior.
  bool hasExecutions() const;

  /// A block is hot when its exec count reaches the threshold
  /// (default 1: any observed execution counts as hot).
  void setHotThreshold(uint64_t T) { HotThreshold = T; }
  uint64_t hotThreshold() const { return HotThreshold; }
  bool isHot(uint64_t GuestAddr) const {
    return execCount(GuestAddr) >= HotThreshold;
  }

  size_t numBlocks() const { return Blocks.size(); }
  size_t numEdges() const { return EdgeSlots.size(); }
  /// Sum of all block execution counts.
  uint64_t totalBlockExecs() const;
  /// Sum of Execs * GuestInsns over all blocks — the denominator of the
  /// report's %-of-dynamic-instructions column.
  uint64_t totalDynInsns() const;

  /// The \p N most-executed blocks, descending by exec count (ties by
  /// guest address for determinism).
  std::vector<BlockStats> topBlocks(size_t N) const;
  /// The \p N most-taken direct edges, descending by count.
  std::vector<EdgeStats> topEdges(size_t N) const;

  /// Annotated top-N report: guest PC range, exec count, share of
  /// dynamic instructions, instrumentation bytes per block, plus a hot
  /// edge table and totals footer.
  std::string renderReport(size_t TopN) const;

  /// Publishes summary gauges (blockprofile.blocks/edges/execs/
  /// dyn_insns) into \p Registry.
  void publishTo(MetricsRegistry &Registry) const;

  /// Zeroes all counters; slot assignments and metadata survive.
  void reset();

private:
  static constexpr size_t ChunkSize = 4096;
  struct Chunk {
    uint64_t Counts[ChunkSize] = {};
  };

  struct BlockInfo {
    uint32_t Slot = 0;
    uint64_t GuestEnd = 0;
    uint64_t GuestInsns = 0;
    uint64_t InstrBytes = 0;
    uint64_t CacheBytes = 0;
  };

  uint32_t allocSlot();

  /// Stable-address chunked counter storage: growing never moves a slot.
  std::vector<std::unique_ptr<Chunk>> Chunks;
  uint32_t NumSlots = 0;
  uint64_t HotThreshold = 1;

  std::unordered_map<uint64_t, BlockInfo> Blocks;
  /// (From, To) -> slot. Ordered map: translation-time only, and the
  /// report wants deterministic iteration.
  std::map<std::pair<uint64_t, uint64_t>, uint32_t> EdgeSlots;
};

} // namespace telemetry
} // namespace cfed

#endif // CFED_TELEMETRY_BLOCKPROFILE_H
