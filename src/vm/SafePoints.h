//===- SafePoints.h - Safe points of translated code ------------*- C++ -*-===//
//
// Part of the CFED project (CGO'06 control-flow error detection repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The translator's safe points: the cache addresses where recovery may
/// checkpoint. The table lives in vm because guest memory reads it too:
/// while a safe-point hook is attached, a page decode tags the slot of
/// every safe point on the page, and the interpreter hands a tagged slot
/// to the hook (DESIGN.md §7).
///
//===----------------------------------------------------------------------===//

#ifndef CFED_VM_SAFEPOINTS_H
#define CFED_VM_SAFEPOINTS_H

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

namespace cfed {

/// A guest-consistent re-entry point in the code cache: the first
/// instruction of a registered sub-block's prologue. At these cache
/// addresses all architectural state is guest state (no partially
/// executed block), so the recovery subsystem may checkpoint there and
/// resume from the corresponding guest address after a rollback.
struct SafePointInfo {
  /// Cache address of the prologue's first instruction.
  uint64_t CacheAddr = 0;
  /// Guest address of the sub-block entered here.
  uint64_t GuestAddr = 0;
  /// True when the checker emitted a signature *check* (not just an
  /// update) in this prologue — the anchors the errant-flow watchdog
  /// counts instructions between.
  bool Checked = false;
};

/// Safe points of all live translations, in ascending cache-address
/// order. The translator never reuses cache storage, so registering a
/// new translation's safe points appends; eviction and flushes drop
/// whole ranges.
class SafePointTable {
public:
  /// Registers \p Point, replacing any safe point at its cache address.
  void add(const SafePointInfo &Point) {
    auto It = Points.begin() + (lowerBound(Point.CacheAddr) - Points.cbegin());
    if (It != Points.end() && It->CacheAddr == Point.CacheAddr)
      *It = Point;
    else
      Points.insert(It, Point);
  }

  /// The safe point at \p CacheAddr, or nullptr.
  const SafePointInfo *find(uint64_t CacheAddr) const {
    auto It = lowerBound(CacheAddr);
    return It != Points.end() && It->CacheAddr == CacheAddr ? &*It : nullptr;
  }

  /// The safe points whose cache address lies in [Begin, End).
  std::span<const SafePointInfo> in(uint64_t Begin, uint64_t End) const {
    return {lowerBound(Begin), lowerBound(End)};
  }

  /// Drops the safe points in [Begin, End). Returns how many of them
  /// carried a signature check.
  uint64_t erase(uint64_t Begin, uint64_t End) {
    auto First = lowerBound(Begin), Last = lowerBound(End);
    uint64_t Checked = static_cast<uint64_t>(
        std::count_if(First, Last, [](const auto &P) { return P.Checked; }));
    Points.erase(First, Last);
    return Checked;
  }

  void clear() { Points.clear(); }
  bool empty() const { return Points.empty(); }
  auto begin() const { return Points.begin(); }
  auto end() const { return Points.end(); }

private:
  std::vector<SafePointInfo>::const_iterator lowerBound(uint64_t Addr) const {
    return std::partition_point(
        Points.begin(), Points.end(),
        [Addr](const SafePointInfo &P) { return P.CacheAddr < Addr; });
  }

  std::vector<SafePointInfo> Points;
};

} // namespace cfed

#endif // CFED_VM_SAFEPOINTS_H
