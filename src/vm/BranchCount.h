//===- BranchCount.h - Branch counts and instants, hook-free ----*- C++ -*-===//
//
// Part of the CFED project (CGO'06 control-flow error detection repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Counts executed offset branches (Jmp/Jcc/Jzr/Jnzr/Call, the fault
/// sites of the error model) per code slot and indexes the instants at
/// which they run, on the hook-free interpreter loop (DESIGN.md §6). A
/// fault campaign's golden run binds one: the per-slot counts give the
/// dynamic branch populations faults are drawn from, and the index lets
/// the planning run go hook-free up to a short window before each drawn
/// branch instance (DESIGN.md §12).
///
//===----------------------------------------------------------------------===//

#ifndef CFED_VM_BRANCHCOUNT_H
#define CFED_VM_BRANCHCOUNT_H

#include "isa/Isa.h"

#include <bit>
#include <cstdint>
#include <vector>

namespace cfed {

class BranchCounter {
public:
  /// The index keeps at most this many entries: on reaching it, it keeps
  /// every other one and doubles the stride.
  static constexpr size_t IndexCap = 4096;

  /// The run just before one indexed branch executes.
  struct IndexEntry {
    uint64_t Insns = 0; ///< Instructions retired before the branch.
    uint64_t Any = 0;   ///< Offset branches executed before it.

    bool operator==(const IndexEntry &) const = default;
  };

  /// One executed branch slot.
  struct Site {
    uint64_t Addr = 0;
    uint64_t Count = 0;

    bool operator==(const Site &) const = default;
  };

  /// Counts slots Base + k * InsnSize below Base + \p Span in a flat
  /// array that grows as they are first reached. A branch anywhere else
  /// (misaligned, or outside the span) is a fatal error: the code a
  /// counted run executes lies in one span, the code cache when
  /// translated.
  BranchCounter(uint64_t Base, uint64_t Span) : Base(Base), Span(Span) {}

  /// The interpreter's counting loop calls this for each offset branch at
  /// \p PC, before it executes, with \p InsnsBefore instructions retired
  /// before it. Every stride()-th branch, counted from the first, appends
  /// an index entry.
  [[gnu::always_inline]] void note(uint64_t PC, uint64_t InsnsBefore) {
    static_assert(InsnSize == 8, "slot index rotates by log2(InsnSize)");
    // A misaligned offset rotates into the high bits, past every slot.
    uint64_t Slot = std::rotr(PC - Base, 3);
    if (Slot < Slots.size())
      ++Slots[Slot];
    else
      grow(PC);
    if ((Any & (Stride - 1)) == 0)
      append(InsnsBefore);
    ++Any;
  }

  /// Every executed slot, in address order.
  std::vector<Site> sites() const;
  /// Entries at branch 0, stride(), 2 * stride(), ... in run order.
  const std::vector<IndexEntry> &index() const { return Index; }
  /// Branches between two index entries: a power of two.
  uint64_t stride() const { return Stride; }

private:
  /// A branch past the slots allocated so far: checks it lies in the
  /// span, grows the array and counts it.
  [[gnu::noinline]] void grow(uint64_t PC);
  /// Appends the entry for the branch about to run, thinning the index
  /// at IndexCap.
  [[gnu::noinline]] void append(uint64_t InsnsBefore);

  uint64_t Base;
  uint64_t Span;
  std::vector<uint64_t> Slots;
  std::vector<IndexEntry> Index;
  uint64_t Stride = 1;
  uint64_t Any = 0;
};

} // namespace cfed

#endif // CFED_VM_BRANCHCOUNT_H
