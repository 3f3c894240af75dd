//===- Memory.h - Paged guest memory with permissions -----------*- C++ -*-===//
//
// Part of the CFED project (CGO'06 control-flow error detection repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Sparse paged guest memory with per-page read/write/execute permissions.
/// The execute bit plays the role of the IA-32 execute-disable bit in the
/// paper: wild control transfers into non-executable pages trap, which is
/// the hardware detector for branch-error category F. The write bit
/// implements the write-protection mechanism the DBT uses to catch
/// self-modifying code (Section 5).
///
/// Executable pages additionally carry a predecoded-instruction side array
/// (one Instruction record per aligned 8-byte slot, indexed by PC >> 3)
/// so the interpreter's run loop fetches decoded instructions directly
/// instead of re-decoding bytes on every dynamic instruction. Any byte
/// write to a page — guest stores, the DBT installing or chain-patching
/// translations, flush unchaining — drops that page's side array, which
/// preserves self-modifying-code semantics.
///
/// While safe-point tags are on (setSafePointTags), a page decode puts a
/// SafePointTag record in the slot of every safe point on the page and
/// keeps the slot's real instruction beside the slot array, where the
/// interpreter resolves it (taggedInsn). Turning tags on or off drops
/// every side array, so a page decoded under one setting never serves
/// the other (DESIGN.md §7).
///
/// Pages live in one flat table covering the fixed layout of Layout.h
/// (everything below CacheBase + CacheMaxSize); addresses at or above it
/// are unmapped. The interpreter's hot accessors (fetchDecoded and
/// peekDecoded, read64, write64, read8, write8) are inline: an access
/// inside one page whose permission bit is set — and, for writes, whose
/// write epoch is current and which has no predecoded side array to
/// drop — is one table index and one copy. Every other access takes the
/// byte-granular access() loop.
///
/// Memories fork copy-on-write (DESIGN.md §12): freeze() turns every page
/// into an immutable shared page, an image lists them, and a Memory
/// forked from the image shares them. The first write, permission change
/// or predecode of a shared page privatises it — a copy in the writer's
/// table only. Shared pages never carry the current write epoch, so
/// privatisation rides the write-epoch slow path the observer report
/// already takes; no read, write or fetch fast path tests anything new.
///
//===----------------------------------------------------------------------===//

#ifndef CFED_VM_MEMORY_H
#define CFED_VM_MEMORY_H

#include "isa/Isa.h"
#include "vm/Layout.h"
#include "vm/SafePoints.h"

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

namespace cfed {

/// Observer of first-write-per-epoch page dirtying. The recovery subsystem
/// implements this to capture copy-on-write pre-images for its undo log:
/// onPageDirtied fires once per page per epoch, *before* the new bytes
/// land, with the page's current (pre-write) contents.
class PageWriteObserver {
public:
  virtual ~PageWriteObserver() = default;

  /// \p PageBase is the page-aligned guest address; \p OldBytes points at
  /// the page's PageSize bytes as they are about to be overwritten. The
  /// pointer is only valid for the duration of the call.
  virtual void onPageDirtied(uint64_t PageBase, const uint8_t *OldBytes) = 0;
};

/// Page permission bits.
enum PagePerms : uint8_t {
  PermNone = 0,
  PermR = 1,
  PermW = 2,
  PermX = 4,
  PermRW = PermR | PermW,
  PermRX = PermR | PermX,
  PermRWX = PermR | PermW | PermX,
};

/// Result of a memory access.
enum class MemResult : uint8_t {
  Ok,
  Unmapped,    ///< No page mapped at the address.
  NoRead,      ///< Page lacks the read permission.
  NoWrite,     ///< Page lacks the write permission.
  NoExec,      ///< Page lacks the execute permission.
};

/// Sparse paged memory. All accesses are byte-granular; multi-byte
/// accesses may straddle pages.
class Memory {
public:
  /// Every mappable address lies below AddrLimit: the page table covers
  /// the whole layout, up to the end of the code cache.
  static constexpr uint64_t AddrLimit = CacheBase + CacheMaxSize;
  static constexpr uint64_t NumTablePages = AddrLimit / PageSize;

  Memory();
  ~Memory();
  Memory(const Memory &) = delete;
  Memory &operator=(const Memory &) = delete;

  /// Makes every page shared and immutable so an image can be taken.
  /// The Memory stays usable: its own next write to a page privatises
  /// it. Frozen pages are owned by a store that every Memory sharing
  /// them keeps alive, so they are freed with the last of those, on the
  /// thread that drops it.
  void freeze();

  enum ImageTag { Image };
  /// An image of \p Live, which must be frozen: the list of its pages,
  /// without a page table. An image is never accessed, only forked, so
  /// it costs its list and not a table.
  Memory(const Memory &Live, ImageTag);

  enum ForkTag { Fork };
  /// A copy-on-write fork of \p Image: shares every page, with a table
  /// of its own. Any number of threads may fork one image at once. The
  /// fork's predecode counters and write epoch start afresh and it has
  /// no write observer.
  Memory(const Memory &Image, ForkTag);

  /// True when this Memory maps the pages of \p Image, in the same order,
  /// with equal permissions and bytes. Pages both share compare by
  /// reference, so the cost is the pages either side privatised.
  bool sameContents(const Memory &Image) const;

  /// Maps [Base, Base+Size) with \p Perms, zero-filled. Rounds outward to
  /// page boundaries. Remapping an existing page just updates permissions.
  /// Mapping at or beyond AddrLimit is a fatal error.
  void mapRegion(uint64_t Base, uint64_t Size, uint8_t Perms);

  /// Changes permissions of all pages overlapping [Base, Base+Size).
  /// The pages must already be mapped.
  void setPerms(uint64_t Base, uint64_t Size, uint8_t Perms);

  /// Returns the permissions of the page containing \p Addr, or PermNone
  /// if unmapped.
  uint8_t getPerms(uint64_t Addr) const;

  /// Reads \p Size bytes into \p Out checking the read permission.
  MemResult read(uint64_t Addr, void *Out, uint64_t Size) const;

  /// Writes \p Size bytes from \p In checking the write permission.
  MemResult write(uint64_t Addr, const void *In, uint64_t Size);

  /// Fetches \p Size instruction bytes checking the execute permission.
  MemResult fetch(uint64_t Addr, void *Out, uint64_t Size) const;

  /// Fast instruction fetch through the predecode cache. For an aligned
  /// \p Addr on an executable page, returns the predecoded instruction
  /// (decoding the whole page into the side array on first touch).
  /// Returns nullptr with \p Result == Ok when the caller must take the
  /// byte-level slow path: misaligned \p Addr or undecodable bytes (the
  /// slow path then raises the same illegal-instruction trap a raw decode
  /// would). Permission failures are reported through \p Result exactly
  /// like fetch().
  ///
  /// The returned record is an element of the page's slot array: while
  /// nothing writes the page, the record k slots further on the same page
  /// holds the predecoded instruction at Addr + k * InsnSize, a Nop
  /// record for an illegal slot, or a SafePointTag record for a tagged
  /// one.
  const Instruction *fetchDecoded(uint64_t Addr, MemResult &Result) {
    if (const Instruction *I = peekDecoded(Addr)) {
      ++PredecodeHits;
      Result = MemResult::Ok;
      return I;
    }
    return fetchDecodedSlow(Addr, Result);
  }

  /// The fetchDecoded() hit path alone: the live predecoded instruction
  /// at \p Addr, or nullptr when fetchDecoded() would not be a plain hit
  /// (misaligned, unmapped, not executable, not yet decoded, or illegal).
  /// Counts nothing; a caller that executes the instruction reports the
  /// hit with notePredecodeHits().
  const Instruction *peekDecoded(uint64_t Addr) const {
    if (Addr % InsnSize != 0 || Addr >= AddrLimit)
      return nullptr;
    const Page *P = Table[Addr / PageSize];
    if (!P || !(P->Perms & PermX) || !P->Decoded)
      return nullptr;
    uint64_t Slot = (Addr % PageSize) / InsnSize;
    return P->Decoded->isIllegal(Slot) ? nullptr : &P->Decoded->Insns[Slot];
  }
  void notePredecodeHits(uint64_t Count) { PredecodeHits += Count; }

  /// Turns safe-point tags on, with \p Points as their source, or off
  /// (nullptr). Either way every predecoded side array is dropped, so no
  /// page decoded under the other setting survives. The translator keeps
  /// \p Points current: a safe point is registered only after its bytes
  /// were written and dropped only with a predecode invalidation of its
  /// range, so a tag never outlives its safe point.
  void setSafePointTags(const SafePointTable *Points);

  /// The instruction a SafePointTag record \p Tag, fetched at \p Addr,
  /// stands for. Valid while nothing writes the page.
  const Instruction &taggedInsn(uint64_t Addr, const Instruction &Tag) const {
    return Table[Addr / PageSize]->Decoded->Tagged[Tag.Imm];
  }

  /// Drops predecoded side arrays for all pages overlapping
  /// [Base, Base+Size). Writes invalidate automatically; this is for
  /// callers that change what an address range means without writing it
  /// (e.g. the DBT's flush path, belt and braces).
  void invalidatePredecode(uint64_t Base, uint64_t Size);

  /// Predecode-cache hits: aligned fetches served from a live side array.
  uint64_t predecodeHitCount() const { return PredecodeHits; }
  /// Predecode-cache misses: page decode events plus slow-path fetches
  /// (misaligned or undecodable).
  uint64_t predecodeMissCount() const {
    return PredecodeDecodes + PredecodeSlow;
  }

  /// Installs (or clears, with nullptr) the page-write observer. Only
  /// pages whose base address is below \p LimitAddr are tracked — the
  /// recovery subsystem passes CacheBase so code-cache churn (translation
  /// installs, chain patching) never inflates the undo log. Installing an
  /// observer starts a fresh epoch.
  void setWriteObserver(PageWriteObserver *Observer, uint64_t LimitAddr);

  /// Starts a new write epoch: every tracked page reports its next write
  /// to the observer again. Called after a checkpoint or rollback.
  void resetWriteEpoch();

  /// Permission-less accessors for the loader, the translator and tests.
  /// The pages must be mapped.
  void writeRaw(uint64_t Addr, const void *In, uint64_t Size);
  void readRaw(uint64_t Addr, void *Out, uint64_t Size) const;

  uint64_t read64(uint64_t Addr, MemResult &Result) const {
    return readScalar<uint64_t>(Addr, Result);
  }
  MemResult write64(uint64_t Addr, uint64_t Value) {
    return writeScalar(Addr, Value);
  }
  uint8_t read8(uint64_t Addr, MemResult &Result) const {
    return readScalar<uint8_t>(Addr, Result);
  }
  MemResult write8(uint64_t Addr, uint8_t Value) {
    return writeScalar(Addr, Value);
  }

  /// Returns true if any page overlapping [Base, Base+Size) is mapped.
  bool isMapped(uint64_t Addr) const;

private:
  /// Predecoded view of one executable page: Insns[Slot] caches
  /// Instruction::decode of the 8 bytes at Slot * InsnSize; Illegal marks
  /// slots whose bytes do not decode. A tagged slot holds a SafePointTag
  /// record whose A is the safe point's checked bit and whose Imm indexes
  /// its real instruction in Tagged.
  struct DecodedPage {
    static constexpr uint64_t NumSlots = PageSize / InsnSize;
    Instruction Insns[NumSlots];
    uint64_t Illegal[NumSlots / 64] = {};
    std::vector<Instruction> Tagged;

    bool isIllegal(uint64_t Slot) const {
      return (Illegal[Slot / 64] >> (Slot % 64)) & 1;
    }
  };

  struct Page {
    std::unique_ptr<DecodedPage> Decoded;
    /// Write epoch in which this page last took the write slow path:
    /// plain writes go fast only while it equals the Memory's WriteEpoch
    /// (and, for a tracked page, the observer has then seen it). Shared
    /// pages keep 0, which no epoch ever is.
    uint64_t DirtyEpoch = 0;
    uint8_t Perms = PermNone;
    /// Frozen into a PageStore: immutable, possibly in several tables.
    bool Shared = false;
    /// Zero-filled by value-initialisation (new Page()), left
    /// uninitialised by privatise(), which copies over it.
    alignas(8) uint8_t Bytes[PageSize];
  };

  /// Owner of the pages one freeze() made shared. A Memory's store
  /// covers every shared page in its table: through Parent, those of its
  /// earlier freezes and of the Memory it was forked from.
  struct PageStore {
    std::shared_ptr<const PageStore> Parent;
    std::vector<std::unique_ptr<Page>> Pages;
  };

  enum class AccessKind { Read, Write, Fetch, Raw };

  /// The page containing \p Addr, or nullptr if unmapped.
  Page *pageAt(uint64_t Addr) const {
    return Addr < AddrLimit ? Table[Addr / PageSize] : nullptr;
  }
  /// The page that holds all of [Addr, Addr+Size) when it is mapped with
  /// \p Perm; nullptr sends the access down the access() path.
  Page *fastPage(uint64_t Addr, uint64_t Size, uint8_t Perm) const {
    if (Addr >= AddrLimit || Addr % PageSize > PageSize - Size)
      return nullptr;
    Page *P = Table[Addr / PageSize];
    return P && (P->Perms & Perm) ? P : nullptr;
  }
  /// True when a write to \p P must take the slow path first: to
  /// privatise a shared page or hand a tracked page's pre-image to the
  /// observer (prepareWrite()).
  bool writeSlowDue(const Page *P) const {
    return P->DirtyEpoch != WriteEpoch;
  }

  template <typename T> T readScalar(uint64_t Addr, MemResult &Result) const {
    T Value = 0;
    if (const Page *P = fastPage(Addr, sizeof(T), PermR)) {
      std::memcpy(&Value, P->Bytes + Addr % PageSize, sizeof(T));
      Result = MemResult::Ok;
    } else {
      Result = read(Addr, &Value, sizeof(T));
    }
    return Value;
  }
  template <typename T> MemResult writeScalar(uint64_t Addr, T Value) {
    Page *P = fastPage(Addr, sizeof(T), PermW);
    if (!P || P->Decoded || writeSlowDue(P))
      return write(Addr, &Value, sizeof(T));
    std::memcpy(P->Bytes + Addr % PageSize, &Value, sizeof(T));
    return MemResult::Ok;
  }

  const Instruction *fetchDecodedSlow(uint64_t Addr, MemResult &Result);
  /// Tags the safe points on the page at \p PageBase in its fresh decode.
  void tagSafePoints(DecodedPage &Page, uint64_t PageBase) const;
  MemResult access(uint64_t Addr, void *Out, const void *In, uint64_t Size,
                   AccessKind Kind) const;
  /// The write slow path for the page at \p PageBase: privatises it when
  /// shared, reports its pre-image when tracked and not yet reported in
  /// this epoch, and marks the epoch current. Returns the page to write.
  Page *prepareWrite(uint64_t PageBase) const;
  /// Replaces the shared page at table index \p Index by a private copy
  /// of its bytes and permissions (and its decoded side array when
  /// \p KeepDecoded). Returns the copy.
  Page *privatise(uint64_t Index, bool KeepDecoded) const;

  /// Page table indexed by Addr / PageSize (NumTablePages entries; null
  /// in an image). A private page is owned by this Memory; a shared one
  /// by Store. An entry changes only when privatise() replaces it.
  std::unique_ptr<Page *[]> Table;
  /// Table indices of the mapped pages, in mapping order.
  std::vector<uint32_t> Mapped;
  /// An image's pages, parallel to Mapped.
  std::vector<Page *> ImagePages;
  std::shared_ptr<const PageStore> Store;
  PageWriteObserver *WriteObserver = nullptr;
  uint64_t WriteObserverLimit = 0;
  /// Source of safe-point tags; null while tags are off.
  const SafePointTable *SafePoints = nullptr;
  /// Current write epoch; a tracked page whose DirtyEpoch differs has not
  /// been reported in it yet.
  uint64_t WriteEpoch = 1;
  uint64_t PredecodeHits = 0;
  uint64_t PredecodeDecodes = 0;
  uint64_t PredecodeSlow = 0;
};

} // namespace cfed

#endif // CFED_VM_MEMORY_H
