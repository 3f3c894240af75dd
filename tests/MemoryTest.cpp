//===- MemoryTest.cpp - Unit tests for paged memory and the loader -------------===//

#include "asm/Assembler.h"
#include "vm/Interp.h"
#include "vm/Layout.h"
#include "vm/Loader.h"
#include "vm/Memory.h"

#include <cstring>
#include <gtest/gtest.h>
#include <string>
#include <thread>
#include <vector>

using namespace cfed;

TEST(MemoryTest, UnmappedAccessFails) {
  Memory Mem;
  uint8_t Byte;
  EXPECT_EQ(Mem.read(0x1000, &Byte, 1), MemResult::Unmapped);
  EXPECT_EQ(Mem.write(0x1000, &Byte, 1), MemResult::Unmapped);
  EXPECT_EQ(Mem.fetch(0x1000, &Byte, 1), MemResult::Unmapped);
  EXPECT_FALSE(Mem.isMapped(0x1000));
  EXPECT_EQ(Mem.getPerms(0x1000), PermNone);
}

TEST(MemoryTest, PermissionEnforcement) {
  Memory Mem;
  Mem.mapRegion(0x1000, PageSize, PermR);
  uint8_t Byte = 7;
  EXPECT_EQ(Mem.read(0x1000, &Byte, 1), MemResult::Ok);
  EXPECT_EQ(Mem.write(0x1000, &Byte, 1), MemResult::NoWrite);
  EXPECT_EQ(Mem.fetch(0x1000, &Byte, 1), MemResult::NoExec);

  Mem.setPerms(0x1000, PageSize, PermRWX);
  EXPECT_EQ(Mem.write(0x1000, &Byte, 1), MemResult::Ok);
  EXPECT_EQ(Mem.fetch(0x1000, &Byte, 1), MemResult::Ok);
}

TEST(MemoryTest, ReadWriteRoundTrip) {
  Memory Mem;
  Mem.mapRegion(0x2000, PageSize, PermRW);
  EXPECT_EQ(Mem.write64(0x2000, 0x1122334455667788ULL), MemResult::Ok);
  MemResult R = MemResult::Ok;
  EXPECT_EQ(Mem.read64(0x2000, R), 0x1122334455667788ULL);
  EXPECT_EQ(R, MemResult::Ok);
  EXPECT_EQ(Mem.read8(0x2000, R), 0x88); // Little-endian.
}

TEST(MemoryTest, CrossPageAccess) {
  Memory Mem;
  Mem.mapRegion(0x3000, 2 * PageSize, PermRW);
  uint64_t Addr = 0x3000 + PageSize - 4; // Straddles the boundary.
  EXPECT_EQ(Mem.write64(Addr, 0xAABBCCDDEEFF0011ULL), MemResult::Ok);
  MemResult R = MemResult::Ok;
  EXPECT_EQ(Mem.read64(Addr, R), 0xAABBCCDDEEFF0011ULL);
}

TEST(MemoryTest, CrossPagePartialPermissionFails) {
  Memory Mem;
  Mem.mapRegion(0x3000, PageSize, PermRW);
  Mem.mapRegion(0x3000 + PageSize, PageSize, PermR);
  uint64_t Addr = 0x3000 + PageSize - 4;
  EXPECT_EQ(Mem.write64(Addr, 1), MemResult::NoWrite);
}

TEST(MemoryTest, MapRegionRoundsOutward) {
  Memory Mem;
  Mem.mapRegion(0x5100, 100, PermR); // Mid-page, small.
  EXPECT_TRUE(Mem.isMapped(0x5000));
  EXPECT_TRUE(Mem.isMapped(0x5FFF));
  EXPECT_FALSE(Mem.isMapped(0x6000));
}

TEST(MemoryTest, RemapKeepsContents) {
  Memory Mem;
  Mem.mapRegion(0x7000, PageSize, PermRW);
  ASSERT_EQ(Mem.write64(0x7000, 42), MemResult::Ok);
  Mem.mapRegion(0x7000, PageSize, PermR); // Permission change only.
  MemResult R = MemResult::Ok;
  EXPECT_EQ(Mem.read64(0x7000, R), 42u);
}

TEST(MemoryTest, RawBypassesPermissions) {
  Memory Mem;
  Mem.mapRegion(0x8000, PageSize, PermNone);
  uint64_t Value = 0x55;
  Mem.writeRaw(0x8000, &Value, sizeof(Value));
  uint64_t Back = 0;
  Mem.readRaw(0x8000, &Back, sizeof(Back));
  EXPECT_EQ(Back, 0x55u);
}

namespace {

/// Encodes \p I into memory at \p Addr, bypassing permissions.
void pokeInsn(Memory &Mem, uint64_t Addr, const Instruction &I) {
  uint8_t Buffer[InsnSize];
  I.encode(Buffer);
  Mem.writeRaw(Addr, Buffer, InsnSize);
}

} // namespace

TEST(MemoryTest, FetchDecodedReturnsDecodedInstruction) {
  Memory Mem;
  Mem.mapRegion(0x1000, PageSize, PermRWX);
  pokeInsn(Mem, 0x1000, insn::rri(Opcode::AddI, 3, 4, 77));
  MemResult R = MemResult::Unmapped;
  const Instruction *I = Mem.fetchDecoded(0x1000, R);
  EXPECT_EQ(R, MemResult::Ok);
  ASSERT_NE(I, nullptr);
  EXPECT_EQ(I->Op, Opcode::AddI);
  EXPECT_EQ(I->A, 3);
  EXPECT_EQ(I->B, 4);
  EXPECT_EQ(I->Imm, 77);
  // The second fetch is a pure side-array hit.
  uint64_t Hits = Mem.predecodeHitCount();
  EXPECT_EQ(Mem.fetchDecoded(0x1000, R), I);
  EXPECT_EQ(Mem.predecodeHitCount(), Hits + 1);
}

TEST(MemoryTest, FetchDecodedHonorsPermissions) {
  Memory Mem;
  Mem.mapRegion(0x1000, PageSize, PermRW);
  pokeInsn(Mem, 0x1000, insn::rri(Opcode::AddI, 1, 1, 1));
  MemResult R = MemResult::Ok;
  EXPECT_EQ(Mem.fetchDecoded(0x1000, R), nullptr);
  EXPECT_EQ(R, MemResult::NoExec);
  EXPECT_EQ(Mem.fetchDecoded(0x9000, R), nullptr);
  EXPECT_EQ(R, MemResult::Unmapped);
}

TEST(MemoryTest, FetchDecodedMisalignedFallsBack) {
  Memory Mem;
  Mem.mapRegion(0x1000, PageSize, PermRWX);
  // A misaligned PC is legal input: the caller must take the byte-fetch
  // slow path so trap semantics stay exact.
  MemResult R = MemResult::Unmapped;
  EXPECT_EQ(Mem.fetchDecoded(0x1004, R), nullptr);
  EXPECT_EQ(R, MemResult::Ok);
}

TEST(MemoryTest, FetchDecodedIllegalSlotFallsBack) {
  Memory Mem;
  Mem.mapRegion(0x1000, PageSize, PermRWX);
  uint8_t Garbage[InsnSize] = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF};
  Mem.writeRaw(0x1000, Garbage, InsnSize);
  MemResult R = MemResult::Unmapped;
  EXPECT_EQ(Mem.fetchDecoded(0x1000, R), nullptr);
  EXPECT_EQ(R, MemResult::Ok); // Caller decodes and traps IllegalInsn.
}

TEST(MemoryTest, WriteInvalidatesPredecodedPage) {
  Memory Mem;
  Mem.mapRegion(0x1000, PageSize, PermRWX);
  pokeInsn(Mem, 0x1000, insn::rri(Opcode::AddI, 1, 1, 10));
  MemResult R = MemResult::Ok;
  const Instruction *I = Mem.fetchDecoded(0x1000, R);
  ASSERT_NE(I, nullptr);
  EXPECT_EQ(I->Imm, 10);

  // A permission-checked write through the normal path must invalidate
  // the page's side array (self-modifying code coherence).
  uint8_t Buffer[InsnSize];
  insn::rri(Opcode::AddI, 1, 1, 99).encode(Buffer);
  ASSERT_EQ(Mem.write(0x1000, Buffer, InsnSize), MemResult::Ok);
  I = Mem.fetchDecoded(0x1000, R);
  ASSERT_NE(I, nullptr);
  EXPECT_EQ(I->Imm, 99);
}

TEST(MemoryTest, InvalidatePredecodeDropsSideArrays) {
  Memory Mem;
  Mem.mapRegion(0x1000, 2 * PageSize, PermRWX);
  pokeInsn(Mem, 0x1000, insn::rri(Opcode::AddI, 1, 1, 5));
  MemResult R = MemResult::Ok;
  ASSERT_NE(Mem.fetchDecoded(0x1000, R), nullptr);
  uint64_t DecodesBefore = Mem.predecodeMissCount();
  Mem.invalidatePredecode(0x1000, 2 * PageSize);
  ASSERT_NE(Mem.fetchDecoded(0x1000, R), nullptr);
  // The page had to be re-decoded after the explicit invalidation.
  EXPECT_GT(Mem.predecodeMissCount(), DecodesBefore);
}

namespace {

/// Records every onPageDirtied callback: page base plus the first
/// pre-image byte (enough to prove the snapshot predates the write).
class RecordingObserver : public PageWriteObserver {
public:
  struct Event {
    uint64_t PageBase;
    uint8_t FirstOldByte;
  };
  std::vector<Event> Events;

  void onPageDirtied(uint64_t PageBase, const uint8_t *OldBytes) override {
    Events.push_back({PageBase, OldBytes[0]});
  }
};

} // namespace

TEST(MemoryTest, WriteObserverFiresOncePerPagePerEpoch) {
  Memory Mem;
  Mem.mapRegion(0x1000, PageSize, PermRW);
  ASSERT_EQ(Mem.write8(0x1000, 0xAA), MemResult::Ok);

  RecordingObserver Observer;
  Mem.setWriteObserver(&Observer, CacheBase);
  ASSERT_EQ(Mem.write8(0x1001, 0x11), MemResult::Ok);
  ASSERT_EQ(Mem.write8(0x1002, 0x22), MemResult::Ok); // Same page, same epoch.
  ASSERT_EQ(Mem.write8(0x1003, 0x33), MemResult::Ok);
  ASSERT_EQ(Observer.Events.size(), 1u);
  EXPECT_EQ(Observer.Events[0].PageBase, 0x1000u);
  // The pre-image is the page *before* the epoch's first write.
  EXPECT_EQ(Observer.Events[0].FirstOldByte, 0xAA);

  Mem.resetWriteEpoch();
  ASSERT_EQ(Mem.write8(0x1004, 0x44), MemResult::Ok);
  ASSERT_EQ(Observer.Events.size(), 2u);
  EXPECT_EQ(Observer.Events[1].PageBase, 0x1000u);

  Mem.setWriteObserver(nullptr, 0);
  ASSERT_EQ(Mem.write8(0x1005, 0x55), MemResult::Ok);
  EXPECT_EQ(Observer.Events.size(), 2u);
}

TEST(MemoryTest, WriteObserverIgnoresPagesAtOrAboveLimit) {
  Memory Mem;
  Mem.mapRegion(0x1000, PageSize, PermRW);
  Mem.mapRegion(CacheBase, PageSize, PermRW);
  RecordingObserver Observer;
  Mem.setWriteObserver(&Observer, CacheBase);
  // Code-cache churn (installs, chain patching) must not reach the
  // observer — only guest-visible pages below the limit do.
  ASSERT_EQ(Mem.write8(CacheBase, 1), MemResult::Ok);
  EXPECT_TRUE(Observer.Events.empty());
  ASSERT_EQ(Mem.write8(0x1000, 1), MemResult::Ok);
  EXPECT_EQ(Observer.Events.size(), 1u);
}

TEST(MemoryTest, WriteObserverSeesCrossPageWriteOncePerPage) {
  Memory Mem;
  Mem.mapRegion(0x1000, 2 * PageSize, PermRW);
  RecordingObserver Observer;
  Mem.setWriteObserver(&Observer, CacheBase);
  uint64_t Straddle = 0x1000 + PageSize - 4;
  ASSERT_EQ(Mem.write64(Straddle, ~0ull), MemResult::Ok);
  ASSERT_EQ(Observer.Events.size(), 2u);
  EXPECT_EQ(Observer.Events[0].PageBase, 0x1000u);
  EXPECT_EQ(Observer.Events[1].PageBase, 0x1000u + PageSize);
}

//===----------------------------------------------------------------------===//
// Flat page table and the inline fast paths
//===----------------------------------------------------------------------===//

TEST(MemoryTest, FastPathCoversLastWordStraddleTakesSlowPath) {
  Memory Mem;
  Mem.mapRegion(0x1000, PageSize, PermRW);
  // Offset 4088 is the last whole word of the page: the inline path.
  uint64_t Last = 0x1000 + PageSize - 8;
  EXPECT_EQ(Mem.write64(Last, 0x0102030405060708ULL), MemResult::Ok);
  MemResult R = MemResult::Unmapped;
  EXPECT_EQ(Mem.read64(Last, R), 0x0102030405060708ULL);
  EXPECT_EQ(R, MemResult::Ok);
  // Offset 4089 straddles into the unmapped next page: the byte loop
  // must report it instead of reading past the page.
  EXPECT_EQ(Mem.write64(Last + 1, 1), MemResult::Unmapped);
  Mem.read64(Last + 1, R);
  EXPECT_EQ(R, MemResult::Unmapped);
  // Once the next page exists the straddling word round-trips.
  Mem.mapRegion(0x1000 + PageSize, PageSize, PermRW);
  EXPECT_EQ(Mem.write64(Last + 1, 0xAABBCCDDEEFF0011ULL), MemResult::Ok);
  EXPECT_EQ(Mem.read64(Last + 1, R), 0xAABBCCDDEEFF0011ULL);
  EXPECT_EQ(R, MemResult::Ok);
  EXPECT_EQ(Mem.read8(0x1000 + PageSize, R), 0xAA); // Top byte, next page.
}

TEST(MemoryTest, AddressesBeyondPageTableAreUnmapped) {
  Memory Mem;
  Mem.mapRegion(Memory::AddrLimit - PageSize, PageSize, PermRWX);
  MemResult R = MemResult::Ok;
  for (uint64_t Addr : {Memory::AddrLimit, Memory::AddrLimit + PageSize,
                        uint64_t(1) << 40, ~uint64_t(0) - 7,
                        ~uint64_t(0)}) {
    EXPECT_FALSE(Mem.isMapped(Addr));
    EXPECT_EQ(Mem.getPerms(Addr), PermNone);
    Mem.read64(Addr, R);
    EXPECT_EQ(R, MemResult::Unmapped);
    Mem.read8(Addr, R);
    EXPECT_EQ(R, MemResult::Unmapped);
    EXPECT_EQ(Mem.write64(Addr, 1), MemResult::Unmapped);
    EXPECT_EQ(Mem.write8(Addr, 1), MemResult::Unmapped);
    EXPECT_EQ(Mem.fetchDecoded(Addr & ~uint64_t(7), R), nullptr);
    EXPECT_EQ(R, MemResult::Unmapped);
  }
  // The last mapped page is still served, and a word straddling the
  // limit fails on its unmapped half.
  EXPECT_EQ(Mem.write64(Memory::AddrLimit - 8, 5), MemResult::Ok);
  EXPECT_EQ(Mem.write64(Memory::AddrLimit - 4, 5), MemResult::Unmapped);
}

TEST(MemoryTest, MapRegionBeyondPageTableIsFatal) {
  EXPECT_DEATH(Memory().mapRegion(Memory::AddrLimit, PageSize, PermRW),
               "beyond the page table");
  EXPECT_DEATH(
      Memory().mapRegion(Memory::AddrLimit - PageSize, 2 * PageSize, PermRW),
      "beyond the page table");
  EXPECT_DEATH(Memory().mapRegion(~uint64_t(0) - 5, 16, PermRW),
               "beyond the page table");
}

TEST(MemoryTest, FastPathStoreDropsPredecodeOfExecutablePage) {
  Memory Mem;
  Mem.mapRegion(0x1000, PageSize, PermRWX);
  pokeInsn(Mem, 0x1000, insn::rri(Opcode::AddI, 1, 1, 10));
  MemResult R = MemResult::Ok;
  ASSERT_NE(Mem.fetchDecoded(0x1000, R), nullptr);
  uint64_t Misses = Mem.predecodeMissCount();
  // An aligned in-page store to an RWX page whose side array is live:
  // it must not skip the invalidation the byte loop performs.
  uint8_t Buffer[InsnSize];
  insn::rri(Opcode::AddI, 1, 1, 99).encode(Buffer);
  uint64_t Word;
  std::memcpy(&Word, Buffer, sizeof(Word));
  ASSERT_EQ(Mem.write64(0x1000, Word), MemResult::Ok);
  const Instruction *I = Mem.fetchDecoded(0x1000, R);
  ASSERT_NE(I, nullptr);
  EXPECT_EQ(I->Imm, 99);
  EXPECT_EQ(Mem.predecodeMissCount(), Misses + 1); // Re-decoded.
  // A byte store drops it as well.
  ASSERT_EQ(Mem.write8(0x1004, 7), MemResult::Ok);
  I = Mem.fetchDecoded(0x1000, R);
  ASSERT_NE(I, nullptr);
  EXPECT_EQ(I->Imm, 7);
  EXPECT_EQ(Mem.predecodeMissCount(), Misses + 2);
}

TEST(MemoryTest, WriteObserverEpochsUnderFastPathStores) {
  Memory Mem;
  Mem.mapRegion(0x1000, 2 * PageSize, PermRW);
  Mem.mapRegion(CacheBase, PageSize, PermRW);
  Mem.mapRegion(Memory::AddrLimit - PageSize, PageSize, PermRW);
  ASSERT_EQ(Mem.write64(0x1000, 0x11), MemResult::Ok);

  RecordingObserver Observer;
  Mem.setWriteObserver(&Observer, CacheBase);
  // Aligned word and byte stores: once per page per epoch, before the
  // bytes land.
  for (uint64_t Off = 0; Off < 64; Off += 8)
    ASSERT_EQ(Mem.write64(0x1000 + Off, 0x22), MemResult::Ok);
  ASSERT_EQ(Mem.write8(0x1000 + 100, 0x33), MemResult::Ok);
  ASSERT_EQ(Observer.Events.size(), 1u);
  EXPECT_EQ(Observer.Events[0].PageBase, 0x1000u);
  EXPECT_EQ(Observer.Events[0].FirstOldByte, 0x11);
  ASSERT_EQ(Mem.write8(0x1000 + PageSize, 0x44), MemResult::Ok);
  ASSERT_EQ(Observer.Events.size(), 2u);
  EXPECT_EQ(Observer.Events[1].PageBase, 0x1000u + PageSize);

  // Pages at or above the limit never report, in any epoch.
  ASSERT_EQ(Mem.write64(CacheBase, 1), MemResult::Ok);
  ASSERT_EQ(Mem.write64(Memory::AddrLimit - 8, 1), MemResult::Ok);
  EXPECT_EQ(Observer.Events.size(), 2u);

  // A new epoch re-arms every tracked page exactly once.
  Mem.resetWriteEpoch();
  ASSERT_EQ(Mem.write64(0x1008, 0x55), MemResult::Ok);
  ASSERT_EQ(Mem.write64(0x1010, 0x66), MemResult::Ok);
  ASSERT_EQ(Mem.write64(CacheBase, 2), MemResult::Ok);
  ASSERT_EQ(Observer.Events.size(), 3u);
  EXPECT_EQ(Observer.Events[2].PageBase, 0x1000u);
  EXPECT_EQ(Observer.Events[2].FirstOldByte, 0x22);

  // Re-installing the observer starts a fresh epoch too.
  Mem.setWriteObserver(&Observer, CacheBase);
  ASSERT_EQ(Mem.write8(0x1000, 0x77), MemResult::Ok);
  ASSERT_EQ(Mem.write8(0x1001, 0x78), MemResult::Ok);
  ASSERT_EQ(Observer.Events.size(), 4u);

  // Without an observer nothing reports; a later observer sees the page
  // as it is then.
  Mem.setWriteObserver(nullptr, 0);
  ASSERT_EQ(Mem.write8(0x1000, 0x88), MemResult::Ok);
  EXPECT_EQ(Observer.Events.size(), 4u);
  Mem.setWriteObserver(&Observer, CacheBase);
  ASSERT_EQ(Mem.write8(0x1000, 0x99), MemResult::Ok);
  ASSERT_EQ(Observer.Events.size(), 5u);
  EXPECT_EQ(Observer.Events[4].FirstOldByte, 0x88);
}

//===----------------------------------------------------------------------===//
// Copy-on-write forks
//===----------------------------------------------------------------------===//

TEST(MemoryTest, ForkWritesStayIsolatedBothWays) {
  Memory Parent;
  Parent.mapRegion(0x1000, 2 * PageSize, PermRW);
  ASSERT_EQ(Parent.write64(0x1000, 11), MemResult::Ok);
  Parent.freeze();
  Memory Image(Parent, Memory::Image);
  Memory Fork(Image, Memory::Fork);
  MemResult R = MemResult::Ok;
  EXPECT_EQ(Fork.read64(0x1000, R), 11u);

  // Fork to parent: the fork's write privatises its page only.
  ASSERT_EQ(Fork.write64(0x1000, 22), MemResult::Ok);
  EXPECT_EQ(Parent.read64(0x1000, R), 11u);
  EXPECT_EQ(Fork.read64(0x1000, R), 22u);
  // Parent to fork, on the page the fork has not touched, through the
  // slow path (a byte-granular straddling write) and the inline one.
  ASSERT_EQ(Parent.write64(0x1000 + PageSize - 4, ~0ull), MemResult::Ok);
  ASSERT_EQ(Parent.write64(0x1000 + PageSize + 8, 33), MemResult::Ok);
  EXPECT_EQ(Fork.read64(0x1000 + PageSize - 4, R), 0u);
  EXPECT_EQ(Fork.read64(0x1000 + PageSize + 8, R), 0u);
  EXPECT_EQ(Parent.read64(0x1000 + PageSize + 8, R), 33u);

  // A later freeze shares the parent's new contents with new forks only.
  Parent.freeze();
  Memory LaterImage(Parent, Memory::Image);
  Memory Later(LaterImage, Memory::Fork);
  EXPECT_EQ(Later.read64(0x1000 + PageSize + 8, R), 33u);
  EXPECT_EQ(Fork.read64(0x1000 + PageSize + 8, R), 0u);
}

TEST(MemoryTest, ForkPermissionChangesStayIsolatedBothWays) {
  Memory Parent;
  Parent.mapRegion(0x1000, 2 * PageSize, PermRW);
  Parent.freeze();
  Memory Image(Parent, Memory::Image);
  Memory Fork(Image, Memory::Fork);

  Fork.setPerms(0x1000, PageSize, PermR);
  EXPECT_EQ(Fork.write8(0x1000, 1), MemResult::NoWrite);
  EXPECT_EQ(Parent.write8(0x1000, 1), MemResult::Ok);
  EXPECT_EQ(Parent.getPerms(0x1000), PermRW);

  Parent.mapRegion(0x1000 + PageSize, PageSize, PermR); // A remap.
  EXPECT_EQ(Parent.write8(0x1000 + PageSize, 1), MemResult::NoWrite);
  EXPECT_EQ(Fork.getPerms(0x1000 + PageSize), PermRW);
  EXPECT_EQ(Fork.write8(0x1000 + PageSize, 2), MemResult::Ok);
  MemResult R = MemResult::Ok;
  EXPECT_EQ(Parent.read8(0x1000 + PageSize, R), 0u);
}

TEST(MemoryTest, ForkPredecodeStaysIsolatedBothWays) {
  Memory Parent;
  Parent.mapRegion(0x1000, 2 * PageSize, PermRX);
  pokeInsn(Parent, 0x1000, insn::rri(Opcode::AddI, 1, 1, 5));
  pokeInsn(Parent, 0x1000 + PageSize, insn::rri(Opcode::AddI, 2, 2, 6));
  Parent.freeze();
  Memory Image(Parent, Memory::Image);
  Memory Fork(Image, Memory::Fork);
  MemResult R = MemResult::Ok;

  // The parent decodes its copy; the fork still decodes its own.
  ASSERT_NE(Parent.fetchDecoded(0x1000, R), nullptr);
  EXPECT_EQ(Parent.predecodeMissCount(), 1u);
  const Instruction *I = Fork.fetchDecoded(0x1000, R);
  ASSERT_NE(I, nullptr);
  EXPECT_EQ(I->Imm, 5);
  EXPECT_EQ(Fork.predecodeMissCount(), 1u);

  // And the reverse, on the other page.
  ASSERT_NE(Fork.fetchDecoded(0x1000 + PageSize, R), nullptr);
  EXPECT_EQ(Fork.predecodeMissCount(), 2u);
  ASSERT_NE(Parent.fetchDecoded(0x1000 + PageSize, R), nullptr);
  EXPECT_EQ(Parent.predecodeMissCount(), 2u);
}

TEST(MemoryTest, WriteToSharedCodePageInvalidatesOnlyTheWriter) {
  Memory Parent;
  Parent.mapRegion(0x1000, PageSize, PermRX);
  pokeInsn(Parent, 0x1000, insn::rri(Opcode::AddI, 1, 1, 5));
  MemResult R = MemResult::Ok;
  ASSERT_NE(Parent.fetchDecoded(0x1000, R), nullptr); // Decoded, shared.
  Parent.freeze();
  Memory Image(Parent, Memory::Image);
  Memory Writer(Image, Memory::Fork), Reader(Image, Memory::Fork);

  // Both forks start on the parent's decoded page: pure hits.
  ASSERT_NE(Writer.fetchDecoded(0x1000, R), nullptr);
  ASSERT_NE(Reader.fetchDecoded(0x1000, R), nullptr);
  EXPECT_EQ(Writer.predecodeMissCount(), 0u);
  EXPECT_EQ(Reader.predecodeMissCount(), 0u);

  pokeInsn(Writer, 0x1000, insn::rri(Opcode::AddI, 1, 1, 9));
  const Instruction *New = Writer.fetchDecoded(0x1000, R);
  ASSERT_NE(New, nullptr);
  EXPECT_EQ(New->Imm, 9);
  EXPECT_EQ(Writer.predecodeMissCount(), 1u);

  // The reader and the parent keep the shared decoded page.
  const Instruction *Old = Reader.fetchDecoded(0x1000, R);
  ASSERT_NE(Old, nullptr);
  EXPECT_EQ(Old->Imm, 5);
  EXPECT_EQ(Reader.predecodeMissCount(), 0u);
  EXPECT_EQ(Parent.fetchDecoded(0x1000, R), Old);
}

TEST(MemoryTest, SafePointTagsComeAndGoWithEveryDecode) {
  Memory Mem;
  Mem.mapRegion(0x1000, PageSize, PermRWX);
  pokeInsn(Mem, 0x1000, insn::rri(Opcode::AddI, 1, 1, 5));
  pokeInsn(Mem, 0x1008, insn::rri(Opcode::AddI, 2, 2, 6));
  pokeInsn(Mem, 0x1010, insn::i(Opcode::Digest, 3));
  SafePointTable Points;
  Points.add({0x1008, 0x10040, true});
  Points.add({0x1010, 0x10080, false}); // A marker retires nothing.
  MemResult R = MemResult::Ok;
  // Decoded before tags are on: untagged.
  ASSERT_EQ(Mem.fetchDecoded(0x1008, R)->Op, Opcode::AddI);

  // Turning tags on drops that decode; the next one tags the safe point
  // and keeps its instruction beside the slots.
  Mem.setSafePointTags(&Points);
  const Instruction *Tag = Mem.fetchDecoded(0x1008, R);
  ASSERT_NE(Tag, nullptr);
  ASSERT_EQ(Tag->Op, SafePointTag);
  EXPECT_EQ(Tag->A, 1);
  EXPECT_EQ(Mem.taggedInsn(0x1008, *Tag).Imm, 6);
  EXPECT_EQ(Mem.fetchDecoded(0x1000, R)->Op, Opcode::AddI);
  EXPECT_EQ(Mem.fetchDecoded(0x1010, R)->Op, Opcode::Digest);

  // A fork shares the frozen tagged decode until it turns tags on or off
  // itself, which drops its own copy only.
  Mem.freeze();
  Memory Image(Mem, Memory::Image);
  Memory Fork(Image, Memory::Fork);
  EXPECT_EQ(Fork.fetchDecoded(0x1008, R)->Op, SafePointTag);
  Fork.setSafePointTags(nullptr);
  EXPECT_EQ(Fork.fetchDecoded(0x1008, R)->Op, Opcode::AddI);
  EXPECT_EQ(Mem.fetchDecoded(0x1008, R)->Op, SafePointTag);

  // Turning tags off drops every tagged decode.
  Mem.setSafePointTags(nullptr);
  EXPECT_EQ(Mem.fetchDecoded(0x1008, R)->Op, Opcode::AddI);
}

TEST(MemoryTest, SafePointTagDecodesAsIllegal) {
  uint8_t Raw[InsnSize] = {static_cast<uint8_t>(SafePointTag)};
  EXPECT_FALSE(Instruction::decode(Raw).has_value());
  EXPECT_EQ(static_cast<unsigned>(SafePointTag), getNumOpcodes());
}

namespace {

/// Keeps each reported pre-image whole.
class PageImageObserver : public PageWriteObserver {
public:
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> Images;
  void onPageDirtied(uint64_t PageBase, const uint8_t *OldBytes) override {
    Images.emplace_back(PageBase,
                        std::vector<uint8_t>(OldBytes, OldBytes + PageSize));
  }
};

} // namespace

TEST(MemoryTest, ForkObserverReceivesSharedPreImage) {
  Memory Parent;
  Parent.mapRegion(0x1000, PageSize, PermRW);
  for (uint64_t Off = 0; Off < PageSize; Off += 8)
    ASSERT_EQ(Parent.write64(0x1000 + Off, Off * 3 + 1), MemResult::Ok);
  std::vector<uint8_t> Before(PageSize);
  Parent.readRaw(0x1000, Before.data(), PageSize);
  Parent.freeze();
  Memory Image(Parent, Memory::Image);

  Memory Fork(Image, Memory::Fork);
  PageImageObserver Observer;
  Fork.setWriteObserver(&Observer, CacheBase);
  ASSERT_EQ(Fork.write64(0x1008, 7), MemResult::Ok);
  ASSERT_EQ(Fork.write64(0x1010, 8), MemResult::Ok);
  ASSERT_EQ(Observer.Images.size(), 1u);
  EXPECT_EQ(Observer.Images[0].first, 0x1000u);
  EXPECT_EQ(Observer.Images[0].second, Before);

  // The rollback path writes the pre-image back; the parent never moved.
  Fork.writeRaw(0x1000, Observer.Images[0].second.data(), PageSize);
  std::vector<uint8_t> Parents(PageSize), Forks(PageSize);
  Parent.readRaw(0x1000, Parents.data(), PageSize);
  Fork.readRaw(0x1000, Forks.data(), PageSize);
  EXPECT_EQ(Parents, Before);
  EXPECT_EQ(Forks, Before);
}

TEST(MemoryTest, ImageOutlivesTheMemoryItWasTakenFrom) {
  auto Parent = std::make_unique<Memory>();
  Parent->mapRegion(0x1000, PageSize, PermRW);
  ASSERT_EQ(Parent->write64(0x1000, 44), MemResult::Ok);
  Parent->freeze();
  Memory Image(*Parent, Memory::Image);
  ASSERT_EQ(Parent->write64(0x1000, 55), MemResult::Ok); // Privatises.
  Parent.reset();
  Memory Fork(Image, Memory::Fork);
  MemResult R = MemResult::Ok;
  EXPECT_EQ(Fork.read64(0x1000, R), 44u);
  EXPECT_EQ(Fork.getPerms(0x1000), PermRW);
}

TEST(MemoryTest, ConcurrentForksWriteAndExecuteIndependently) {
  // Sums 64 stores of r5 + i: each fork starts with its own r5.
  AsmResult Asm = assembleProgram(
      ".data\nbuf: .space 512\n.code\n"
      "movi r1, buf\nmovi r2, 0\nmovi r3, 0\n"
      "loop:\nadd r4, r5, r2\nst [r1], r4\nld r6, [r1]\nadd r3, r3, r6\n"
      "addi r1, r1, 8\naddi r2, r2, 1\ncmpi r2, 64\njcc ne, loop\n"
      "out r3\nhalt\n");
  ASSERT_TRUE(Asm.succeeded()) << Asm.errorText();
  Memory Parent;
  CpuState Entry;
  loadProgram(Asm.Program, LoadMode::Native, Parent, Entry);
  MemResult R = MemResult::Ok;
  ASSERT_NE(Parent.fetchDecoded(Entry.PC, R), nullptr); // A shared decode.
  Parent.freeze();
  Memory Image(Parent, Memory::Image);

  constexpr unsigned NumThreads = 4;
  std::string Outputs[NumThreads];
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] {
      for (unsigned Round = 0; Round < 8; ++Round) {
        Memory Fork(Image, Memory::Fork);
        // The translator remaps cache pages with unchanged permissions on
        // every translation; that must leave a shared page untouched.
        Fork.mapRegion(Entry.PC, PageSize, PermRX);
        Interpreter Interp(Fork);
        Interp.state() = Entry;
        Interp.state().Regs[5] = 1000 * T;
        if (Interp.run(100000).Kind == StopKind::Halted)
          Outputs[T] = Interp.output();
      }
    });
  for (std::thread &Th : Threads)
    Th.join();
  for (unsigned T = 0; T < NumThreads; ++T)
    EXPECT_EQ(Outputs[T], std::to_string(64 * 1000 * T + 63 * 64 / 2) + "\n");
  // The frozen parent still holds the image it was frozen with.
  uint64_t DataAddr = Asm.Program.Symbols.at("buf");
  EXPECT_EQ(Parent.read64(DataAddr, R), 0u);
}

TEST(LoaderTest, NativeLayout) {
  AsmResult R = assembleProgram(".data\nv: .word 9\n.code\nmain:\nhalt\n"
                                ".entry main\n");
  ASSERT_TRUE(R.succeeded());
  Memory Mem;
  CpuState State;
  loadProgram(R.Program, LoadMode::Native, Mem, State);
  EXPECT_EQ(State.PC, CodeBase);
  EXPECT_EQ(State.Regs[RegSP], StackTop);
  EXPECT_EQ(Mem.getPerms(CodeBase), PermRX);
  EXPECT_EQ(Mem.getPerms(DataBase), PermRW);
  EXPECT_EQ(Mem.getPerms(StackTop - 8), PermRW);
  MemResult Res = MemResult::Ok;
  EXPECT_EQ(Mem.read64(DataBase, Res), 9u);
}

TEST(LoaderTest, TranslatedLayoutProtectsCode) {
  AsmResult R = assembleProgram("halt\n");
  ASSERT_TRUE(R.succeeded());
  Memory Mem;
  CpuState State;
  loadProgram(R.Program, LoadMode::Translated, Mem, State);
  // Guest code: readable, not executable, not writable — the
  // category-F detector and the self-modification trap.
  EXPECT_EQ(Mem.getPerms(CodeBase), PermR);
}

TEST(LoaderTest, ResetsCpuState) {
  AsmResult R = assembleProgram("halt\n");
  ASSERT_TRUE(R.succeeded());
  Memory Mem;
  CpuState State;
  State.Regs[3] = 999;
  State.F.ZF = true;
  loadProgram(R.Program, LoadMode::Native, Mem, State);
  EXPECT_EQ(State.Regs[3], 0u);
  EXPECT_FALSE(State.F.ZF);
}

namespace {

AsmProgram trivialProgram() {
  AsmResult R = assembleProgram(".data\nv: .word 7\n.code\nmain:\nhalt\n"
                                ".entry main\n");
  EXPECT_TRUE(R.succeeded());
  return R.Program;
}

void patchLE32(std::vector<uint8_t> &Image, size_t Offset, uint32_t Value) {
  ASSERT_LE(Offset + 4, Image.size());
  for (unsigned Byte = 0; Byte < 4; ++Byte)
    Image[Offset + Byte] = static_cast<uint8_t>(Value >> (8 * Byte));
}

void patchLE64(std::vector<uint8_t> &Image, size_t Offset, uint64_t Value) {
  ASSERT_LE(Offset + 8, Image.size());
  for (unsigned Byte = 0; Byte < 8; ++Byte)
    Image[Offset + Byte] = static_cast<uint8_t>(Value >> (8 * Byte));
}

/// Loads \p Image expecting failure; returns the error message and checks
/// that neither memory nor CPU state was touched.
std::string expectImageRejected(const std::vector<uint8_t> &Image) {
  Memory Mem;
  CpuState State;
  std::string Error;
  EXPECT_FALSE(loadProgramImage(Image.data(), Image.size(),
                                LoadMode::Native, Mem, State, Error));
  EXPECT_FALSE(Error.empty());
  EXPECT_FALSE(Mem.isMapped(CodeBase));
  EXPECT_FALSE(Mem.isMapped(DataBase));
  EXPECT_EQ(State.PC, 0u);
  return Error;
}

} // namespace

TEST(LoaderTest, ImageRoundTrip) {
  AsmProgram Program = trivialProgram();
  std::vector<uint8_t> Image = serializeProgram(Program);
  ASSERT_GE(Image.size(),
            ImageHeaderSize + 2 * ImageSectionHeaderSize);

  Memory Mem;
  CpuState State;
  std::string Error;
  ASSERT_TRUE(loadProgramImage(Image.data(), Image.size(), LoadMode::Native,
                               Mem, State, Error))
      << Error;
  EXPECT_EQ(State.PC, Program.Entry);
  EXPECT_EQ(State.Regs[RegSP], StackTop);
  MemResult R = MemResult::Ok;
  EXPECT_EQ(Mem.read64(DataBase, R), 7u);
  uint8_t FirstInsn[InsnSize];
  ASSERT_EQ(Mem.read(CodeBase, FirstInsn, InsnSize), MemResult::Ok);
  EXPECT_EQ(std::memcmp(FirstInsn, Program.Code.data(), InsnSize), 0);
}

TEST(LoaderTest, ImageTruncatedHeaderRejected) {
  std::vector<uint8_t> Image = serializeProgram(trivialProgram());
  Image.resize(ImageHeaderSize - 1);
  std::string Error = expectImageRejected(Image);
  EXPECT_NE(Error.find("truncated"), std::string::npos) << Error;
}

TEST(LoaderTest, ImageBadMagicRejected) {
  std::vector<uint8_t> Image = serializeProgram(trivialProgram());
  patchLE32(Image, 0, 0xDEADBEEF);
  std::string Error = expectImageRejected(Image);
  EXPECT_NE(Error.find("magic"), std::string::npos) << Error;
}

TEST(LoaderTest, ImageBadVersionRejected) {
  std::vector<uint8_t> Image = serializeProgram(trivialProgram());
  patchLE32(Image, 4, ImageVersion + 1);
  std::string Error = expectImageRejected(Image);
  EXPECT_NE(Error.find("version"), std::string::npos) << Error;
}

TEST(LoaderTest, ImageTruncatedSectionTableRejected) {
  std::vector<uint8_t> Image = serializeProgram(trivialProgram());
  Image.resize(ImageHeaderSize + ImageSectionHeaderSize / 2);
  std::string Error = expectImageRejected(Image);
  EXPECT_NE(Error.find("section"), std::string::npos) << Error;
}

TEST(LoaderTest, ImagePayloadPastEndRejected) {
  std::vector<uint8_t> Image = serializeProgram(trivialProgram());
  // Point the first section's payload past the end of the file.
  patchLE64(Image, ImageHeaderSize + 16, Image.size());
  std::string Error = expectImageRejected(Image);
  EXPECT_NE(Error.find("past"), std::string::npos) << Error;
}

TEST(LoaderTest, ImageSectionOutsideRegionRejected) {
  std::vector<uint8_t> Image = serializeProgram(trivialProgram());
  // Relocate the code section outside the code region.
  patchLE64(Image, ImageHeaderSize + 8, CodeBase + CodeMaxSize);
  std::string Error = expectImageRejected(Image);
  EXPECT_NE(Error.find("region"), std::string::npos) << Error;
}

TEST(LoaderTest, ImageUnknownSectionKindRejected) {
  std::vector<uint8_t> Image = serializeProgram(trivialProgram());
  patchLE32(Image, ImageHeaderSize, 7);
  std::string Error = expectImageRejected(Image);
  EXPECT_NE(Error.find("kind"), std::string::npos) << Error;
}

TEST(LoaderTest, ImageOverlappingSectionsRejected) {
  // Two data sections landing on the same guest page.
  AsmProgram Program = trivialProgram();
  std::vector<uint8_t> Image = serializeProgram(Program);
  uint32_t NumSections = 0;
  std::memcpy(&NumSections, Image.data() + 16, sizeof(NumSections));
  ASSERT_EQ(NumSections, 2u);
  // Duplicate the data section header (the second one) verbatim: same
  // LoadAddr, same payload — a page-granular overlap.
  std::vector<uint8_t> DataHeader(
      Image.begin() + ImageHeaderSize + ImageSectionHeaderSize,
      Image.begin() + ImageHeaderSize + 2 * ImageSectionHeaderSize);
  std::vector<uint8_t> Rebuilt;
  Rebuilt.insert(Rebuilt.end(), Image.begin(),
                 Image.begin() + ImageHeaderSize +
                     2 * ImageSectionHeaderSize);
  Rebuilt.insert(Rebuilt.end(), DataHeader.begin(), DataHeader.end());
  Rebuilt.insert(Rebuilt.end(),
                 Image.begin() + ImageHeaderSize + 2 * ImageSectionHeaderSize,
                 Image.end());
  patchLE32(Rebuilt, 16, 3);
  // Payload offsets moved by one section header; fix all three.
  for (unsigned Section = 0; Section < 3; ++Section) {
    size_t HeaderOff = ImageHeaderSize + Section * ImageSectionHeaderSize;
    uint64_t FileOffset = 0;
    std::memcpy(&FileOffset, Rebuilt.data() + HeaderOff + 16,
                sizeof(FileOffset));
    patchLE64(Rebuilt, HeaderOff + 16, FileOffset + ImageSectionHeaderSize);
  }
  std::string Error = expectImageRejected(Rebuilt);
  EXPECT_NE(Error.find("overlap"), std::string::npos) << Error;
}

TEST(LoaderTest, ImageEntryOutsideCodeRejected) {
  std::vector<uint8_t> Image = serializeProgram(trivialProgram());
  patchLE64(Image, 8, CodeBase - InsnSize);
  std::string Error = expectImageRejected(Image);
  EXPECT_NE(Error.find("entry"), std::string::npos) << Error;
}

TEST(LoaderTest, CheckedLoadRejectsMisalignedCode) {
  AsmProgram Program = trivialProgram();
  Program.Code.resize(Program.Code.size() + 3); // No longer insn-granular.
  Memory Mem;
  CpuState State;
  std::string Error;
  EXPECT_FALSE(
      loadProgramChecked(Program, LoadMode::Native, Mem, State, Error));
  EXPECT_FALSE(Error.empty());
  EXPECT_FALSE(Mem.isMapped(CodeBase));
}

TEST(LoaderTest, CheckedLoadRejectsMisalignedEntry) {
  AsmProgram Program = trivialProgram();
  Program.Entry = CodeBase + 3;
  Memory Mem;
  CpuState State;
  std::string Error;
  EXPECT_FALSE(
      loadProgramChecked(Program, LoadMode::Native, Mem, State, Error));
  EXPECT_NE(Error.find("entry"), std::string::npos) << Error;
}

TEST(LoaderTest, CheckedLoadRejectsOversizedCode) {
  AsmProgram Program = trivialProgram();
  Program.Code.resize(CodeMaxSize + InsnSize);
  Memory Mem;
  CpuState State;
  std::string Error;
  EXPECT_FALSE(
      loadProgramChecked(Program, LoadMode::Native, Mem, State, Error));
  EXPECT_FALSE(Error.empty());
}

TEST(LoaderTest, ValidateProgramAcceptsWellFormed) {
  AsmProgram Program = trivialProgram();
  std::string Error;
  EXPECT_TRUE(validateProgram(Program, Error)) << Error;
}
