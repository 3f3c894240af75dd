//===- Memory.cpp - Paged guest memory with permissions --------------------===//

#include "vm/Memory.h"

#include "support/Diagnostics.h"
#include "support/Format.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace cfed;

Memory::Memory() : Table(std::make_unique<Page *[]>(NumTablePages)) {
  // Room for a loaded program's data, stack and a few MiB of code cache,
  // reserved before any page is allocated. A list that reallocated as it
  // grew among the pages left glibc free to trim the heap when the
  // Memory died, so the next Memory faulted its ~1300 zero-filled pages
  // in afresh (measured: ~770 page faults per instance instead of none).
  Mapped.reserve(4096);
}

Memory::Memory(const Memory &Live, ImageTag)
    : Mapped(Live.Mapped), Store(Live.Store) {
  ImagePages.reserve(Mapped.size());
  for (uint32_t Index : Mapped) {
    assert(Live.Table[Index]->Shared && "imaging an unfrozen Memory");
    ImagePages.push_back(Live.Table[Index]);
  }
}

Memory::Memory(const Memory &Image, ForkTag) : Memory() {
  assert(!Image.Table && "forking a Memory that is not an image");
  Mapped = Image.Mapped;
  Store = Image.Store;
  for (size_t I = 0; I < Mapped.size(); ++I)
    Table[Mapped[I]] = Image.ImagePages[I];
}

Memory::~Memory() {
  if (Table) // An image's pages are all shared.
    for (uint32_t Index : Mapped)
      if (!Table[Index]->Shared)
        delete Table[Index];
}

bool Memory::sameContents(const Memory &Image) const {
  assert(!Image.Table && "comparing with a Memory that is not an image");
  if (Mapped != Image.Mapped)
    return false;
  for (size_t I = 0; I < Mapped.size(); ++I) {
    const Page *Mine = Table[Mapped[I]], *Theirs = Image.ImagePages[I];
    if (Mine != Theirs &&
        (Mine->Perms != Theirs->Perms ||
         std::memcmp(Mine->Bytes, Theirs->Bytes, PageSize) != 0))
      return false;
  }
  return true;
}

void Memory::freeze() {
  std::shared_ptr<PageStore> Frozen;
  for (uint32_t Index : Mapped) {
    Page *P = Table[Index];
    if (P->Shared)
      continue;
    if (!Frozen) {
      Frozen = std::make_shared<PageStore>();
      Frozen->Parent = std::move(Store);
    }
    P->Shared = true;
    P->DirtyEpoch = 0;
    Frozen->Pages.emplace_back(P);
  }
  if (Frozen)
    Store = std::move(Frozen);
}

Memory::Page *Memory::privatise(uint64_t Index, bool KeepDecoded) const {
  const Page *Shared = Table[Index];
  assert(Shared->Shared && "privatising a private page");
  Page *Copy = new Page;
  std::memcpy(Copy->Bytes, Shared->Bytes, PageSize);
  Copy->Perms = Shared->Perms;
  if (KeepDecoded && Shared->Decoded)
    Copy->Decoded = std::make_unique<DecodedPage>(*Shared->Decoded);
  Table[Index] = Copy;
  return Copy;
}

Memory::Page *Memory::prepareWrite(uint64_t PageBase) const {
  Page *P = Table[PageBase / PageSize];
  if (P->Shared)
    P = privatise(PageBase / PageSize, /*KeepDecoded=*/false);
  if (WriteObserver && PageBase < WriteObserverLimit)
    WriteObserver->onPageDirtied(PageBase, P->Bytes);
  P->DirtyEpoch = WriteEpoch;
  return P;
}

void Memory::mapRegion(uint64_t Base, uint64_t Size, uint8_t Perms) {
  if (Base >= AddrLimit || Size > AddrLimit - Base)
    reportFatalErrorf("mapRegion [0x%llx, +0x%llx) beyond the page table",
                      static_cast<unsigned long long>(Base),
                      static_cast<unsigned long long>(Size));
  uint64_t First = Base / PageSize;
  uint64_t Last = (Base + Size + PageSize - 1) / PageSize;
  for (uint64_t Index = First; Index < Last; ++Index) {
    Page *&Slot = Table[Index];
    if (!Slot) {
      Slot = new Page();
      Mapped.push_back(static_cast<uint32_t>(Index));
    } else if (Slot->Perms == Perms) {
      continue; // Shared pages are never written, not even unchanged.
    } else if (Slot->Shared) {
      privatise(Index, /*KeepDecoded=*/true);
    }
    Slot->Perms = Perms;
  }
}

void Memory::setPerms(uint64_t Base, uint64_t Size, uint8_t Perms) {
  uint64_t First = Base / PageSize;
  uint64_t Last = (Base + Size + PageSize - 1) / PageSize;
  for (uint64_t Index = First; Index < Last; ++Index) {
    Page *P = pageAt(Index * PageSize);
    if (!P)
      reportFatalErrorf("setPerms on unmapped page 0x%llx",
                        static_cast<unsigned long long>(Index * PageSize));
    if (P->Perms == Perms)
      continue;
    if (P->Shared)
      P = privatise(Index, /*KeepDecoded=*/true);
    P->Perms = Perms;
  }
}

uint8_t Memory::getPerms(uint64_t Addr) const {
  const Page *P = pageAt(Addr);
  return P ? P->Perms : static_cast<uint8_t>(PermNone);
}

bool Memory::isMapped(uint64_t Addr) const {
  return pageAt(Addr) != nullptr;
}

MemResult Memory::access(uint64_t Addr, void *Out, const void *In,
                         uint64_t Size, AccessKind Kind) const {
  uint64_t Done = 0;
  while (Done < Size) {
    uint64_t Current = Addr + Done;
    uint64_t PageOffset = Current % PageSize;
    Page *P = pageAt(Current);
    if (!P)
      return MemResult::Unmapped;
    switch (Kind) {
    case AccessKind::Read:
      if (!(P->Perms & PermR))
        return MemResult::NoRead;
      break;
    case AccessKind::Write:
      if (!(P->Perms & PermW))
        return MemResult::NoWrite;
      break;
    case AccessKind::Fetch:
      if (!(P->Perms & PermX))
        return MemResult::NoExec;
      break;
    case AccessKind::Raw:
      break;
    }
    uint64_t Chunk = std::min(Size - Done, PageSize - PageOffset);
    if (In) {
      if (writeSlowDue(P))
        P = prepareWrite(Current - PageOffset);
      std::memcpy(P->Bytes + PageOffset,
                  static_cast<const uint8_t *>(In) + Done, Chunk);
      // Keep the predecode side array coherent with the bytes; writes to
      // non-executable pages reset a null pointer, which is free.
      P->Decoded.reset();
    } else
      std::memcpy(static_cast<uint8_t *>(Out) + Done, P->Bytes + PageOffset,
                  Chunk);
    Done += Chunk;
  }
  return MemResult::Ok;
}

MemResult Memory::read(uint64_t Addr, void *Out, uint64_t Size) const {
  return access(Addr, Out, nullptr, Size, AccessKind::Read);
}

MemResult Memory::write(uint64_t Addr, const void *In, uint64_t Size) {
  return access(Addr, nullptr, In, Size, AccessKind::Write);
}

MemResult Memory::fetch(uint64_t Addr, void *Out, uint64_t Size) const {
  return access(Addr, Out, nullptr, Size, AccessKind::Fetch);
}

const Instruction *Memory::fetchDecodedSlow(uint64_t Addr,
                                            MemResult &Result) {
  if (Addr % InsnSize != 0) {
    // Misaligned PCs (wild landings) straddle slots and possibly pages:
    // byte-level slow path.
    ++PredecodeSlow;
    Result = MemResult::Ok;
    return nullptr;
  }
  Page *P = pageAt(Addr);
  if (!P) {
    Result = MemResult::Unmapped;
    return nullptr;
  }
  if (!(P->Perms & PermX)) {
    Result = MemResult::NoExec;
    return nullptr;
  }
  if (!P->Decoded) {
    if (P->Shared)
      P = privatise(Addr / PageSize, /*KeepDecoded=*/false);
    ++PredecodeDecodes;
    auto Decoded = std::make_unique<DecodedPage>();
    for (uint64_t Slot = 0; Slot < DecodedPage::NumSlots; ++Slot) {
      auto I = Instruction::decode(P->Bytes + Slot * InsnSize);
      if (I)
        Decoded->Insns[Slot] = *I;
      else
        Decoded->Illegal[Slot / 64] |= 1ULL << (Slot % 64);
    }
    if (SafePoints)
      tagSafePoints(*Decoded, Addr - Addr % PageSize);
    P->Decoded = std::move(Decoded);
  }
  Result = MemResult::Ok;
  uint64_t Slot = (Addr % PageSize) / InsnSize;
  if (P->Decoded->isIllegal(Slot)) {
    ++PredecodeSlow;
    return nullptr; // Slow path re-decodes and traps IllegalInsn.
  }
  ++PredecodeHits;
  return &P->Decoded->Insns[Slot];
}

void Memory::invalidatePredecode(uint64_t Base, uint64_t Size) {
  uint64_t First = Base / PageSize;
  uint64_t Last = std::min((Base + Size + PageSize - 1) / PageSize,
                           NumTablePages);
  for (uint64_t Index = First; Index < Last; ++Index) {
    Page *P = Table[Index];
    if (!P || !P->Decoded)
      continue;
    if (P->Shared)
      privatise(Index, /*KeepDecoded=*/false);
    else
      P->Decoded.reset();
  }
}

void Memory::tagSafePoints(DecodedPage &Page, uint64_t PageBase) const {
  std::span<const SafePointInfo> Points =
      SafePoints->in(PageBase, PageBase + PageSize);
  Page.Tagged.reserve(Points.size());
  for (const SafePointInfo &Point : Points) {
    assert(Point.CacheAddr % InsnSize == 0 && "misaligned safe point");
    uint64_t Slot = (Point.CacheAddr - PageBase) / InsnSize;
    // An illegal slot traps before any hook could see it, and a digest
    // marker retires nothing, so neither is ever a checkpoint instant.
    if (Page.isIllegal(Slot) || Page.Insns[Slot].Op == Opcode::Digest)
      continue;
    Page.Tagged.push_back(Page.Insns[Slot]);
    Page.Insns[Slot] =
        Instruction(SafePointTag, Point.Checked, 0, 0,
                    static_cast<int32_t>(Page.Tagged.size() - 1));
  }
}

void Memory::setSafePointTags(const SafePointTable *Points) {
  SafePoints = Points;
  for (uint32_t Index : Mapped) {
    Page *P = Table[Index];
    if (!P->Decoded)
      continue;
    if (P->Shared)
      privatise(Index, /*KeepDecoded=*/false);
    else
      P->Decoded.reset();
  }
}

void Memory::setWriteObserver(PageWriteObserver *Observer,
                              uint64_t LimitAddr) {
  WriteObserver = Observer;
  WriteObserverLimit = Observer ? LimitAddr : 0;
  ++WriteEpoch;
}

void Memory::resetWriteEpoch() { ++WriteEpoch; }

void Memory::writeRaw(uint64_t Addr, const void *In, uint64_t Size) {
  MemResult Result = access(Addr, nullptr, In, Size, AccessKind::Raw);
  if (Result != MemResult::Ok)
    reportFatalErrorf("writeRaw to unmapped address 0x%llx",
                      static_cast<unsigned long long>(Addr));
}

void Memory::readRaw(uint64_t Addr, void *Out, uint64_t Size) const {
  MemResult Result = access(Addr, Out, nullptr, Size, AccessKind::Raw);
  if (Result != MemResult::Ok)
    reportFatalErrorf("readRaw from unmapped address 0x%llx",
                      static_cast<unsigned long long>(Addr));
}
