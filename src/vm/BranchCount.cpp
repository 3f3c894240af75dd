//===- BranchCount.cpp - Branch counts and instants, hook-free ----------------===//

#include "vm/BranchCount.h"

#include "support/Diagnostics.h"

#include <algorithm>

using namespace cfed;

void BranchCounter::grow(uint64_t PC) {
  uint64_t Offset = PC - Base;
  if (Offset % InsnSize != 0 || Offset >= Span)
    reportFatalErrorf("branch at 0x%llx outside the counted code span",
                      static_cast<unsigned long long>(PC));
  uint64_t Slot = Offset / InsnSize;
  Slots.resize(std::min(std::max<uint64_t>(std::bit_ceil(Slot + 1), 1024),
                        Span / InsnSize));
  ++Slots[Slot];
}

void BranchCounter::append(uint64_t InsnsBefore) {
  Index.push_back({InsnsBefore, Any});
  if (Index.size() < IndexCap)
    return;
  for (size_t I = 0; 2 * I < Index.size(); ++I)
    Index[I] = Index[2 * I];
  Index.resize((Index.size() + 1) / 2);
  Stride *= 2;
}

std::vector<BranchCounter::Site> BranchCounter::sites() const {
  std::vector<Site> Out;
  for (uint64_t Slot = 0; Slot < Slots.size(); ++Slot)
    if (Slots[Slot])
      Out.push_back({Base + Slot * InsnSize, Slots[Slot]});
  return Out;
}
