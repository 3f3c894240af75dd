//===- BlockProfile.cpp - Per-block execution attribution -----------------------===//

#include "telemetry/BlockProfile.h"

#include "support/Format.h"
#include "support/Table.h"
#include "telemetry/Metrics.h"

#include <algorithm>

using namespace cfed;
using namespace cfed::telemetry;

BlockProfile::BlockProfile(const BlockProfile &Other)
    : NumSlots(Other.NumSlots), HotThreshold(Other.HotThreshold),
      Blocks(Other.Blocks), EdgeSlots(Other.EdgeSlots) {
  for (const auto &C : Other.Chunks)
    Chunks.push_back(std::make_unique<Chunk>(*C));
}

uint32_t BlockProfile::allocSlot() {
  if (NumSlots % ChunkSize == 0)
    Chunks.push_back(std::make_unique<Chunk>());
  return NumSlots++;
}

uint32_t BlockProfile::blockSlot(uint64_t GuestAddr) {
  auto [It, Inserted] = Blocks.try_emplace(GuestAddr);
  if (Inserted)
    It->second.Slot = allocSlot();
  return It->second.Slot;
}

uint32_t BlockProfile::edgeSlot(uint64_t From, uint64_t To) {
  auto [It, Inserted] = EdgeSlots.try_emplace({From, To});
  if (Inserted)
    It->second = allocSlot();
  return It->second;
}

void BlockProfile::noteBlock(uint64_t GuestAddr, uint64_t GuestEnd,
                             uint64_t GuestInsns, uint64_t InstrBytes,
                             uint64_t CacheBytes) {
  auto [It, Inserted] = Blocks.try_emplace(GuestAddr);
  BlockInfo &Info = It->second;
  if (Inserted)
    Info.Slot = allocSlot();
  Info.GuestEnd = GuestEnd;
  Info.GuestInsns = GuestInsns;
  Info.InstrBytes = InstrBytes;
  Info.CacheBytes = CacheBytes;
}

uint64_t BlockProfile::slotCount(uint32_t Slot) const {
  if (Slot >= NumSlots)
    return 0;
  return Chunks[Slot / ChunkSize]->Counts[Slot % ChunkSize];
}

uint64_t BlockProfile::execCount(uint64_t GuestAddr) const {
  auto It = Blocks.find(GuestAddr);
  return It == Blocks.end() ? 0 : slotCount(It->second.Slot);
}

uint64_t BlockProfile::edgeCount(uint64_t From, uint64_t To) const {
  auto It = EdgeSlots.find({From, To});
  return It == EdgeSlots.end() ? 0 : slotCount(It->second);
}

bool BlockProfile::hasExecutions() const {
  for (const auto &[Addr, Info] : Blocks)
    if (slotCount(Info.Slot) > 0)
      return true;
  return false;
}

uint64_t BlockProfile::totalBlockExecs() const {
  uint64_t Total = 0;
  for (const auto &[Addr, Info] : Blocks)
    Total += slotCount(Info.Slot);
  return Total;
}

uint64_t BlockProfile::totalDynInsns() const {
  uint64_t Total = 0;
  for (const auto &[Addr, Info] : Blocks)
    Total += slotCount(Info.Slot) * Info.GuestInsns;
  return Total;
}

std::vector<BlockProfile::BlockStats>
BlockProfile::topBlocks(size_t N) const {
  std::vector<BlockStats> All;
  All.reserve(Blocks.size());
  for (const auto &[Addr, Info] : Blocks) {
    BlockStats S;
    S.GuestAddr = Addr;
    S.GuestEnd = Info.GuestEnd;
    S.Execs = slotCount(Info.Slot);
    S.GuestInsns = Info.GuestInsns;
    S.InstrBytes = Info.InstrBytes;
    S.CacheBytes = Info.CacheBytes;
    All.push_back(S);
  }
  std::sort(All.begin(), All.end(),
            [](const BlockStats &A, const BlockStats &B) {
              if (A.Execs != B.Execs)
                return A.Execs > B.Execs;
              return A.GuestAddr < B.GuestAddr;
            });
  if (All.size() > N)
    All.resize(N);
  return All;
}

std::vector<BlockProfile::EdgeStats> BlockProfile::topEdges(size_t N) const {
  std::vector<EdgeStats> All;
  All.reserve(EdgeSlots.size());
  for (const auto &[Key, Slot] : EdgeSlots)
    All.push_back({Key.first, Key.second, slotCount(Slot)});
  std::sort(All.begin(), All.end(),
            [](const EdgeStats &A, const EdgeStats &B) {
              if (A.Count != B.Count)
                return A.Count > B.Count;
              return std::tie(A.From, A.To) < std::tie(B.From, B.To);
            });
  if (All.size() > N)
    All.resize(N);
  return All;
}

std::string BlockProfile::renderReport(size_t TopN) const {
  uint64_t DynTotal = totalDynInsns();
  std::string Out = formatString(
      "hot blocks (top %zu of %zu):\n", std::min(TopN, Blocks.size()),
      Blocks.size());

  Table BlockTable;
  BlockTable.setHeader({"guest range", "execs", "insns", "dyn insns",
                        "%dyn", "instr bytes", "cache bytes"});
  for (const BlockStats &S : topBlocks(TopN)) {
    double Share =
        DynTotal ? 100.0 * double(S.dynInsns()) / double(DynTotal) : 0.0;
    BlockTable.addRow(
        {formatString("0x%llx..0x%llx",
                      static_cast<unsigned long long>(S.GuestAddr),
                      static_cast<unsigned long long>(S.GuestEnd)),
         std::to_string(S.Execs), std::to_string(S.GuestInsns),
         std::to_string(S.dynInsns()), formatString("%.2f%%", Share),
         std::to_string(S.InstrBytes), std::to_string(S.CacheBytes)});
  }
  Out += BlockTable.render();

  if (!EdgeSlots.empty()) {
    Out += formatString("hot edges (top %zu of %zu):\n",
                        std::min(TopN, EdgeSlots.size()), EdgeSlots.size());
    Table EdgeTable;
    EdgeTable.setHeader({"from", "to", "taken"});
    for (const EdgeStats &E : topEdges(TopN))
      EdgeTable.addRow(
          {formatString("0x%llx", static_cast<unsigned long long>(E.From)),
           formatString("0x%llx", static_cast<unsigned long long>(E.To)),
           std::to_string(E.Count)});
    Out += EdgeTable.render();
  }

  Out += formatString(
      "totals: %llu block executions across %zu blocks, %llu dynamic "
      "guest insns\n",
      static_cast<unsigned long long>(totalBlockExecs()), Blocks.size(),
      static_cast<unsigned long long>(DynTotal));
  return Out;
}

void BlockProfile::publishTo(MetricsRegistry &Registry) const {
  Registry.gauge("blockprofile.blocks")
      .set(static_cast<double>(Blocks.size()));
  Registry.gauge("blockprofile.edges")
      .set(static_cast<double>(EdgeSlots.size()));
  Registry.gauge("blockprofile.execs")
      .set(static_cast<double>(totalBlockExecs()));
  Registry.gauge("blockprofile.dyn_insns")
      .set(static_cast<double>(totalDynInsns()));
}

void BlockProfile::reset() {
  for (std::unique_ptr<Chunk> &C : Chunks)
    *C = Chunk{};
}
