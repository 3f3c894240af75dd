//===- Checkers.h - Concrete checking techniques ----------------*- C++ -*-===//
//
// Part of the CFED project (CGO'06 control-flow error detection repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The concrete ControlFlowChecker implementations. See Checker.h for the
/// shared contract and each class comment for the technique's algebra and
/// its known coverage gaps (which the coverage benchmark reproduces).
///
//===----------------------------------------------------------------------===//

#ifndef CFED_CFC_CHECKERS_H
#define CFED_CFC_CHECKERS_H

#include "cfc/Checker.h"

#include <map>

namespace cfed {

/// No instrumentation: the DBT-only baseline of Section 6.
class NoneChecker : public ControlFlowChecker {
public:
  Technique technique() const override { return Technique::None; }
  std::unique_ptr<ControlFlowChecker> clone() const override {
    return std::make_unique<NoneChecker>(*this);
  }
  void initState(CpuState &State, uint64_t EntryL) const override;
  void prologueImpl(std::vector<Instruction> &Out, uint64_t L,
                    bool DoCheck) const override;
  void directUpdateImpl(std::vector<Instruction> &Out, uint64_t L,
                        uint64_t Target) const override;
  void condUpdateImpl(std::vector<Instruction> &Out, uint64_t L, CondCode CC,
                      uint64_t Taken, uint64_t Fall) const override;
  void regCondUpdateImpl(std::vector<Instruction> &Out, uint64_t L,
                         Opcode BranchOp, uint8_t Reg, uint64_t Taken,
                         uint64_t Fall) const override;
  void indirectUpdateImpl(std::vector<Instruction> &Out, uint64_t L,
                          uint8_t TargetReg) const override;
};

/// The paper's Edge Control-Flow checking (Section 3.1). PC' carries the
/// next block's signature on edges and zero inside blocks. Covers branch
/// error categories A-E; the inserted check branch itself is an
/// unprotected fault site (executing while PC' == 0, which is every
/// block's in-body value) — the gap RCF closes.
class EdgCfChecker : public ControlFlowChecker {
public:
  explicit EdgCfChecker(UpdateFlavor Flavor) : Flavor(Flavor) {}
  Technique technique() const override { return Technique::EdgCf; }
  std::unique_ptr<ControlFlowChecker> clone() const override {
    return std::make_unique<EdgCfChecker>(*this);
  }
  void initState(CpuState &State, uint64_t EntryL) const override;
  void prologueImpl(std::vector<Instruction> &Out, uint64_t L,
                    bool DoCheck) const override;
  void directUpdateImpl(std::vector<Instruction> &Out, uint64_t L,
                        uint64_t Target) const override;
  void condUpdateImpl(std::vector<Instruction> &Out, uint64_t L, CondCode CC,
                      uint64_t Taken, uint64_t Fall) const override;
  void regCondUpdateImpl(std::vector<Instruction> &Out, uint64_t L,
                         Opcode BranchOp, uint8_t Reg, uint64_t Taken,
                         uint64_t Fall) const override;
  void indirectUpdateImpl(std::vector<Instruction> &Out, uint64_t L,
                          uint8_t TargetReg) const override;

private:
  UpdateFlavor Flavor;
};

/// The paper's Region-based Control-Flow checking (Section 3.2). Like
/// EdgCF, but each block's body is its own region (signature L+1 instead
/// of the shared 0), and the check runs before the region transition, so
/// every instrumentation-inserted branch executes under a block-unique
/// signature. This protects the inserted check/update branches, making
/// RCF the only technique that is safe with Jcc-flavor updates
/// (Figure 14's shading).
class RcfChecker : public ControlFlowChecker {
public:
  explicit RcfChecker(UpdateFlavor Flavor) : Flavor(Flavor) {}
  Technique technique() const override { return Technique::Rcf; }
  std::unique_ptr<ControlFlowChecker> clone() const override {
    return std::make_unique<RcfChecker>(*this);
  }
  void initState(CpuState &State, uint64_t EntryL) const override;
  void prologueImpl(std::vector<Instruction> &Out, uint64_t L,
                    bool DoCheck) const override;
  void directUpdateImpl(std::vector<Instruction> &Out, uint64_t L,
                        uint64_t Target) const override;
  void condUpdateImpl(std::vector<Instruction> &Out, uint64_t L, CondCode CC,
                      uint64_t Taken, uint64_t Fall) const override;
  void regCondUpdateImpl(std::vector<Instruction> &Out, uint64_t L,
                         Opcode BranchOp, uint8_t Reg, uint64_t Taken,
                         uint64_t Fall) const override;
  void indirectUpdateImpl(std::vector<Instruction> &Out, uint64_t L,
                          uint8_t TargetReg) const override;

private:
  /// The body-region signature of the block with entry signature \p L.
  /// Block addresses are 8-aligned, so L+1 collides with no edge
  /// signature and no other block's body signature.
  static int64_t bodySig(uint64_t L) { return static_cast<int64_t>(L) + 1; }

  UpdateFlavor Flavor;
};

/// ECF (Reis et al.): PC' holds the current block's signature; a run-time
/// adjusting signature register RTS carries the delta to the next block,
/// set conditionally at exits (Figure 4). Covers A, B, D, E; misses C
/// (jumps into the middle of the current block re-join a consistent
/// signature stream).
class EcfChecker : public ControlFlowChecker {
public:
  explicit EcfChecker(UpdateFlavor Flavor) : Flavor(Flavor) {}
  Technique technique() const override { return Technique::Ecf; }
  std::unique_ptr<ControlFlowChecker> clone() const override {
    return std::make_unique<EcfChecker>(*this);
  }
  void initState(CpuState &State, uint64_t EntryL) const override;
  void prologueImpl(std::vector<Instruction> &Out, uint64_t L,
                    bool DoCheck) const override;
  void directUpdateImpl(std::vector<Instruction> &Out, uint64_t L,
                        uint64_t Target) const override;
  void condUpdateImpl(std::vector<Instruction> &Out, uint64_t L, CondCode CC,
                      uint64_t Taken, uint64_t Fall) const override;
  void regCondUpdateImpl(std::vector<Instruction> &Out, uint64_t L,
                         Opcode BranchOp, uint8_t Reg, uint64_t Taken,
                         uint64_t Fall) const override;
  void indirectUpdateImpl(std::vector<Instruction> &Out, uint64_t L,
                          uint8_t TargetReg) const override;

private:
  UpdateFlavor Flavor;
};

/// CFCSS (Oh, Shirvani, McCluskey): compile-time xor signatures in G
/// (register RTS) with differences d folded in at block entries, plus a
/// run-time adjusting register D (register PCP) for branch-fan-in nodes.
/// Needs the whole-program CFG, so it only runs under eager translation
/// (the paper excludes it from its on-demand DBT for the same reason).
/// Misses category A (successor updates cannot see the branch direction)
/// and category C (no intra-block state), and aliases all return sites of
/// a function onto one signature, missing some D/E errors.
class CfcssChecker : public ControlFlowChecker {
public:
  Technique technique() const override { return Technique::Cfcss; }
  std::unique_ptr<ControlFlowChecker> clone() const override {
    return std::make_unique<CfcssChecker>(*this);
  }
  bool requiresWholeProgramCfg() const override { return true; }
  bool prepare(const Cfg &Graph) override;
  void initState(CpuState &State, uint64_t EntryL) const override;
  /// A forged return from \p RetBlock to \p Target passes CFCSS only when
  /// G = s_RetBlock xor d_Target (xor D at fan-in targets) lands on
  /// s_Target — in practice only the aliased return sites of the same
  /// function, the D/E gap the class comment describes.
  bool acceptsForgedReturn(uint64_t RetBlock, uint64_t Target) const override;
  void prologueImpl(std::vector<Instruction> &Out, uint64_t L,
                    bool DoCheck) const override;
  void directUpdateImpl(std::vector<Instruction> &Out, uint64_t L,
                        uint64_t Target) const override;
  void condUpdateImpl(std::vector<Instruction> &Out, uint64_t L, CondCode CC,
                      uint64_t Taken, uint64_t Fall) const override;
  void regCondUpdateImpl(std::vector<Instruction> &Out, uint64_t L,
                         Opcode BranchOp, uint8_t Reg, uint64_t Taken,
                         uint64_t Fall) const override;
  void indirectUpdateImpl(std::vector<Instruction> &Out, uint64_t L,
                          uint8_t TargetReg) const override;

private:
  struct BlockInfo {
    uint32_t Sig = 0;      ///< s_i: compile-time signature.
    uint32_t Diff = 0;     ///< d_i = s_i xor s_basePred.
    bool FanIn = false;    ///< Entry folds in the D register.
    bool HasEntry = false; ///< Block has predecessors at all.
    /// D values each exit must establish (0 = no update needed).
    uint32_t DTaken = 0, DFall = 0, DRet = 0;
    bool NeedDTaken = false, NeedDFall = false, NeedDRet = false;
    /// Guest addresses of the exits, to map directUpdateImpl targets back
    /// to the taken/fall slots.
    uint64_t TakenAddr = 0, FallAddr = 0;
  };

  const BlockInfo &info(uint64_t L) const;
  void emitDPair(std::vector<Instruction> &Out, const BlockInfo &BI,
                 Opcode BranchOp, uint8_t Reg, CondCode CC) const;

  std::map<uint64_t, BlockInfo> Infos;
  uint32_t EntrySig = 0;
};

/// ECCA (Alkhalifa et al.): each block gets an odd prime BID; the entry
/// assertion id = BID / (!(id mod BID) * (id mod 2)) traps with a
/// divide-by-zero on a control-flow error, and the exit sets
/// id = NEXT + (id - BID) where NEXT is the product of the successors'
/// BIDs. Needs the whole-program CFG (eager mode only). Misses category A
/// (NEXT covers both directions) and category C. The check is the
/// expensive div the paper cites when motivating RCF.
class EccaChecker : public ControlFlowChecker {
public:
  Technique technique() const override { return Technique::Ecca; }
  std::unique_ptr<ControlFlowChecker> clone() const override {
    return std::make_unique<EccaChecker>(*this);
  }
  bool requiresWholeProgramCfg() const override { return true; }
  bool prepare(const Cfg &Graph) override;
  void initState(CpuState &State, uint64_t EntryL) const override;
  /// A forged return from \p RetBlock to \p Target passes ECCA only when
  /// BID_Target divides the id the return established (NEXT_RetBlock) —
  /// i.e. only the other return sites folded into the same NEXT product.
  bool acceptsForgedReturn(uint64_t RetBlock, uint64_t Target) const override;
  void prologueImpl(std::vector<Instruction> &Out, uint64_t L,
                    bool DoCheck) const override;
  void directUpdateImpl(std::vector<Instruction> &Out, uint64_t L,
                        uint64_t Target) const override;
  void condUpdateImpl(std::vector<Instruction> &Out, uint64_t L, CondCode CC,
                      uint64_t Taken, uint64_t Fall) const override;
  void regCondUpdateImpl(std::vector<Instruction> &Out, uint64_t L,
                         Opcode BranchOp, uint8_t Reg, uint64_t Taken,
                         uint64_t Fall) const override;
  void indirectUpdateImpl(std::vector<Instruction> &Out, uint64_t L,
                          uint8_t TargetReg) const override;

private:
  struct BlockInfo {
    int64_t Bid = 0;  ///< The block's odd prime.
    int64_t Next = 0; ///< Product of successor BIDs (0 = no successors).
  };

  const BlockInfo &info(uint64_t L) const;
  void emitSet(std::vector<Instruction> &Out, const BlockInfo &BI) const;

  std::map<uint64_t, BlockInfo> Infos;
  int64_t EntryBid = 0;
};

} // namespace cfed

#endif // CFED_CFC_CHECKERS_H
