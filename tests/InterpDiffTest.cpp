//===- InterpDiffTest.cpp - Hook-free vs hooked interpreter loop ----------===//
//
// Interpreter::run executes a hook-free instantiation of its loop unless
// a per-instruction hook is installed, and only the hook-free one fuses
// runs of check code into one dispatch (DESIGN.md §6). These tests hold
// the two instantiations to the same observable behaviour: stop, CPU
// state, retired instructions, cycles, output and predecode hit/miss
// counts. A pass-through PreInsnHook forces the hooked loop without
// changing anything else.
//
// A bound BranchCounter selects a third instantiation, the counting
// hook-free loop. It is held to the hooked loop under a FaultHook that
// counts the same branches and keeps the same index of their instants,
// written independently of BranchCounter.
//
//===----------------------------------------------------------------------===//

#include "asm/Assembler.h"
#include "cfc/Checker.h"
#include "dbt/Dbt.h"
#include "telemetry/BlockProfile.h"
#include "telemetry/Provenance.h"
#include "vm/BranchCount.h"
#include "vm/Interp.h"
#include "vm/Layout.h"
#include "vm/Loader.h"
#include "vm/SafePoints.h"
#include "workloads/Workloads.h"

#include <array>
#include <cstring>
#include <gtest/gtest.h>
#include <map>
#include <optional>

using namespace cfed;

namespace {

class PassThroughHook : public PreInsnHook {
public:
  void onInsn(uint64_t, const Instruction &, CpuState &) override {}
};

struct RunResult {
  StopInfo Stop;
  CpuState State;
  uint64_t Insns = 0;
  uint64_t Cycles = 0;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Fused = 0;
  std::string Output;
  /// Every BlockProfile slot count, when a profile was attached.
  std::vector<uint64_t> ProfileCounts;
  /// The digest records, when a recorder was attached.
  std::vector<telemetry::DigestRecord> Digests;
  /// Branch counts and index, for a counted run (runCounted).
  std::vector<BranchCounter::Site> Sites;
  std::vector<BranchCounter::IndexEntry> Index;
  uint64_t Stride = 0;
  /// Every safe point the hook saw: address, checked bit, insns, cycles.
  std::vector<std::array<uint64_t, 4>> SafePoints;
};

RunResult finish(const Memory &Mem, const Interpreter &Interp,
                 StopInfo Stop) {
  RunResult R;
  R.Stop = Stop;
  R.State = Interp.state();
  R.Insns = Interp.instructionCount();
  R.Cycles = Interp.cycleCount();
  R.Hits = Mem.predecodeHitCount();
  R.Misses = Mem.predecodeMissCount();
  R.Fused = Interp.fusedInsnCount();
  R.Output = Interp.output();
  return R;
}

RunResult runNative(const AsmProgram &Program, bool Hooked,
                    uint64_t MaxInsns) {
  Memory Mem;
  Interpreter Interp(Mem);
  PassThroughHook Hook;
  if (Hooked)
    Interp.setPreInsnHook(&Hook);
  loadProgram(Program, LoadMode::Native, Mem, Interp.state());
  return finish(Mem, Interp, Interp.run(MaxInsns));
}

/// \p Observed attaches a BlockProfile and a (marker-mode) DigestRecorder,
/// so the translator plants Prof and Digest instructions.
RunResult runTranslated(const AsmProgram &Program, const DbtConfig &Config,
                        bool Hooked, uint64_t MaxInsns,
                        bool Observed = false) {
  Memory Mem;
  Interpreter Interp(Mem);
  PassThroughHook Hook;
  if (Hooked)
    Interp.setPreInsnHook(&Hook);
  Dbt Translator(Mem, Config);
  telemetry::BlockProfile Profile;
  telemetry::DigestRecorder Digests;
  if (Observed) {
    Translator.setBlockProfile(&Profile);
    Translator.setDigestRecorder(&Digests);
  }
  EXPECT_TRUE(Translator.load(Program, Interp.state()))
      << Translator.loadError();
  RunResult R = finish(Mem, Interp, Translator.run(Interp, MaxInsns));
  if (Observed) {
    size_t Slots = Profile.numBlocks() + Profile.numEdges();
    for (uint32_t Slot = 0; Slot < Slots; ++Slot)
      R.ProfileCounts.push_back(Profile.slotCount(Slot));
    R.Digests = Digests.takeRecords();
  }
  return R;
}

/// What the counting loop must note, seen from the hooked loop: as an
/// installed FaultHook it is offered every offset branch before it
/// executes, with the branch already counted in instructionCount().
class CountingReference : public FaultHook {
public:
  explicit CountingReference(const Interpreter &Interp) : Interp(Interp) {}

  std::map<uint64_t, BranchCounter::Site> PerSite;
  std::vector<BranchCounter::IndexEntry> Index;
  uint64_t Stride = 1;

  bool apply(uint64_t InsnAddr, Instruction &, Flags &, CpuState &) override {
    auto [It, First] = PerSite.try_emplace(InsnAddr);
    BranchCounter::Site &Site = It->second;
    if (First)
      Site.Addr = InsnAddr;
    ++Site.Count;
    if (Any % Stride == 0) {
      Index.push_back({Interp.instructionCount() - 1, Any});
      if (Index.size() == BranchCounter::IndexCap) {
        std::vector<BranchCounter::IndexEntry> Kept;
        for (size_t I = 0; I < Index.size(); I += 2)
          Kept.push_back(Index[I]);
        Index = std::move(Kept);
        Stride *= 2;
      }
    }
    ++Any;
    return true;
  }

private:
  const Interpreter &Interp;
  uint64_t Any = 0;
};

/// Runs \p Program natively (\p Config null) or translated, counting its
/// branches: on the counting loop, or with \p Reference on the hooked loop
/// under a CountingReference.
RunResult runCounted(const AsmProgram &Program, const DbtConfig *Config,
                     bool Reference, uint64_t MaxInsns) {
  Memory Mem;
  Interpreter Interp(Mem);
  std::optional<Dbt> Translator;
  if (Config)
    Translator.emplace(Mem, *Config);
  BranchCounter Counter(Config ? CacheBase : CodeBase,
                        Config ? CacheMaxSize : CodeMaxSize);
  CountingReference Hook(Interp);
  if (Reference)
    Interp.setFaultHook(&Hook);
  else
    Interp.setBranchCounter(&Counter);
  StopInfo Stop;
  if (Translator) {
    EXPECT_TRUE(Translator->load(Program, Interp.state()))
        << Translator->loadError();
    Stop = Translator->run(Interp, MaxInsns);
  } else {
    loadProgram(Program, LoadMode::Native, Mem, Interp.state());
    Stop = Interp.run(MaxInsns);
  }
  RunResult R = finish(Mem, Interp, Stop);
  if (Reference) {
    for (const auto &[Addr, Site] : Hook.PerSite)
      R.Sites.push_back(Site);
    R.Index = Hook.Index;
    R.Stride = Hook.Stride;
  } else {
    R.Sites = Counter.sites();
    R.Index = Counter.index();
    R.Stride = Counter.stride();
  }
  return R;
}

void expectSameRun(const RunResult &Free, const RunResult &Hooked,
                   const std::string &What) {
  SCOPED_TRACE(What);
  EXPECT_EQ(Free.Stop.Kind, Hooked.Stop.Kind);
  EXPECT_EQ(Free.Stop.Trap, Hooked.Stop.Trap);
  EXPECT_EQ(Free.Stop.TrapAddr, Hooked.Stop.TrapAddr);
  EXPECT_EQ(Free.Stop.BreakCode, Hooked.Stop.BreakCode);
  EXPECT_EQ(Free.Stop.PC, Hooked.Stop.PC);
  EXPECT_EQ(0, std::memcmp(Free.State.Regs, Hooked.State.Regs,
                           sizeof(Free.State.Regs)));
  EXPECT_EQ(0, std::memcmp(Free.State.FpRegs, Hooked.State.FpRegs,
                           sizeof(Free.State.FpRegs)));
  EXPECT_EQ(Free.State.F, Hooked.State.F);
  EXPECT_EQ(Free.State.PC, Hooked.State.PC);
  EXPECT_EQ(Free.Insns, Hooked.Insns);
  EXPECT_EQ(Free.Cycles, Hooked.Cycles);
  EXPECT_EQ(Free.Hits, Hooked.Hits);
  EXPECT_EQ(Free.Misses, Hooked.Misses);
  EXPECT_EQ(Free.Output, Hooked.Output);
  // The hooked loop never fuses.
  EXPECT_EQ(Hooked.Fused, 0u);
}

/// expectSameRun plus the branch counts and index of two counted runs.
void expectSameCounts(const RunResult &Counted, const RunResult &Reference,
                      const std::string &What) {
  expectSameRun(Counted, Reference, What);
  EXPECT_TRUE(Counted.Sites == Reference.Sites) << What;
  EXPECT_TRUE(Counted.Index == Reference.Index) << What;
  EXPECT_EQ(Counted.Stride, Reference.Stride) << What;
}

/// The seven translated configurations of the host benchmark.
struct NamedConfig {
  const char *Name;
  DbtConfig Config;
};

std::vector<NamedConfig> translatedConfigs() {
  auto Make = [](Technique Tech, DbtTier Tier) {
    DbtConfig C;
    C.Tech = Tech;
    C.Tier = Tier;
    return C;
  };
  DbtConfig Assured = Make(Technique::EdgCf, DbtTier::Base);
  Assured.ScrubInterval = 16;
  Assured.VerifyDispatchInterval = 1;
  Assured.ShadowSignature = true;
  Assured.ShadowStack = true;
  return {{"none_base", Make(Technique::None, DbtTier::Base)},
          {"ecf_base", Make(Technique::Ecf, DbtTier::Base)},
          {"edgcf_base", Make(Technique::EdgCf, DbtTier::Base)},
          {"rcf_base", Make(Technique::Rcf, DbtTier::Base)},
          {"none_opt", Make(Technique::None, DbtTier::Opt)},
          {"edgcf_opt", Make(Technique::EdgCf, DbtTier::Opt)},
          {"assured", Assured}};
}

constexpr uint64_t WorkloadBudget = 200000000ULL;

std::vector<std::string> allWorkloadNames() {
  std::vector<std::string> Names;
  for (const WorkloadInfo &Info : getWorkloadSuite())
    Names.push_back(Info.Name);
  return Names;
}

AsmProgram assembleOk(const std::string &Source) {
  AsmResult Result = assembleProgram(Source);
  EXPECT_TRUE(Result.succeeded()) << Result.errorText();
  return Result.Program;
}

} // namespace

class InterpDiffWorkloadTest : public ::testing::TestWithParam<std::string> {
};

TEST_P(InterpDiffWorkloadTest, HookFreeMatchesHookedLoop) {
  AsmProgram Program = assembleWorkload(GetParam());
  expectSameRun(runNative(Program, false, WorkloadBudget),
                runNative(Program, true, WorkloadBudget), "native");
  for (const NamedConfig &C : translatedConfigs()) {
    RunResult Free = runTranslated(Program, C.Config, false, WorkloadBudget);
    RunResult Hooked = runTranslated(Program, C.Config, true, WorkloadBudget);
    expectSameRun(Free, Hooked, C.Name);
    EXPECT_EQ(Free.Stop.Kind, StopKind::Halted) << C.Name;
    // Every checked configuration has check code to fuse.
    if (C.Config.Tech != Technique::None) {
      EXPECT_GT(Free.Fused, 0u) << C.Name;
    }
  }
}

TEST_P(InterpDiffWorkloadTest, ProfileAndDigestsMatchHookedLoop) {
  // Fused runs bump Prof slots themselves and start right after Digest
  // markers; with a profile and a digest recorder attached, the per-slot
  // counts and the digest stream must be those of the hooked loop too.
  AsmProgram Program = assembleWorkload(GetParam());
  for (const NamedConfig &C : translatedConfigs()) {
    std::string Name = C.Name;
    if (Name != "edgcf_base" && Name != "edgcf_opt" && Name != "assured")
      continue;
    RunResult Free =
        runTranslated(Program, C.Config, false, WorkloadBudget, true);
    RunResult Hooked =
        runTranslated(Program, C.Config, true, WorkloadBudget, true);
    expectSameRun(Free, Hooked, Name);
    EXPECT_GT(Free.Fused, 0u) << Name;
    EXPECT_FALSE(Free.ProfileCounts.empty()) << Name;
    EXPECT_EQ(Free.ProfileCounts, Hooked.ProfileCounts) << Name;
    EXPECT_FALSE(Free.Digests.empty()) << Name;
    EXPECT_TRUE(Free.Digests == Hooked.Digests) << Name;
  }
}

TEST_P(InterpDiffWorkloadTest, CountingLoopMatchesHookedReference) {
  // Per-slot counts, the index of branch instants and its stride after thinning, and the
  // run itself must be those of the hooked loop; and the counting loop
  // still fuses check code exactly as the plain hook-free loop does.
  AsmProgram Program = assembleWorkload(GetParam());
  for (const NamedConfig &C : translatedConfigs()) {
    RunResult Counted = runCounted(Program, &C.Config, false, WorkloadBudget);
    RunResult Reference = runCounted(Program, &C.Config, true, WorkloadBudget);
    expectSameCounts(Counted, Reference, C.Name);
    EXPECT_EQ(Counted.Stop.Kind, StopKind::Halted) << C.Name;
    EXPECT_GT(Counted.Index.size(), 1u) << C.Name;
    RunResult Free = runTranslated(Program, C.Config, false, WorkloadBudget);
    EXPECT_EQ(Counted.Fused, Free.Fused) << C.Name;
    if (C.Config.Tech != Technique::None) {
      EXPECT_GT(Counted.Fused, 0u) << C.Name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, InterpDiffWorkloadTest,
                         ::testing::ValuesIn(allWorkloadNames()),
                         [](const auto &Info) {
                           std::string Name = Info.param;
                           for (char &Ch : Name)
                             if (Ch == '.')
                               Ch = '_';
                           return Name;
                         });

namespace {

/// The translator's check shapes in native code: a check pair skipping
/// a brk, a one-slot conditional update, and the shadow cross-check.
const char *const CheckIdioms = R"(
main:
  movi r1, 3
  movi r5, 0
  movi r6, 7
loop:
  lea r5, r5, 0
  jzr r5, 8
  brk 1
  cmpi r1, 2
  lea r6, r6, 5
  jcc eq, 8
  lea r6, r6, -3
  not r7, r6
  lea r7, r7, 1
  lear r7, r6, r7
  jzr r7, 8
  brk 2
  mov r8, r6
  movi r9, 1
  addi r1, r1, -1
  jcc ne, loop
  out r6
  halt
)";

} // namespace

TEST(InterpDiffTest, EveryBudgetStopsAtTheSameInstruction) {
  // A budget may run out anywhere inside a fused run: the stop, the
  // state and every count must be those of one dispatch per
  // instruction.
  AsmProgram Program = assembleOk(CheckIdioms);
  RunResult Full = runNative(Program, false, 100000);
  ASSERT_EQ(Full.Stop.Kind, StopKind::Halted);
  ASSERT_GT(Full.Fused, 0u);
  for (uint64_t Budget = 0; Budget <= Full.Insns + 1; ++Budget) {
    expectSameRun(runNative(Program, false, Budget),
                  runNative(Program, true, Budget),
                  "budget " + std::to_string(Budget));
    // With a counter bound, too, counts and index included.
    expectSameCounts(runCounted(Program, nullptr, false, Budget),
                     runCounted(Program, nullptr, true, Budget),
                     "counted, budget " + std::to_string(Budget));
  }
}

TEST(InterpDiffTest, BudgetEndingOnLeaStopsAtItsJzr) {
  AsmProgram Program = assembleOk(CheckIdioms);
  // Three movi, then the lea of the first check pair.
  RunResult OnLea = runNative(Program, false, 4);
  EXPECT_EQ(OnLea.Stop.Kind, StopKind::InsnLimit);
  EXPECT_EQ(OnLea.Stop.PC, CodeBase + 4 * InsnSize);
  EXPECT_EQ(OnLea.State.PC, CodeBase + 4 * InsnSize);
  EXPECT_EQ(OnLea.Insns, 4u);
  // One more instruction of budget retires the jzr in the same fused
  // run, which jumps over the brk.
  RunResult OnJzr = runNative(Program, false, 5);
  EXPECT_EQ(OnJzr.Stop.Kind, StopKind::InsnLimit);
  EXPECT_EQ(OnJzr.Stop.PC, CodeBase + 6 * InsnSize);
  EXPECT_EQ(OnJzr.Insns, 5u);
  EXPECT_EQ(OnJzr.Fused, OnLea.Fused + 1);
}

TEST(InterpDiffTest, JumpOntoJzrOfPairRunsItAlone) {
  AsmProgram Program = assembleOk(R"(
main:
  movi r5, 0
  jmp target
  lea r5, r5, 1
target:
  jzr r5, 8
  brk 1
  halt
)");
  RunResult Free = runNative(Program, false, 100);
  expectSameRun(Free, runNative(Program, true, 100), "jump onto jzr");
  EXPECT_EQ(Free.Stop.Kind, StopKind::Halted);
  // movi, jmp, jzr, halt: the jzr is taken on r5 == 0 because the lea in
  // front of it never ran, fused or not.
  EXPECT_EQ(Free.Insns, 4u);
  EXPECT_EQ(Free.State.Regs[5], 0u);
}

TEST(InterpDiffTest, PairSplitAcrossPageEndDoesNotFuse) {
  // Pad so the lea is the last slot of the first code page and its jzr
  // the first slot of the next one.
  auto Source = [](bool Split) {
    std::string S = "main:\n  movi r5, 0\n";
    unsigned Pad = PageSize / InsnSize - 2 - (Split ? 0 : 1);
    for (unsigned I = 0; I < Pad; ++I)
      S += "  nop\n";
    S += "  lea r5, r5, 0\n  jzr r5, 8\n  brk 1\n  halt\n";
    return S;
  };
  AsmProgram Split = assembleOk(Source(true));
  RunResult Free = runNative(Split, false, 10000);
  expectSameRun(Free, runNative(Split, true, 10000), "split pair");
  EXPECT_EQ(Free.Stop.Kind, StopKind::Halted);
  EXPECT_EQ(Free.Fused, 0u);
  // One slot earlier the same pair shares a page and fuses.
  AsmProgram Whole = assembleOk(Source(false));
  RunResult Fused = runNative(Whole, false, 10000);
  expectSameRun(Fused, runNative(Whole, true, 10000), "whole pair");
  EXPECT_EQ(Fused.Stop.Kind, StopKind::Halted);
  EXPECT_EQ(Fused.Fused, 1u);
}

namespace {

// The shadow-signature check prologue of an EdgCF block, as the
// translator emits it, in native code. Its slots:
//   0..4   not aux, pcp'; lea aux, aux, 1; lear aux, pcp, aux; jzr aux; brk 0x5EC
//   5..9   the same cross-check of rts against rts'
//   10..12 lea pcp, pcp, -L; jzr pcp; brk 0xCFE   (the primary check)
//   13..15 lea pcp', pcp', -L; jzr pcp'; brk 0x5EC (its shadow copy)
constexpr uint64_t PrologueL = 0x1234;
constexpr uint64_t PrologueRts = 77;
constexpr unsigned PrologueSize = 16;
/// movi x4 and the nop (or jmp) in front of the prologue.
constexpr unsigned SetupSlots = 5;

std::vector<Instruction> shadowPrologue() {
  std::unique_ptr<ControlFlowChecker> Checker =
      createChecker(Technique::EdgCf, UpdateFlavor::Jcc);
  Checker->setShadowSignature(true);
  std::vector<Instruction> Out;
  Checker->emitPrologue(Out, PrologueL, /*DoCheck=*/true);
  return Out;
}

/// Which of the prologue's four checks fails, if any.
enum class Failing { None, PcpCross, RtsCross, Primary, Shadow };

struct PrologueProgram {
  AsmProgram Program;
  uint64_t Start = 0; ///< Address of the prologue's first slot.
};

/// Four movi set the signature registers, then a nop (or, with
/// \p JumpTo, a jmp to that prologue slot) and \p Pad nops precede the
/// prologue, which a halt follows. The nop keeps the movi's fused run
/// from reaching into the prologue, so the prologue's not is dispatched
/// as after a block entry.
PrologueProgram prologueProgram(Failing Fail, unsigned Pad = 0,
                                std::optional<unsigned> JumpTo = {}) {
  std::vector<Instruction> Prologue = shadowPrologue();
  int32_t Pcp = static_cast<int32_t>(PrologueL), PcpShadow = Pcp;
  int32_t Rts = static_cast<int32_t>(PrologueRts), RtsShadow = Rts;
  switch (Fail) {
  case Failing::None:
    break;
  case Failing::PcpCross:
    PcpShadow ^= 4;
    break;
  case Failing::RtsCross:
    RtsShadow ^= 4;
    break;
  case Failing::Primary: // A wrong signature in both copies.
    Pcp = PcpShadow = Pcp + 8;
    break;
  case Failing::Shadow: // The shadow copy's own update went wrong.
    Prologue[13].Imm += 1;
    break;
  }
  PrologueProgram Out;
  Out.Start = CodeBase + (SetupSlots + Pad) * InsnSize;
  std::vector<Instruction> Code = {insn::ri(Opcode::MovI, RegPCP, Pcp),
                                   insn::ri(Opcode::MovI, RegPCPShadow, PcpShadow),
                                   insn::ri(Opcode::MovI, RegRTS, Rts),
                                   insn::ri(Opcode::MovI, RegRTSShadow, RtsShadow)};
  uint64_t JmpAddr = CodeBase + Code.size() * InsnSize;
  Code.push_back(JumpTo ? insn::i(Opcode::Jmp,
                                  Instruction::offsetFor(
                                      JmpAddr, Out.Start + *JumpTo * InsnSize))
                        : insn::i(Opcode::Nop, 0));
  Code.insert(Code.end(), Pad, insn::i(Opcode::Nop, 0));
  Code.insert(Code.end(), Prologue.begin(), Prologue.end());
  Code.push_back(insn::i(Opcode::Halt, 0));
  Out.Program.Entry = CodeBase;
  Out.Program.Code.resize(Code.size() * InsnSize);
  for (size_t I = 0; I < Code.size(); ++I)
    Code[I].encode(&Out.Program.Code[I * InsnSize]);
  return Out;
}

const Failing AllCases[] = {Failing::None, Failing::PcpCross,
                            Failing::RtsCross, Failing::Primary,
                            Failing::Shadow};

std::string caseName(Failing Fail) {
  const char *Names[] = {"passing", "pcp cross-check fails",
                         "rts cross-check fails", "primary check fails",
                         "shadow check fails"};
  return Names[static_cast<int>(Fail)];
}

/// The hook-free loop against the hooked one, and the counting loop
/// against its hooked reference, on \p Program at \p Budget.
void expectAllLoopsAgree(const AsmProgram &Program, uint64_t Budget,
                         const std::string &What) {
  expectSameRun(runNative(Program, false, Budget),
                runNative(Program, true, Budget), What);
  expectSameCounts(runCounted(Program, nullptr, false, Budget),
                   runCounted(Program, nullptr, true, Budget),
                   "counted, " + What);
}

class SafePointLog : public SafePointHook {
public:
  std::vector<std::array<uint64_t, 4>> Seen;
  void onSafePoint(uint64_t CacheAddr, bool Checked, uint64_t Insns,
                   uint64_t Cycles) override {
    Seen.push_back({CacheAddr, Checked, Insns, Cycles});
  }
};

/// runNative with one safe point tagged at \p TagAddr.
RunResult runTagged(const AsmProgram &Program, bool Hooked, uint64_t TagAddr) {
  Memory Mem;
  Interpreter Interp(Mem);
  PassThroughHook Hook;
  if (Hooked)
    Interp.setPreInsnHook(&Hook);
  SafePointTable Points;
  Points.add(SafePointInfo{TagAddr, 0, /*Checked=*/true});
  SafePointLog Log;
  Interp.setSafePointHook(&Log, &Points);
  loadProgram(Program, LoadMode::Native, Mem, Interp.state());
  RunResult R = finish(Mem, Interp, Interp.run(100000));
  R.SafePoints = Log.Seen;
  return R;
}

} // namespace

TEST(InterpDiffTest, ShadowPrologueIsTheTranslatorsShape) {
  // The idiom the hook-free loop retires is the one emitCrossCheck and
  // the EdgCF check pair emit; a change on either side shows here.
  std::vector<Instruction> Prologue = shadowPrologue();
  ASSERT_EQ(Prologue.size(), PrologueSize);
  const Opcode Cross[] = {Opcode::Not, Opcode::Lea, Opcode::LeaR, Opcode::Jzr,
                          Opcode::Brk};
  for (unsigned I = 0; I < 10; ++I)
    EXPECT_EQ(Prologue[I].Op, Cross[I % 5]) << "slot " << I;
  for (unsigned I : {10u, 13u}) {
    EXPECT_EQ(Prologue[I].Op, Opcode::Lea) << "slot " << I;
    EXPECT_EQ(Prologue[I + 1].Op, Opcode::Jzr) << "slot " << I + 1;
    EXPECT_EQ(Prologue[I + 1].Imm, static_cast<int32_t>(InsnSize));
    EXPECT_EQ(Prologue[I + 2].Op, Opcode::Brk) << "slot " << I + 2;
  }
}

TEST(InterpDiffTest, PassingShadowPrologueRetiresInOneDispatch) {
  PrologueProgram P = prologueProgram(Failing::None);
  RunResult Free = runNative(P.Program, false, 100);
  expectSameRun(Free, runNative(P.Program, true, 100), "passing prologue");
  ASSERT_EQ(Free.Stop.Kind, StopKind::Halted);
  // The movi, the nop, the 12 prologue instructions that run (each check
  // jumps over its brk) and the halt.
  EXPECT_EQ(Free.Insns, 4u + 1 + 12 + 1);
  // Dispatches: the movi run, the nop, the prologue and the halt.
  EXPECT_EQ(Free.Insns - Free.Fused, 4u);
}

TEST(InterpDiffTest, ShadowPrologueChecksStopAtTheirBrk) {
  struct Expect {
    Failing Fail;
    unsigned BrkSlot;
    int32_t Code;
  };
  const Expect Cases[] = {{Failing::PcpCross, 4, BrkMonitorCorruption},
                          {Failing::RtsCross, 9, BrkMonitorCorruption},
                          {Failing::Primary, 12, BrkControlFlowError},
                          {Failing::Shadow, 15, BrkMonitorCorruption}};
  for (const Expect &E : Cases) {
    PrologueProgram P = prologueProgram(E.Fail);
    RunResult Free = runNative(P.Program, false, 100);
    expectSameRun(Free, runNative(P.Program, true, 100), caseName(E.Fail));
    EXPECT_EQ(Free.Stop.Kind, StopKind::Trapped) << caseName(E.Fail);
    EXPECT_EQ(Free.Stop.Trap, TrapKind::BreakTrap) << caseName(E.Fail);
    EXPECT_EQ(Free.Stop.BreakCode, E.Code) << caseName(E.Fail);
    EXPECT_EQ(Free.Stop.PC, P.Start + E.BrkSlot * InsnSize)
        << caseName(E.Fail);
  }
}

TEST(InterpDiffTest, ShadowPrologueEveryBudgetOnEveryLoop) {
  for (Failing Fail : AllCases) {
    PrologueProgram P = prologueProgram(Fail);
    RunResult Full = runNative(P.Program, false, 100);
    for (uint64_t Budget = 0; Budget <= Full.Insns + 1; ++Budget)
      expectAllLoopsAgree(P.Program, Budget,
                          caseName(Fail) + ", budget " +
                              std::to_string(Budget));
  }
}

TEST(InterpDiffTest, ShadowPrologueAcrossThePageEnd) {
  // Start the prologue at every slot from where it ends just before the
  // page end to where it starts right after it.
  constexpr unsigned SlotsPerPage = PageSize / InsnSize;
  for (unsigned Start = SlotsPerPage - PrologueSize - 2;
       Start <= SlotsPerPage + 1; ++Start) {
    for (Failing Fail : AllCases) {
      PrologueProgram P = prologueProgram(Fail, Start - SetupSlots);
      std::string What = caseName(Fail) + ", prologue at slot " +
                         std::to_string(Start);
      RunResult Full = runNative(P.Program, false, 100000);
      EXPECT_NE(Full.Stop.Kind, StopKind::InsnLimit) << What;
      expectAllLoopsAgree(P.Program, 100000, What);
      // And, for the prologue that runs to its end, every budget that
      // stops inside it.
      if (Fail != Failing::None)
        continue;
      for (uint64_t Budget = Full.Insns - 16; Budget < Full.Insns; ++Budget)
        expectAllLoopsAgree(P.Program, Budget,
                            What + ", budget " + std::to_string(Budget));
    }
  }
}

TEST(InterpDiffTest, ShadowPrologueSafePointOnEachSlot) {
  // A tagged slot ends the idiom before it, so its safe point is
  // dispatched with the counts of one dispatch per instruction; a tag on
  // a skipped brk is never reached.
  for (Failing Fail : AllCases) {
    PrologueProgram P = prologueProgram(Fail);
    for (unsigned Slot = 0; Slot <= PrologueSize; ++Slot) {
      std::string What = caseName(Fail) + ", tag on slot " +
                         std::to_string(Slot);
      uint64_t Addr = P.Start + Slot * InsnSize;
      RunResult Free = runTagged(P.Program, false, Addr);
      RunResult Hooked = runTagged(P.Program, true, Addr);
      expectSameRun(Free, Hooked, What);
      EXPECT_EQ(Free.SafePoints, Hooked.SafePoints) << What;
    }
  }
  // Every slot the passing prologue executes reports its safe point.
  PrologueProgram P = prologueProgram(Failing::None);
  for (unsigned Slot : {0u, 3u, 5u, 8u, 10u, 11u, 13u, 14u, 16u})
    EXPECT_EQ(runTagged(P.Program, false, P.Start + Slot * InsnSize)
                  .SafePoints.size(),
              1u)
        << "slot " << Slot;
}

TEST(InterpDiffTest, JumpIntoTheMiddleOfTheShadowPrologue) {
  for (Failing Fail : AllCases)
    for (unsigned Slot = 0; Slot <= PrologueSize; ++Slot) {
      PrologueProgram P = prologueProgram(Fail, 0, Slot);
      std::string What = caseName(Fail) + ", jump to slot " +
                         std::to_string(Slot);
      RunResult Full = runNative(P.Program, false, 1000);
      EXPECT_NE(Full.Stop.Kind, StopKind::InsnLimit) << What;
      for (uint64_t Budget = 0; Budget <= Full.Insns + 1; ++Budget)
        expectAllLoopsAgree(P.Program, Budget,
                            What + ", budget " + std::to_string(Budget));
    }
}
