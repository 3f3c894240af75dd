//===- InterpTest.cpp - Tests for the VISA interpreter ------------------------===//

#include "asm/Assembler.h"
#include "vm/Interp.h"
#include "vm/Layout.h"
#include "vm/Loader.h"

#include <cstring>
#include <gtest/gtest.h>
#include <optional>

using namespace cfed;

namespace {

struct Runner {
  Memory Mem;
  Interpreter Interp{Mem};
  StopInfo Stop;

  explicit Runner(const std::string &Source, uint64_t MaxInsns = 100000) {
    AsmResult Result = assembleProgram(Source);
    EXPECT_TRUE(Result.succeeded()) << Result.errorText();
    loadProgram(Result.Program, LoadMode::Native, Mem, Interp.state());
    Stop = Interp.run(MaxInsns);
  }

  uint64_t reg(unsigned Index) const { return Interp.state().Regs[Index]; }
  double fp(unsigned Index) const { return Interp.state().FpRegs[Index]; }
};

} // namespace

TEST(InterpTest, HaltStops) {
  Runner R("halt\n");
  EXPECT_EQ(R.Stop.Kind, StopKind::Halted);
  EXPECT_EQ(R.Interp.instructionCount(), 1u);
}

TEST(InterpTest, ArithmeticBasics) {
  Runner R("movi r1, 6\nmovi r2, 7\nmul r3, r1, r2\n"
           "sub r4, r3, r1\nhalt\n");
  EXPECT_EQ(R.reg(3), 42u);
  EXPECT_EQ(R.reg(4), 36u);
}

TEST(InterpTest, DivAndRem) {
  Runner R("movi r1, 17\nmovi r2, 5\ndiv r3, r1, r2\nrem r4, r1, r2\nhalt\n");
  EXPECT_EQ(R.reg(3), 3u);
  EXPECT_EQ(R.reg(4), 2u);
}

TEST(InterpTest, NegativeDivTruncatesTowardZero) {
  Runner R("movi r1, -17\nmovi r2, 5\ndiv r3, r1, r2\nrem r4, r1, r2\nhalt\n");
  EXPECT_EQ(static_cast<int64_t>(R.reg(3)), -3);
  EXPECT_EQ(static_cast<int64_t>(R.reg(4)), -2);
}

TEST(InterpTest, DivByZeroTraps) {
  Runner R("movi r1, 1\nmovi r2, 0\ndiv r3, r1, r2\nhalt\n");
  EXPECT_EQ(R.Stop.Kind, StopKind::Trapped);
  EXPECT_EQ(R.Stop.Trap, TrapKind::DivByZero);
}

TEST(InterpTest, CompareAndConditionalBranch) {
  Runner R("movi r1, 5\nmovi r2, 9\ncmp r1, r2\njcc lt, less\n"
           "movi r3, 0\nhalt\nless:\nmovi r3, 1\nhalt\n");
  EXPECT_EQ(R.reg(3), 1u);
}

TEST(InterpTest, UnsignedConditions) {
  // -1 as unsigned is huge: "a" (unsigned >) must see -1 > 1.
  Runner R("movi r1, -1\nmovi r2, 1\ncmp r1, r2\n"
           "setcc r3, a\nsetcc r4, gt\nhalt\n");
  EXPECT_EQ(R.reg(3), 1u);
  EXPECT_EQ(R.reg(4), 0u);
}

TEST(InterpTest, OverflowFlagOnSub) {
  // INT64_MIN - 1 overflows: lt (SF!=OF) must still be correct.
  Runner R("movi r1, 1\nshli r2, r1, 63\n" // r2 = INT64_MIN
           "cmp r2, r1\nsetcc r3, lt\nhalt\n");
  EXPECT_EQ(R.reg(3), 1u);
}

TEST(InterpTest, LoopCountsDown) {
  Runner R("movi r1, 10\nmovi r2, 0\nloop:\nadd r2, r2, r1\n"
           "addi r1, r1, -1\njcc ne, loop\nhalt\n");
  EXPECT_EQ(R.reg(2), 55u);
}

TEST(InterpTest, JzrJnzrIgnoreFlags) {
  Runner R("movi r1, 0\nmovi r2, 3\ncmp r2, r2\n" // ZF set
           "jzr r2, wrong\nmovi r3, 1\njnzr r1, wrong\nmovi r4, 1\nhalt\n"
           "wrong:\nmovi r5, 1\nhalt\n");
  EXPECT_EQ(R.reg(3), 1u);
  EXPECT_EQ(R.reg(4), 1u);
  EXPECT_EQ(R.reg(5), 0u);
}

TEST(InterpTest, CMovTakenAndNotTaken) {
  Runner R("movi r1, 1\nmovi r2, 2\nmovi r3, 10\nmovi r4, 20\n"
           "cmp r1, r2\ncmov r3, r4, lt\ncmov r4, r1, gt\nhalt\n");
  EXPECT_EQ(R.reg(3), 20u);
  EXPECT_EQ(R.reg(4), 20u);
}

TEST(InterpTest, LeaDoesNotTouchFlags) {
  Runner R("movi r1, 1\nmovi r2, 2\ncmp r1, r2\n" // lt
           "lea r3, r1, 100\nsetcc r4, lt\nhalt\n");
  EXPECT_EQ(R.reg(3), 101u);
  EXPECT_EQ(R.reg(4), 1u);
}

TEST(InterpTest, XorClobbersFlags) {
  Runner R("movi r1, 1\nmovi r2, 2\ncmp r1, r2\n" // lt: SF set
           "xor r3, r1, r1\nsetcc r4, eq\nhalt\n");
  // xor set ZF (result 0), so eq is now true even though cmp said lt.
  EXPECT_EQ(R.reg(4), 1u);
}

TEST(InterpTest, MemoryLoadStore) {
  Runner R(".data\nbuf: .space 64\n.code\n"
           "movi r1, buf\nmovi r2, 0x1234\nst [r1+8], r2\n"
           "ld r3, [r1+8]\nstb [r1], r2\nldb r4, [r1]\nhalt\n");
  EXPECT_EQ(R.reg(3), 0x1234u);
  EXPECT_EQ(R.reg(4), 0x34u);
}

TEST(InterpTest, PushPop) {
  Runner R("movi r1, 77\npush r1\nmovi r1, 0\npop r2\nhalt\n");
  EXPECT_EQ(R.reg(2), 77u);
  EXPECT_EQ(R.reg(RegSP), StackTop);
}

TEST(InterpTest, CallRet) {
  Runner R(".entry main\n"
           "f:\nmovi r1, 9\nret\n"
           "main:\ncall f\nmovi r2, 1\nhalt\n");
  EXPECT_EQ(R.reg(1), 9u);
  EXPECT_EQ(R.reg(2), 1u);
  EXPECT_EQ(R.Stop.Kind, StopKind::Halted);
}

TEST(InterpTest, IndirectCallThroughTable) {
  Runner R(".entry main\n"
           "f1:\nmovi r1, 100\nret\n"
           "f2:\nmovi r1, 200\nret\n"
           ".data\ntable: .word f1, f2\n.code\n"
           "main:\nmovi r2, table\nld r3, [r2+8]\ncallr r3\nhalt\n");
  EXPECT_EQ(R.reg(1), 200u);
}

TEST(InterpTest, OutProducesText) {
  Runner R("movi r1, 42\nout r1\nmovi r1, 'X'\noutc r1\nhalt\n");
  EXPECT_EQ(R.Interp.output(), "42\nX");
}

TEST(InterpTest, OutputHashDiffers) {
  Runner A("movi r1, 1\nout r1\nhalt\n");
  Runner B("movi r1, 2\nout r1\nhalt\n");
  EXPECT_NE(hashOutput(A.Interp.output()), hashOutput(B.Interp.output()));
}

TEST(InterpTest, FloatingPoint) {
  Runner R("movi r1, 2\nitof f1, r1\nfmovi f2, 3\nfmul f3, f1, f2\n"
           "fsqrt f4, f3\nftoi r2, f3\nhalt\n");
  EXPECT_DOUBLE_EQ(R.fp(3), 6.0);
  EXPECT_NEAR(R.fp(4), 2.449489, 1e-5);
  EXPECT_EQ(R.reg(2), 6u);
}

TEST(InterpTest, FCmpDrivesBranches) {
  Runner R("fmovi f1, 2\nfmovi f2, 5\nfcmp f1, f2\nsetcc r1, lt\n"
           "setcc r2, eq\nfcmp f2, f2\nsetcc r3, eq\nhalt\n");
  EXPECT_EQ(R.reg(1), 1u);
  EXPECT_EQ(R.reg(2), 0u);
  EXPECT_EQ(R.reg(3), 1u);
}

TEST(InterpTest, FpMemory) {
  Runner R(".data\nv: .space 16\n.code\n"
           "fmovi f1, 7\nmovi r1, v\nfst [r1], f1\nfld f2, [r1]\nhalt\n");
  EXPECT_DOUBLE_EQ(R.fp(2), 7.0);
}

TEST(InterpTest, InsnLimitStops) {
  Runner R("spin: jmp spin\n", /*MaxInsns=*/500);
  EXPECT_EQ(R.Stop.Kind, StopKind::InsnLimit);
  EXPECT_EQ(R.Interp.instructionCount(), 500u);
}

TEST(InterpTest, BrkTrapCarriesCode) {
  Runner R("brk 0xCFE\n");
  EXPECT_EQ(R.Stop.Kind, StopKind::Trapped);
  EXPECT_EQ(R.Stop.Trap, TrapKind::BreakTrap);
  EXPECT_EQ(R.Stop.BreakCode, BrkControlFlowError);
}

TEST(InterpTest, JumpToDataTrapsAsExecViolation) {
  // Category F in miniature: a jump into a non-executable region traps.
  Runner R(".data\nd: .word 0\n.code\nmovi r1, d\njmpr r1\nhalt\n");
  EXPECT_EQ(R.Stop.Kind, StopKind::Trapped);
  EXPECT_EQ(R.Stop.Trap, TrapKind::ExecViolation);
  EXPECT_EQ(R.Stop.TrapAddr, DataBase);
}

TEST(InterpTest, JumpToUnmappedTraps) {
  Runner R("movi r1, 0x9000000\njmpr r1\nhalt\n");
  EXPECT_EQ(R.Stop.Kind, StopKind::Trapped);
  EXPECT_EQ(R.Stop.Trap, TrapKind::ExecViolation);
}

TEST(InterpTest, StoreToCodeTraps) {
  Runner R("movi r1, 0x10000\nmovi r2, 0\nst [r1], r2\nhalt\n");
  EXPECT_EQ(R.Stop.Kind, StopKind::Trapped);
  EXPECT_EQ(R.Stop.Trap, TrapKind::WriteViolation);
}

TEST(InterpTest, ReadUnmappedTraps) {
  Runner R("movi r1, 0x9000000\nld r2, [r1]\nhalt\n");
  EXPECT_EQ(R.Stop.Kind, StopKind::Trapped);
  EXPECT_EQ(R.Stop.Trap, TrapKind::ReadViolation);
}

TEST(InterpTest, MisalignedFetchDecodesBytes) {
  // VISA has no alignment requirement (like IA-32): jumping into the
  // middle of an instruction decodes whatever bytes are there.
  Runner R("movi r1, 0x10004\njmpr r1\nhalt\n", 10);
  // The outcome depends on the bytes; the point is it does not assert and
  // either traps or keeps executing.
  EXPECT_TRUE(R.Stop.Kind == StopKind::Trapped ||
              R.Stop.Kind == StopKind::InsnLimit ||
              R.Stop.Kind == StopKind::Halted);
}

TEST(InterpTest, CycleAccountingMatchesCosts) {
  Runner R("movi r1, 1\nfadd f1, f2, f3\nhalt\n");
  uint64_t Expected = getOpcodeCost(Opcode::MovI) +
                      getOpcodeCost(Opcode::FAdd) +
                      getOpcodeCost(Opcode::Halt);
  EXPECT_EQ(R.Interp.cycleCount(), Expected);
}

namespace {

/// Observer recording branch executions.
struct RecordingObserver : BranchObserver {
  struct Event {
    uint64_t Addr;
    bool Taken;
    uint64_t NextPC;
  };
  std::vector<Event> Events;
  void onBranch(uint64_t InsnAddr, const Instruction &, const Flags &,
                bool Taken, uint64_t NextPC) override {
    Events.push_back({InsnAddr, Taken, NextPC});
  }
};

/// Hook that flips one offset bit at a given dynamic branch instance.
struct OffsetFlipHook : FaultHook {
  uint64_t TriggerCount;
  unsigned Bit;
  uint64_t Seen = 0;
  bool Fired = false;
  OffsetFlipHook(uint64_t TriggerCount, unsigned Bit)
      : TriggerCount(TriggerCount), Bit(Bit) {}
  bool apply(uint64_t, Instruction &I, Flags &, CpuState &) override {
    if (++Seen == TriggerCount) {
      I.Imm = static_cast<int32_t>(static_cast<uint32_t>(I.Imm) ^
                                   (1u << Bit));
      Fired = true;
    }
    return true;
  }
};

/// Hook that flips one flag bit at a given dynamic branch instance.
struct FlagFlipHook : FaultHook {
  uint64_t TriggerCount;
  unsigned Bit;
  uint64_t Seen = 0;
  FlagFlipHook(uint64_t TriggerCount, unsigned Bit)
      : TriggerCount(TriggerCount), Bit(Bit) {}
  bool apply(uint64_t, Instruction &, Flags &F, CpuState &) override {
    if (++Seen == TriggerCount)
      F = F.withBitFlipped(Bit);
    return true;
  }
};

} // namespace

TEST(InterpTest, BranchObserverSeesTakenAndNotTaken) {
  Memory Mem;
  Interpreter Interp(Mem);
  AsmResult Result = assembleProgram(
      "movi r1, 2\nloop:\naddi r1, r1, -1\njcc ne, loop\nhalt\n");
  ASSERT_TRUE(Result.succeeded());
  loadProgram(Result.Program, LoadMode::Native, Mem, Interp.state());
  RecordingObserver Observer;
  Interp.setBranchObserver(&Observer);
  Interp.run(1000);
  ASSERT_EQ(Observer.Events.size(), 2u);
  EXPECT_TRUE(Observer.Events[0].Taken);
  EXPECT_FALSE(Observer.Events[1].Taken);
}

TEST(InterpTest, FaultHookFlipsBranchOffset) {
  Memory Mem;
  Interpreter Interp(Mem);
  // jmp over the halt; flipping bit 3 of the offset (8) turns it into 0,
  // landing on the halt.
  AsmResult Result =
      assembleProgram("jmp skip\nhalt\nskip:\nmovi r1, 1\nhalt\n");
  ASSERT_TRUE(Result.succeeded());
  loadProgram(Result.Program, LoadMode::Native, Mem, Interp.state());
  OffsetFlipHook Hook(1, 3);
  Interp.setFaultHook(&Hook);
  StopInfo Stop = Interp.run(100);
  EXPECT_TRUE(Hook.Fired);
  EXPECT_EQ(Stop.Kind, StopKind::Halted);
  EXPECT_EQ(Interp.state().Regs[1], 0u);
}

TEST(InterpTest, FaultHookFlipsFlagsTransiently) {
  Memory Mem;
  Interpreter Interp(Mem);
  // r1=1, r2=1: eq. Flip ZF at the branch -> falls through. The setcc
  // after the branch must still see the *architectural* flags (eq).
  AsmResult Result = assembleProgram(
      "movi r1, 1\nmovi r2, 1\ncmp r1, r2\njcc eq, taken\n"
      "setcc r3, eq\nhalt\ntaken:\nmovi r4, 1\nhalt\n");
  ASSERT_TRUE(Result.succeeded());
  loadProgram(Result.Program, LoadMode::Native, Mem, Interp.state());
  FlagFlipHook Hook(1, 0); // Flip ZF.
  Interp.setFaultHook(&Hook);
  Interp.run(100);
  EXPECT_EQ(Interp.state().Regs[4], 0u); // Mistaken branch: fell through.
  EXPECT_EQ(Interp.state().Regs[3], 1u); // Architectural flags intact.
}

TEST(InterpTest, TrampWithoutDbtHooksIsIllegal) {
  Memory Mem;
  Interpreter Interp(Mem);
  Mem.mapRegion(CodeBase, PageSize, PermRX);
  uint8_t Buffer[InsnSize];
  insn::i(Opcode::Tramp, 0x1234).encode(Buffer);
  Mem.writeRaw(CodeBase, Buffer, InsnSize);
  Interp.state().PC = CodeBase;
  StopInfo Stop = Interp.run(10);
  EXPECT_EQ(Stop.Kind, StopKind::Trapped);
  EXPECT_EQ(Stop.Trap, TrapKind::IllegalInsn);
}

TEST(InterpTest, SelfModifyingCodeSeesNewBytes) {
  // The program overwrites one of its own instructions through a plain
  // store, then executes it: the predecoded-page cache must observe the
  // write and serve the new bytes.
  Memory Mem;
  Interpreter Interp(Mem);
  constexpr uint64_t Base = 0x10000;
  Mem.mapRegion(Base, PageSize, PermRWX);

  auto Poke = [&](uint64_t Addr, const Instruction &I) {
    uint8_t Buffer[InsnSize];
    I.encode(Buffer);
    Mem.writeRaw(Addr, Buffer, InsnSize);
  };

  // The encoding of "movi r2, 99", split into halves a movi can carry.
  uint8_t NewBytes[InsnSize];
  insn::ri(Opcode::MovI, 2, 99).encode(NewBytes);
  uint32_t Low = 0, High = 0;
  std::memcpy(&Low, NewBytes, 4);
  std::memcpy(&High, NewBytes + 4, 4);

  Poke(Base + 0x00, insn::ri(Opcode::MovI, 1, static_cast<int32_t>(Low)));
  Poke(Base + 0x08, insn::ri(Opcode::MovI, 4, static_cast<int32_t>(High)));
  Poke(Base + 0x10, insn::rri(Opcode::ShlI, 4, 4, 32));
  Poke(Base + 0x18, insn::rrr(Opcode::Or, 1, 1, 4));
  Poke(Base + 0x20, insn::ri(Opcode::MovI, 5, static_cast<int32_t>(Base + 0x30)));
  Poke(Base + 0x28, insn::rri(Opcode::St, 5, 1, 0));
  Poke(Base + 0x30, insn::ri(Opcode::MovI, 2, 1)); // Overwritten above.
  Poke(Base + 0x38, insn::none(Opcode::Halt));

  Interp.state().PC = Base;
  StopInfo Stop = Interp.run(100);
  EXPECT_EQ(Stop.Kind, StopKind::Halted);
  EXPECT_EQ(Interp.state().Regs[2], 99u);
  // The store forced a second whole-page decode.
  EXPECT_GE(Mem.predecodeMissCount(), 2u);
}

TEST(InterpTest, ImageRoundTripExecutesIdentically) {
  // serialize -> loadProgramImage -> run must match a direct load.
  const char *Source = ".data\nv: .word 5\n.code\nmain:\n"
                       "movi r1, v\nld r2, [r1]\nout r2\nhalt\n"
                       ".entry main\n";
  Runner Direct(Source);
  ASSERT_EQ(Direct.Stop.Kind, StopKind::Halted);

  AsmResult Result = assembleProgram(Source);
  ASSERT_TRUE(Result.succeeded());
  std::vector<uint8_t> Image = serializeProgram(Result.Program);
  Memory Mem;
  Interpreter Interp(Mem);
  std::string Error;
  ASSERT_TRUE(loadProgramImage(Image.data(), Image.size(), LoadMode::Native,
                               Mem, Interp.state(), Error))
      << Error;
  StopInfo Stop = Interp.run(100000);
  EXPECT_EQ(Stop.Kind, StopKind::Halted);
  EXPECT_EQ(Interp.output(), Direct.Interp.output());
}

TEST(InterpTest, CheckedLoadRejectsEntryOutsideCode) {
  AsmResult Result = assembleProgram("main:\nhalt\n");
  ASSERT_TRUE(Result.succeeded());
  Result.Program.Entry = DataBase; // Entry must lie inside the code segment.
  Memory Mem;
  Interpreter Interp(Mem);
  std::string Error;
  EXPECT_FALSE(loadProgramChecked(Result.Program, LoadMode::Native, Mem,
                                  Interp.state(), Error));
  EXPECT_NE(Error.find("entry"), std::string::npos) << Error;
  // Nothing was mapped: the interpreter has nothing to run.
  EXPECT_FALSE(Mem.isMapped(CodeBase));
}

TEST(InterpTest, CheckedLoadRejectsOversizedData) {
  AsmResult Result = assembleProgram("main:\nhalt\n");
  ASSERT_TRUE(Result.succeeded());
  // Data reaching into the stack region must be rejected, not mapped.
  Result.Program.Data.resize(StackTop - StackSize - DataBase + 1);
  Memory Mem;
  Interpreter Interp(Mem);
  std::string Error;
  EXPECT_FALSE(loadProgramChecked(Result.Program, LoadMode::Native, Mem,
                                  Interp.state(), Error));
  EXPECT_FALSE(Error.empty());
  EXPECT_FALSE(Mem.isMapped(DataBase));
}

//===----------------------------------------------------------------------===//
// Faults armed at a retired-instruction index
//===----------------------------------------------------------------------===//

namespace {

/// A countdown loop whose body carries the translator's check idiom: the
/// movi starts a fused run (mov, then the jcc that ends it) on the
/// hook-free loop, while the addi is always dispatched alone.
constexpr const char *FusedLoop = "movi r1, 40\n"
                                  "loop:\n"
                                  "addi r1, r1, -1\n"
                                  "movi r2, 5\n"
                                  "mov r3, r2\n"
                                  "jcc ne, loop\n"
                                  "out r1\n"
                                  "halt\n";

/// Records every instruction it is offered; strikes (flips \p Mask into
/// r1) on the first one with opcode \p StrikeOn, or on the first offer
/// when \p StrikeOn is unset.
struct RecordingArmedHook : FaultHook {
  const Interpreter &Interp;
  std::optional<Opcode> StrikeOn;
  uint64_t Mask;
  std::vector<std::pair<uint64_t, Opcode>> Offered; // (count, opcode)
  uint64_t FusedAtStrike = 0;

  explicit RecordingArmedHook(const Interpreter &Interp,
                              std::optional<Opcode> StrikeOn = std::nullopt,
                              uint64_t Mask = 0)
      : Interp(Interp), StrikeOn(StrikeOn), Mask(Mask) {}

  bool apply(uint64_t, Instruction &I, Flags &, CpuState &State) override {
    Offered.emplace_back(Interp.instructionCount(), I.Op);
    if (StrikeOn && I.Op != *StrikeOn)
      return false;
    FusedAtStrike = Interp.fusedInsnCount();
    State.Regs[1] ^= Mask;
    return true;
  }
};

struct NativeRun {
  Memory Mem;
  Interpreter Interp{Mem};

  explicit NativeRun(const char *Source) {
    AsmResult Result = assembleProgram(Source);
    EXPECT_TRUE(Result.succeeded()) << Result.errorText();
    loadProgram(Result.Program, LoadMode::Native, Mem, Interp.state());
  }
};

} // namespace

TEST(InterpTest, ArmedFaultFiresOnANonBranchAtItsIndex) {
  NativeRun Plain(FusedLoop);
  StopInfo PlainStop = Plain.Interp.run(100000);
  ASSERT_EQ(PlainStop.Kind, StopKind::Halted);
  ASSERT_GT(Plain.Interp.fusedInsnCount(), 0u);

  // Instruction 42 is the addi of the 11th iteration (1 + 4 * 10 + 1).
  NativeRun Armed(FusedLoop);
  RecordingArmedHook Hook(Armed.Interp);
  Armed.Interp.armFault(&Hook, 42);
  StopInfo Stop = Armed.Interp.run(100000);
  ASSERT_EQ(Hook.Offered.size(), 1u);
  EXPECT_EQ(Hook.Offered[0].first, 42u);
  EXPECT_EQ(Hook.Offered[0].second, Opcode::AddI);
  // A hook that changes nothing leaves the run as it was.
  EXPECT_EQ(Stop.Kind, PlainStop.Kind);
  EXPECT_EQ(Stop.PC, PlainStop.PC);
  EXPECT_EQ(Armed.Interp.instructionCount(), Plain.Interp.instructionCount());
  EXPECT_EQ(Armed.Interp.cycleCount(), Plain.Interp.cycleCount());
  EXPECT_EQ(Armed.Interp.output(), Plain.Interp.output());
  // Only the hook-free loop fuses: the runs before and after the armed
  // addi (which no fused run covers) both fused, and together as much as
  // the unarmed run.
  EXPECT_GT(Hook.FusedAtStrike, 0u);
  EXPECT_GT(Armed.Interp.fusedInsnCount(), Hook.FusedAtStrike);
  EXPECT_EQ(Armed.Interp.fusedInsnCount(), Plain.Interp.fusedInsnCount());
}

TEST(InterpTest, ArmedFaultMutatesArchitecturalState) {
  // Flipping r1 bit 0 before the out at instruction 2 prints 4, not 5.
  NativeRun Run("movi r1, 5\nout r1\nhalt\n");
  RecordingArmedHook Hook(Run.Interp, Opcode::Out, /*Mask=*/1);
  Run.Interp.armFault(&Hook, 2);
  EXPECT_EQ(Run.Interp.run(100).Kind, StopKind::Halted);
  EXPECT_EQ(Run.Interp.output(), "4\n");
}

TEST(InterpTest, ArmedFaultKeepsBudgetStopsAndCounts) {
  // Budgets that end before, at and after the armed instruction stop
  // exactly where an unarmed run's do.
  for (uint64_t Chunk : {1, 3, 5, 41, 42, 1000}) {
    NativeRun Plain(FusedLoop), Armed(FusedLoop);
    RecordingArmedHook Hook(Armed.Interp);
    Armed.Interp.armFault(&Hook, 42);
    for (;;) {
      StopInfo A = Plain.Interp.run(Chunk), B = Armed.Interp.run(Chunk);
      ASSERT_EQ(A.Kind, B.Kind) << "chunk " << Chunk;
      ASSERT_EQ(A.PC, B.PC) << "chunk " << Chunk;
      ASSERT_EQ(Plain.Interp.instructionCount(),
                Armed.Interp.instructionCount())
          << "chunk " << Chunk;
      ASSERT_EQ(Plain.Interp.cycleCount(), Armed.Interp.cycleCount())
          << "chunk " << Chunk;
      if (A.Kind != StopKind::InsnLimit)
        break;
    }
    ASSERT_EQ(Hook.Offered.size(), 1u) << "chunk " << Chunk;
    EXPECT_EQ(Hook.Offered[0].first, 42u) << "chunk " << Chunk;
  }
}

TEST(InterpTest, ArmedHookWithNothingToStrikeStaysArmed) {
  // Armed at instruction 3, the hook waits for the out: it is offered
  // every instruction up to it, one by one, and nothing after it.
  NativeRun Run(FusedLoop);
  RecordingArmedHook Hook(Run.Interp, Opcode::Out, /*Mask=*/0);
  Run.Interp.armFault(&Hook, 3);
  EXPECT_EQ(Run.Interp.run(100000).Kind, StopKind::Halted);
  ASSERT_FALSE(Hook.Offered.empty());
  for (size_t I = 0; I < Hook.Offered.size(); ++I)
    EXPECT_EQ(Hook.Offered[I].first, 3 + I);
  EXPECT_EQ(Hook.Offered.back().second, Opcode::Out);
  EXPECT_EQ(Hook.Offered.back().first, Run.Interp.instructionCount() - 1);
  // A run that ends before the hook strikes leaves it armed.
  NativeRun Short(FusedLoop);
  RecordingArmedHook Waiting(Short.Interp, Opcode::Out, /*Mask=*/0);
  Short.Interp.armFault(&Waiting, 3);
  EXPECT_EQ(Short.Interp.run(20).Kind, StopKind::InsnLimit);
  EXPECT_EQ(Waiting.Offered.size(), 18u);
  EXPECT_EQ(Short.Interp.run(100000).Kind, StopKind::Halted);
  EXPECT_EQ(Waiting.Offered.size(), Hook.Offered.size());
}
