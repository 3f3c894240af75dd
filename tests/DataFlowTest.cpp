//===- DataFlowTest.cpp - Tests for the data-flow checking extension -----------===//

#include "cfc/DataFlow.h"
#include "cfg/Cfg.h"
#include "fault/RegisterFault.h"
#include "vm/Layout.h"
#include "vm/Loader.h"
#include "workloads/RandomProgram.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace cfed;

//===----------------------------------------------------------------------===//
// Expansion unit tests.
//===----------------------------------------------------------------------===//

TEST(DfcExpandTest, AluDuplicatesIntoShadows) {
  dfc::Expansion E = dfc::expand(insn::rrr(Opcode::Add, 1, 2, 3));
  ASSERT_EQ(E.Before.size(), 1u);
  EXPECT_TRUE(E.After.empty());
  const Instruction &S = E.Before[0];
  EXPECT_EQ(S.Op, Opcode::Add);
  EXPECT_EQ(S.A, shadowIntReg(1));
  EXPECT_EQ(S.B, shadowIntReg(2));
  EXPECT_EQ(S.C, shadowIntReg(3));
}

TEST(DfcExpandTest, ImmediatePreserved) {
  dfc::Expansion E = dfc::expand(insn::rri(Opcode::AddI, 4, 4, -7));
  ASSERT_EQ(E.Before.size(), 1u);
  EXPECT_EQ(E.Before[0].Imm, -7);
  EXPECT_EQ(E.Before[0].A, shadowIntReg(4));
}

TEST(DfcExpandTest, CMovKeepsConditionCode) {
  dfc::Expansion E = dfc::expand(insn::cmov(1, 2, CondCode::LE));
  ASSERT_EQ(E.Before.size(), 1u);
  EXPECT_EQ(E.Before[0].cond(), CondCode::LE);
  EXPECT_EQ(E.Before[0].A, shadowIntReg(1));
}

TEST(DfcExpandTest, ComparesNotDuplicated) {
  EXPECT_TRUE(dfc::expand(insn::rr(Opcode::Cmp, 1, 2)).Before.empty());
  EXPECT_TRUE(dfc::expand(insn::ri(Opcode::CmpI, 1, 5)).Before.empty());
  EXPECT_TRUE(dfc::expand(insn::rr(Opcode::FCmp, 1, 2)).Before.empty());
}

TEST(DfcExpandTest, LoadsResync) {
  dfc::Expansion E = dfc::expand(insn::rri(Opcode::Ld, 5, 6, 8));
  EXPECT_TRUE(E.Before.empty());
  ASSERT_EQ(E.After.size(), 1u);
  EXPECT_EQ(E.After[0].Op, Opcode::Mov);
  EXPECT_EQ(E.After[0].A, shadowIntReg(5));
  EXPECT_EQ(E.After[0].B, 5);
}

TEST(DfcExpandTest, DivResyncsInsteadOfDuplicating) {
  dfc::Expansion E = dfc::expand(insn::rrr(Opcode::Div, 1, 2, 3));
  EXPECT_TRUE(E.Before.empty());
  ASSERT_EQ(E.After.size(), 1u);
  EXPECT_EQ(E.After[0].Op, Opcode::Mov);
}

TEST(DfcExpandTest, StoreChecksAddressAndValue) {
  Instruction Store(Opcode::St, /*base=*/2, /*value=*/3, 0, 16);
  dfc::Expansion E = dfc::expand(Store);
  // Two xor/jzr/brk triplets.
  ASSERT_EQ(E.Before.size(), 6u);
  EXPECT_EQ(E.Before[0].Op, Opcode::Xor);
  EXPECT_EQ(E.Before[2].Op, Opcode::Brk);
  EXPECT_EQ(E.Before[2].Imm, BrkDataFlowError);
  EXPECT_TRUE(E.After.empty());
}

TEST(DfcExpandTest, OutChecksValue) {
  dfc::Expansion E = dfc::expand(insn::r(Opcode::Out, 7));
  ASSERT_EQ(E.Before.size(), 3u);
  EXPECT_EQ(E.Before[0].B, 7);
  EXPECT_EQ(E.Before[0].C, shadowIntReg(7));
}

TEST(DfcExpandTest, FpOpsDuplicateIntoFpShadows) {
  dfc::Expansion E = dfc::expand(insn::rrr(Opcode::FMul, 1, 2, 3));
  ASSERT_EQ(E.Before.size(), 1u);
  EXPECT_EQ(E.Before[0].A, shadowFpReg(1));
  dfc::Expansion X = dfc::expand(insn::rr(Opcode::IToF, 2, 5));
  ASSERT_EQ(X.Before.size(), 1u);
  EXPECT_EQ(X.Before[0].A, shadowFpReg(2));
  EXPECT_EQ(X.Before[0].B, shadowIntReg(5));
}

//===----------------------------------------------------------------------===//
// End-to-end semantics and detection.
//===----------------------------------------------------------------------===//

namespace {

std::string runNativeOutput(const AsmProgram &Program) {
  Memory Mem;
  Interpreter Interp(Mem);
  loadProgram(Program, LoadMode::Native, Mem, Interp.state());
  Interp.run(100000000ULL);
  return Interp.output();
}

} // namespace

TEST(DfcEndToEndTest, PreservesWorkloadSemantics) {
  for (const char *Name : {"164.gzip", "181.mcf", "171.swim"}) {
    AsmProgram Program = assembleWorkload(Name);
    std::string Native = runNativeOutput(Program);

    DbtConfig Config;
    Config.Tech = Technique::EdgCf;
    Config.DataFlowCheck = true;
    Memory Mem;
    Interpreter Interp(Mem);
    Dbt Translator(Mem, Config);
    ASSERT_TRUE(Translator.load(Program, Interp.state()));
    StopInfo Stop = Translator.run(Interp, 200000000ULL);
    EXPECT_EQ(Stop.Kind, StopKind::Halted)
        << Name << " trap=" << getTrapKindName(Stop.Trap)
        << " code=" << Stop.BreakCode;
    EXPECT_EQ(Interp.output(), Native) << Name;
  }
}

TEST(DfcEndToEndTest, WorkloadsSatisfyStoreFlagDiscipline) {
  // The compare-at-store sequences clobber FLAGS, so the suite must
  // never carry flags across an egress instruction.
  for (const WorkloadInfo &Info : getWorkloadSuite()) {
    AsmProgram Program = assembleWorkload(Info.Name);
    Cfg G = Cfg::build(Program.Code.data(), Program.Code.size(), CodeBase,
                       Program.Entry, Program.CodeLabels);
    EXPECT_TRUE(G.findFlagsAcrossStoreViolations().empty()) << Info.Name;
  }
}

TEST(DfcEndToEndTest, OverheadIsSubstantialButBounded) {
  AsmProgram Program = assembleWorkload("181.mcf");
  auto Cycles = [&Program](bool Dfc) {
    DbtConfig Config;
    Config.Tech = Technique::EdgCf;
    Config.DataFlowCheck = Dfc;
    Memory Mem;
    Interpreter Interp(Mem);
    Dbt Translator(Mem, Config);
    EXPECT_TRUE(Translator.load(Program, Interp.state()));
    Translator.run(Interp, 200000000ULL);
    return double(Interp.cycleCount());
  };
  double Ratio = Cycles(true) / Cycles(false);
  EXPECT_GT(Ratio, 1.15); // Duplication is not free...
  EXPECT_LT(Ratio, 4.0);  // ...but stays in the SWIFT-like range.
}

TEST(DfcEndToEndTest, DetectsInjectedRegisterFault) {
  // Flip a bit in a register that feeds a store and watch the 0xDFE
  // report fire.
  AsmResult R = assembleProgram(R"(
.data
buf: .space 64
.code
main:
  movi r1, 123456
  movi r2, buf
  nop
  st [r2], r1
  ld r3, [r2]
  out r3
  halt
)");
  ASSERT_TRUE(R.succeeded());
  DbtConfig Config;
  Config.Tech = Technique::EdgCf;
  Config.DataFlowCheck = true;
  Memory Mem;
  Interpreter Interp(Mem);
  Dbt Translator(Mem, Config);
  ASSERT_TRUE(Translator.load(R.Program, Interp.state()));
  // Instruction stream under the DBT starts with the EdgCF prologue;
  // flip r1 just before the store's checks by firing on the nop.
  RegisterFaultInjector Hook(/*Reg=*/1, /*Mask=*/uint64_t(1) << 5);
  Interp.armFault(&Hook, /*AtInsn=*/7);
  StopInfo Stop = Translator.run(Interp, 100000);
  ASSERT_TRUE(Hook.fired());
  ASSERT_EQ(Stop.Kind, StopKind::Trapped);
  EXPECT_EQ(Stop.Trap, TrapKind::BreakTrap);
  EXPECT_EQ(Stop.BreakCode, BrkDataFlowError);
}

TEST(DfcEndToEndTest, CampaignSlashesSdc) {
  RandomProgramOptions Options;
  Options.Seed = 7;
  Options.NumSegments = 8;
  AsmResult R = assembleProgram(generateRandomProgram(Options));
  ASSERT_TRUE(R.succeeded());

  DbtConfig Plain;
  Plain.Tech = Technique::EdgCf;
  OutcomeCounts Without =
      runRegisterFaultCampaign(R.Program, Plain, 120, 3, 50000000ULL);

  DbtConfig WithDfc = Plain;
  WithDfc.DataFlowCheck = true;
  OutcomeCounts With =
      runRegisterFaultCampaign(R.Program, WithDfc, 120, 3, 50000000ULL);

  EXPECT_EQ(Without.DetectedSig, 0u); // CFC alone cannot see data faults.
  EXPECT_GT(Without.Sdc, 0u);
  EXPECT_GT(With.DetectedSig, 0u);
  EXPECT_LT(With.Sdc, Without.Sdc);
}

TEST(DfcEndToEndTest, ComposesWithEveryTechniqueAndPolicy) {
  RandomProgramOptions Options;
  Options.Seed = 19;
  AsmResult R = assembleProgram(generateRandomProgram(Options));
  ASSERT_TRUE(R.succeeded());
  std::string Native = runNativeOutput(R.Program);
  for (Technique Tech : {Technique::None, Technique::Ecf, Technique::Rcf}) {
    DbtConfig Config;
    Config.Tech = Tech;
    Config.DataFlowCheck = true;
    Config.Policy = CheckPolicy::StoreBB;
    Memory Mem;
    Interpreter Interp(Mem);
    Dbt Translator(Mem, Config);
    ASSERT_TRUE(Translator.load(R.Program, Interp.state()));
    StopInfo Stop = Translator.run(Interp, 50000000ULL);
    EXPECT_EQ(Stop.Kind, StopKind::Halted) << getTechniqueName(Tech);
    EXPECT_EQ(Interp.output(), Native) << getTechniqueName(Tech);
  }
}
