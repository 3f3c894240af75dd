//===- FlightRecorderTest.cpp - Tests for post-mortem bundles ------------------===//

#include "asm/Assembler.h"
#include "dbt/Dbt.h"
#include "fault/Campaign.h"
#include "recovery/Recovery.h"
#include "support/Json.h"
#include "telemetry/FlightRecorder.h"
#include "vm/Layout.h"
#include "vm/Loader.h"
#include "workloads/RandomProgram.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

using namespace cfed;
using cfed::json::JsonParser;
using cfed::json::JsonValue;
using telemetry::FlightRecorder;
using telemetry::PostMortem;

namespace {

AsmProgram assembleOk(const std::string &Source) {
  AsmResult Result = assembleProgram(Source);
  EXPECT_TRUE(Result.succeeded()) << Result.errorText();
  return Result.Program;
}

/// A fresh scratch directory under the system temp dir; removed and
/// recreated per use so stale bundles never leak between runs.
std::string scratchDir(const char *Name) {
  std::filesystem::path P = std::filesystem::temp_directory_path() /
                            (std::string("cfed_fr_") + Name);
  std::filesystem::remove_all(P);
  return P.string();
}

bool parseBundle(const std::string &Path, JsonValue &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::stringstream Buf;
  Buf << In.rdbuf();
  // JsonParser keeps a reference: the text must outlive the parse.
  std::string Text = Buf.str();
  JsonParser Parser(Text);
  return Parser.parse(Out);
}

/// Persistent stuck-at fault on every executed cache branch (same model
/// as RecoveryTest): rollback cannot shake it, so the ladder escalates
/// all the way to interpreter fallback.
class StuckAtCacheBranchFault : public FaultHook {
public:
  explicit StuckAtCacheBranchFault(unsigned Bit) : Bit(Bit) {}
  bool apply(uint64_t InsnAddr, Instruction &I, Flags &,
             CpuState &) override {
    if (isCacheAddr(InsnAddr))
      I.Imm = static_cast<int32_t>(static_cast<uint32_t>(I.Imm) ^ (1u << Bit));
    return true;
  }

private:
  unsigned Bit;
};

TEST(FlightRecorderTest, BundleRoundTrips) {
  PostMortem PM;
  PM.Reason = "trap";
  PM.StopKind = "trap";
  PM.TrapName = "exec-violation";
  PM.Description = "a \"quoted\"\nmultiline description";
  PM.GuestPC = 0x10120;
  PM.CachePC = 0x04000040;
  PM.TrapAddr = 0x1003000;
  PM.BreakCode = -7;
  PM.Insns = 12345;
  PM.Cycles = 23456;
  PM.Regs = {0x1, 0x2, 0xdeadbeef};
  PM.FlagBits = 0b1010;
  PM.Events.push_back({17, telemetry::TraceEventKind::BlockTranslated,
                       "dbt", 0x10120, 4});
  PM.Events.push_back({21, telemetry::TraceEventKind::WatchdogFire,
                       nullptr, 0x10150, 0});
  PM.Recovery.Present = true;
  PM.Recovery.Checkpoints = 9;
  PM.Recovery.Rollbacks = 2;
  PM.Recovery.RingDepth = 3;
  PM.Recovery.Degraded = true;
  PM.GuestDisasm = "0x10120: add r1, r1, r1\n";
  PM.Annotations.emplace_back("bit", 10);
  PM.Note = "det-hw";
  PM.Propagation.Present = true;
  PM.Propagation.Class = "detected-after-divergence";
  PM.Propagation.Diverged = true;
  PM.Propagation.DivergenceOrdinal = 41;
  PM.Propagation.DivergenceKey = 777;
  PM.Propagation.DivergencePC = 0x10140;
  PM.Propagation.TaintedBlocks = 3;
  PM.Propagation.ChecksCrossed = 2;
  PM.Propagation.InsnsCrossed = 95;

  std::string Dir = scratchDir("roundtrip");
  FlightRecorder Recorder(Dir, 256);
  std::string Path = Recorder.write(PM);
  ASSERT_FALSE(Path.empty()) << Recorder.lastError();
  EXPECT_EQ(Recorder.bundleCount(), 1u);
  EXPECT_EQ(Recorder.lastPath(), Path);

  JsonValue Root;
  ASSERT_TRUE(parseBundle(Path, Root)) << Path;
  EXPECT_EQ(Root["version"].Num, 2.0);
  EXPECT_EQ(Root["reason"].Str, "trap");
  EXPECT_EQ(Root["stop"]["kind"].Str, "trap");
  EXPECT_EQ(Root["stop"]["trap"].Str, "exec-violation");
  EXPECT_EQ(Root["stop"]["description"].Str, PM.Description);
  EXPECT_EQ(Root["guest_pc"].Str, "0x10120");
  EXPECT_EQ(Root["break_code"].Num, -7.0);
  EXPECT_EQ(Root["insns"].Num, 12345.0);
  EXPECT_EQ(Root["cpu"]["flags"].Num, 10.0);
  ASSERT_EQ(Root["cpu"]["regs"].Items.size(), 3u);
  EXPECT_EQ(Root["cpu"]["regs"].Items[2].Str, "0xdeadbeef");
  ASSERT_EQ(Root["events"].Items.size(), 2u);
  EXPECT_EQ(Root["events"].Items[0]["kind"].Str, "block-translated");
  EXPECT_EQ(Root["events"].Items[0]["category"].Str, "dbt");
  EXPECT_EQ(Root["events"].Items[0]["addr"].Str, "0x10120");
  EXPECT_EQ(Root["events"].Items[1]["kind"].Str, "watchdog-fire");
  EXPECT_TRUE(Root["recovery"]["present"].B);
  EXPECT_EQ(Root["recovery"]["checkpoints"].Num, 9.0);
  EXPECT_TRUE(Root["recovery"]["degraded"].B);
  EXPECT_FALSE(Root["recovery"]["interpreter_fallback"].B);
  EXPECT_EQ(Root["guest_disasm"].Str, PM.GuestDisasm);
  EXPECT_EQ(Root["annotations"]["bit"].Num, 10.0);
  EXPECT_EQ(Root["note"].Str, "det-hw");
  EXPECT_TRUE(Root["propagation"]["present"].B);
  EXPECT_EQ(Root["propagation"]["class"].Str, "detected-after-divergence");
  EXPECT_TRUE(Root["propagation"]["diverged"].B);
  EXPECT_EQ(Root["propagation"]["divergence_ordinal"].Num, 41.0);
  EXPECT_EQ(Root["propagation"]["divergence_key"].Num, 777.0);
  EXPECT_EQ(Root["propagation"]["divergence_pc"].Str, "0x10140");
  EXPECT_EQ(Root["propagation"]["tainted_blocks"].Num, 3.0);
  EXPECT_EQ(Root["propagation"]["checks_crossed"].Num, 2.0);
  EXPECT_EQ(Root["propagation"]["insns_crossed"].Num, 95.0);

  // A second write gets the next sequence number.
  std::string Path2 = Recorder.write(PM);
  ASSERT_FALSE(Path2.empty());
  EXPECT_NE(Path2, Path);
  EXPECT_EQ(Recorder.bundleCount(), 2u);
  std::filesystem::remove_all(Dir);
}

TEST(FlightRecorderTest, PropagationSectionOmittedWhenAbsent) {
  // Non-propagation runs must not grow a propagation section: version-1
  // consumers key tolerance off the member's absence, not a null value.
  PostMortem PM;
  PM.Reason = "trap";
  std::string Json = FlightRecorder::renderJson(PM, 8);
  EXPECT_EQ(Json.find("\"propagation\""), std::string::npos);
  JsonParser Parser(Json);
  JsonValue Root;
  ASSERT_TRUE(Parser.parse(Root)) << Json;
  EXPECT_FALSE(Root["propagation"]["present"].B);
}

TEST(FlightRecorderTest, Version1FixtureStillParses) {
  // Backward compatibility: a checked-in schema-v1 bundle (predating the
  // propagation section) must keep parsing, and the absent propagation
  // lookup must read as not-present rather than erroring.
  JsonValue Root;
  ASSERT_TRUE(parseBundle(
      std::string(CFED_TEST_FIXTURE_DIR) + "/postmortem_v1.json", Root));
  EXPECT_EQ(Root["version"].Num, 1.0);
  EXPECT_EQ(Root["reason"].Str, "campaign-injection");
  EXPECT_EQ(Root["stop"]["trap"].Str, "sig-mismatch");
  EXPECT_EQ(Root["note"].Str, "det-sig");
  EXPECT_EQ(Root["annotations"]["bit"].Num, 9.0);
  EXPECT_FALSE(Root["recovery"]["present"].B);
  EXPECT_FALSE(Root["propagation"]["present"].B);
  EXPECT_EQ(Root["propagation"].K, JsonValue::Null);
}

TEST(FlightRecorderTest, EventWindowKeepsLastN) {
  PostMortem PM;
  for (uint64_t I = 0; I < 10; ++I)
    PM.Events.push_back({I, telemetry::TraceEventKind::BlockChained,
                         nullptr, 0x10000 + I * InsnSize, 0});
  std::string Json = FlightRecorder::renderJson(PM, 3);
  JsonParser Parser(Json);
  JsonValue Root;
  ASSERT_TRUE(Parser.parse(Root)) << Json;
  ASSERT_EQ(Root["events"].Items.size(), 3u);
  EXPECT_EQ(Root["events"].Items[0]["ts"].Num, 7.0);
  EXPECT_EQ(Root["events"].Items[2]["ts"].Num, 9.0);
}

TEST(FlightRecorderTest, DbtBuildsBundleOnTrap) {
  // A wild jump into the data segment: the DBT's page protections trap,
  // and buildPostMortem must capture the stop, the traced events, and
  // both disassembly views of the faulting region.
  AsmProgram Program = assembleOk(R"(
.entry main
main:
  movi r1, table
  jmpr r1               ; lands on data -> exec violation
  halt
.data
table: .word 0
)");
  Memory Mem;
  Interpreter Interp(Mem);
  telemetry::EventTracer Tracer(64);
  Dbt Translator(Mem, DbtConfig{});
  Translator.setTracer(&Tracer);
  ASSERT_TRUE(Translator.load(Program, Interp.state()));
  StopInfo Stop = Translator.run(Interp, 100000);
  ASSERT_EQ(Stop.Kind, StopKind::Trapped);

  PostMortem PM = Translator.buildPostMortem("trap", Stop, Interp);
  EXPECT_EQ(PM.Reason, "trap");
  EXPECT_EQ(PM.StopKind, "trap");
  EXPECT_FALSE(PM.TrapName.empty());
  EXPECT_EQ(PM.Regs.size(), static_cast<size_t>(NumIntRegs));
  EXPECT_FALSE(PM.Events.empty());
  EXPECT_GT(PM.Insns, 0u);
  EXPECT_GT(PM.Registry.counterOr("dbt.translations"), 0u);

  std::string Dir = scratchDir("dbttrap");
  FlightRecorder Recorder(Dir);
  std::string Path = Recorder.write(PM);
  ASSERT_FALSE(Path.empty()) << Recorder.lastError();
  JsonValue Root;
  ASSERT_TRUE(parseBundle(Path, Root));
  EXPECT_EQ(Root["stop"]["kind"].Str, "trap");
  EXPECT_FALSE(Root["events"].Items.empty());
  EXPECT_GT(Root["registry"]["counters"]["dbt.translations"].Num, 0.0);
  std::filesystem::remove_all(Dir);
}

TEST(FlightRecorderTest, RecoveryLadderWritesEscalationBundles) {
  // A persistent cache fault marches the ladder through rollbacks,
  // degradation and interpreter fallback; every escalation writes one
  // bundle, and the last one must record the fallback.
  RandomProgramOptions Options;
  Options.Seed = 6;
  AsmProgram Program = assembleOk(generateRandomProgram(Options));
  DbtConfig Config;
  Config.Tech = Technique::EdgCf;

  Memory Mem;
  Interpreter Interp(Mem);
  Dbt Translator(Mem, Config);
  ASSERT_TRUE(Translator.load(Program, Interp.state()));
  StuckAtCacheBranchFault Fault(20);
  Interp.setFaultHook(&Fault);

  RecoveryConfig RC;
  RC.CheckpointInterval = 1000;
  RC.MaxSiteRollbacks = 1;
  RC.MaxTotalRollbacks = 3;
  RecoveryManager Manager(Interp, Translator, RC);
  std::string Dir = scratchDir("ladder");
  FlightRecorder Recorder(Dir, 64);
  Manager.setFlightRecorder(&Recorder);
  RecoveryReport Report = Manager.run(10000000);

  ASSERT_TRUE(Report.InterpreterFallback);
  // At least one detection bundle plus the degradation and fallback
  // escalation bundles.
  ASSERT_GE(Recorder.bundleCount(), 3u);
  JsonValue Last;
  ASSERT_TRUE(parseBundle(Recorder.lastPath(), Last));
  EXPECT_EQ(Last["reason"].Str, "interpreter-fallback");
  EXPECT_TRUE(Last["recovery"]["present"].B);
  EXPECT_TRUE(Last["recovery"]["interpreter_fallback"].B);
  EXPECT_GT(Last["recovery"]["rollbacks"].Num, 0.0);

  // The first bundle is the initial trap detection, before any fallback.
  JsonValue First;
  ASSERT_TRUE(parseBundle(Dir + "/postmortem_0000.json", First));
  EXPECT_EQ(First["reason"].Str, "trap");
  EXPECT_FALSE(First["recovery"]["interpreter_fallback"].B);
  std::filesystem::remove_all(Dir);
}

TEST(FlightRecorderTest, CampaignInjectionWritesAnnotatedBundle) {
  RandomProgramOptions Options;
  Options.Seed = 4;
  AsmProgram Program = assembleOk(generateRandomProgram(Options));
  DbtConfig Config;
  Config.Tech = Technique::EdgCf;
  FaultCampaign Campaign(Program, Config);
  ASSERT_TRUE(Campaign.prepare(10000000));

  const PlannedFault *Chosen = nullptr;
  std::vector<PlannedFault> Faults = Campaign.plan(40, 7, SiteClass::Any);
  for (const PlannedFault &Fault : Faults)
    if (Fault.Category != BranchErrorCategory::NoError) {
      Chosen = &Fault;
      break;
    }
  ASSERT_NE(Chosen, nullptr);

  std::string Dir = scratchDir("campaign");
  FlightRecorder Recorder(Dir, 32);
  Recorder.setPrefix("injection_");
  InjectionReport Report = Campaign.injectDetailed(*Chosen, &Recorder);
  ASSERT_EQ(Recorder.bundleCount(), 1u);

  JsonValue Root;
  ASSERT_TRUE(parseBundle(Recorder.lastPath(), Root));
  EXPECT_EQ(Root["reason"].Str, "campaign-injection");
  EXPECT_EQ(Root["note"].Str, getOutcomeName(Report.Result));
  EXPECT_EQ(Root["annotations"]["bit"].Num,
            static_cast<double>(Chosen->Bit));
  EXPECT_EQ(Root["annotations"]["fired"].Num, Report.Fired ? 1.0 : 0.0);
  EXPECT_EQ(Root["annotations"]["instance"].Num,
            static_cast<double>(Chosen->Instance));
  // The per-injection tracer was attached for the bundle's event window.
  EXPECT_FALSE(Root["events"].Items.empty());
  std::filesystem::remove_all(Dir);
}

} // namespace
