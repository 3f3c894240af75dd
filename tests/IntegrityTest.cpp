//===- IntegrityTest.cpp - Tests for DBT self-integrity protection -------------===//
//
// The "guard the guardian" subsystem: code-cache scrubbing, sealed
// metadata, IBTC check words, shadow-signature cross-checks, and the
// checker-targeted fault campaigns (DESIGN.md §10). These run as their
// own ctest executable labelled `integrity` so CI can run the subset
// under sanitizers.
//
//===----------------------------------------------------------------------===//

#include "asm/Assembler.h"
#include "dbt/Dbt.h"
#include "fault/IntegrityFault.h"
#include "sig/FormalModel.h"
#include "support/CliArgs.h"
#include "support/Prng.h"
#include "vm/Layout.h"
#include "workloads/RandomProgram.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <set>

using namespace cfed;

namespace {

AsmProgram assembleRandom(uint64_t Seed, unsigned Segments = 6) {
  RandomProgramOptions Options;
  Options.Seed = Seed;
  Options.NumSegments = Segments;
  Options.LoopTrip = 12;
  AsmResult Result = assembleProgram(generateRandomProgram(Options));
  EXPECT_TRUE(Result.succeeded()) << Result.errorText();
  return Result.Program;
}

/// The full assurance configuration the checker-targeted campaign runs:
/// unchained dispatch with per-dispatch verification, frequent scrubs
/// and shadow signatures.
DbtConfig assuranceConfig() {
  DbtConfig Config;
  Config.Tech = Technique::EdgCf;
  Config.Flavor = UpdateFlavor::CMovcc;
  Config.ChainDirectExits = false;
  Config.VerifyDispatchInterval = 1;
  Config.ScrubInterval = 16;
  Config.ShadowSignature = true;
  return Config;
}

/// Golden output of \p Program under \p Config (no faults).
std::string goldenOutput(const AsmProgram &Program, const DbtConfig &Config) {
  Memory Mem;
  Interpreter Interp(Mem);
  Dbt Translator(Mem, Config);
  EXPECT_TRUE(Translator.load(Program, Interp.state()))
      << Translator.loadError();
  StopInfo Stop = Translator.run(Interp, 10000000ULL);
  EXPECT_EQ(Stop.Kind, StopKind::Halted) << getTrapKindName(Stop.Trap);
  return Interp.output();
}

} // namespace

//===----------------------------------------------------------------------===//
// Scrubbing and dispatch verification
//===----------------------------------------------------------------------===//

TEST(IntegrityTest, ScrubFindsNothingOnCleanCache) {
  AsmProgram Program = assembleRandom(5);
  Memory Mem;
  Interpreter Interp(Mem);
  Dbt Translator(Mem, assuranceConfig());
  ASSERT_TRUE(Translator.load(Program, Interp.state()));
  StopInfo Stop = Translator.run(Interp, 10000000ULL);
  ASSERT_EQ(Stop.Kind, StopKind::Halted);
  EXPECT_GT(Translator.integrityScrubCount(), 0u);
  EXPECT_EQ(Translator.integrityMismatchCount(), 0u);
  EXPECT_EQ(Translator.scrubCodeCache(), 0u);
}

TEST(IntegrityTest, ScrubQuarantinesAndRetranslatesCorruptedBlock) {
  AsmProgram Program = assembleRandom(6);
  Memory Mem;
  Interpreter Interp(Mem);
  Dbt Translator(Mem, assuranceConfig());
  ASSERT_TRUE(Translator.load(Program, Interp.state()));
  StopInfo Stop = Translator.run(Interp, 10000000ULL);
  ASSERT_EQ(Stop.Kind, StopKind::Halted);
  ASSERT_FALSE(Translator.blocks().empty());

  const TranslatedBlock &Victim = *Translator.blocks().begin();
  uint64_t Guest = Victim.GuestAddr;
  uint64_t Addr = Victim.CacheAddr + Victim.CacheSize / 2;
  uint8_t Byte;
  Mem.readRaw(Addr, &Byte, 1);
  Byte ^= 0x10;
  Mem.writeRaw(Addr, &Byte, 1);

  EXPECT_FALSE(Translator.verifyGuestBlock(Guest));
  uint64_t MismatchesBefore = Translator.integrityMismatchCount();
  EXPECT_GE(Translator.scrubCodeCache(), 1u);
  EXPECT_GT(Translator.integrityMismatchCount(), MismatchesBefore);
  // The unit was quarantined and its head eagerly retranslated; whatever
  // now lives at the guest address verifies clean.
  EXPECT_GT(Translator.integrityRetranslationCount(), 0u);
  EXPECT_TRUE(Translator.verifyGuestBlock(Guest));
}

TEST(IntegrityTest, MidRunCodeCorruptionSelfHealsToGoldenOutput) {
  // A single-bit flip of a translated block's bytes mid-run, injected
  // exactly the way the checker-targeted campaign does it: the run must
  // finish with the fault-free output and the integrity counters must
  // show the machinery (dispatch verify or scrub) actually fired.
  AsmProgram Program = assembleRandom(7);
  DbtConfig Config = assuranceConfig();
  std::string Golden = goldenOutput(Program, Config);

  Memory Mem;
  Interpreter Interp(Mem);
  Dbt Translator(Mem, Config);
  ASSERT_TRUE(Translator.load(Program, Interp.state()));
  IntegrityFaultInjector Hook(Mem, Translator, IntegrityTarget::CodeByte,
                              /*Pick=*/0x9e3779b9, /*Bit=*/3);
  Interp.armFault(&Hook, /*AtInsn=*/2500);
  StopInfo Stop = Translator.run(Interp, 40000000ULL);
  ASSERT_EQ(Stop.Kind, StopKind::Halted) << getTrapKindName(Stop.Trap);
  EXPECT_TRUE(Hook.fired());
  EXPECT_EQ(Interp.output(), Golden);
  EXPECT_GT(Translator.integrityMismatchCount(), 0u);
  EXPECT_GT(Translator.integrityRetranslationCount(), 0u);
}

namespace {

/// The number of distinct translation units \p Translator holds.
size_t countUnits(const Dbt &Translator) {
  std::set<uint64_t> Ends;
  for (const TranslatedBlock &TB : Translator.blocks())
    Ends.insert(TB.CacheAddr + TB.CacheSize);
  return Ends.size();
}

/// An integrity injector that records the instant and the translated
/// units of every instruction it is offered.
class WatchedInjector : public IntegrityFaultInjector {
public:
  WatchedInjector(Memory &Mem, Dbt &Translator, const Interpreter &Interp)
      : IntegrityFaultInjector(Mem, Translator, IntegrityTarget::CodeByte,
                               /*Pick=*/0x9e3779b9, /*Bit=*/3),
        Translator(Translator), Interp(Interp) {}

  std::vector<std::pair<uint64_t, size_t>> Offers; // (instant, units)

  bool apply(uint64_t InsnAddr, Instruction &I, Flags &F,
             CpuState &State) override {
    Offers.emplace_back(Interp.instructionCount(), countUnits(Translator));
    return IntegrityFaultInjector::apply(InsnAddr, I, F, State);
  }

private:
  const Dbt &Translator;
  const Interpreter &Interp;
};

} // namespace

TEST(IntegrityTest, CodeByteFaultStaysArmedUntilASecondUnitExists) {
  // Armed at the first instruction, while the only translated unit is
  // the one executing, a code-byte fault has no victim: it stays armed,
  // is offered each following instruction, and strikes at the first one
  // with another unit to corrupt.
  AsmProgram Program = assembleRandom(7);
  DbtConfig Config = assuranceConfig();
  std::string Golden = goldenOutput(Program, Config);

  Memory Mem;
  Interpreter Interp(Mem);
  Dbt Translator(Mem, Config);
  ASSERT_TRUE(Translator.load(Program, Interp.state()));
  ASSERT_LE(countUnits(Translator), 1u);
  WatchedInjector Hook(Mem, Translator, Interp);
  Interp.armFault(&Hook, /*AtInsn=*/1);
  StopInfo Stop = Translator.run(Interp, 40000000ULL);
  ASSERT_TRUE(Hook.fired());
  ASSERT_GT(Hook.Offers.size(), 1u);
  for (size_t I = 0; I < Hook.Offers.size(); ++I) {
    EXPECT_EQ(Hook.Offers[I].first, 1 + I);
    if (I + 1 < Hook.Offers.size()) {
      EXPECT_LE(Hook.Offers[I].second, 1u) << "offer " << I;
    }
  }
  EXPECT_GE(Hook.Offers.back().second, 2u);
  ASSERT_EQ(Stop.Kind, StopKind::Halted) << getTrapKindName(Stop.Trap);
  EXPECT_EQ(Interp.output(), Golden);
}

//===----------------------------------------------------------------------===//
// Metadata hardening
//===----------------------------------------------------------------------===//

TEST(IntegrityTest, FlippedBlockMetadataCaughtByScrub) {
  // Every word of the sealed header is covered: a flip of GuestAddr,
  // CacheAddr or CacheSize breaks the integrity word even though the
  // cache bytes themselves are intact.
  for (unsigned Word = 0; Word < 3; ++Word) {
    AsmProgram Program = assembleRandom(8);
    Memory Mem;
    Interpreter Interp(Mem);
    Dbt Translator(Mem, assuranceConfig());
    ASSERT_TRUE(Translator.load(Program, Interp.state()));
    StopInfo Stop = Translator.run(Interp, 10000000ULL);
    ASSERT_EQ(Stop.Kind, StopKind::Halted);
    ASSERT_TRUE(Translator.faultFlipBlockMetaBit(1, Word, 7));
    EXPECT_GE(Translator.scrubCodeCache(), 1u)
        << "metadata word " << Word << " flip went unnoticed";
    EXPECT_GT(Translator.integrityMismatchCount(), 0u);
  }
}

TEST(IntegrityTest, FlippedIbtcEntryDroppedOnNextProbe) {
  // Flip a bit of a live IBTC entry's cached target between two runs of
  // the same program on one translator: the re-run probes the same
  // direct-mapped slots, the check word no longer matches, and the
  // entry is dropped to the (correct) slow path instead of being
  // followed.
  AsmProgram Program = assembleRandom(9);
  DbtConfig Config = assuranceConfig();
  std::string Golden = goldenOutput(Program, Config);

  Memory Mem;
  Interpreter Interp(Mem);
  Dbt Translator(Mem, Config);
  ASSERT_TRUE(Translator.load(Program, Interp.state()));
  StopInfo Stop = Translator.run(Interp, 10000000ULL);
  ASSERT_EQ(Stop.Kind, StopKind::Halted);
  ASSERT_TRUE(Translator.faultFlipIbtcBit(0, 9))
      << "expected at least one live IBTC entry";

  Interpreter Rerun(Mem);
  ASSERT_TRUE(Translator.load(Program, Rerun.state()));
  uint64_t MismatchesBefore = Translator.integrityMismatchCount();
  Stop = Translator.run(Rerun, 10000000ULL);
  ASSERT_EQ(Stop.Kind, StopKind::Halted) << getTrapKindName(Stop.Trap);
  EXPECT_EQ(Rerun.output(), Golden);
  EXPECT_GT(Translator.integrityMismatchCount(), MismatchesBefore);
}

//===----------------------------------------------------------------------===//
// Checker-targeted campaign
//===----------------------------------------------------------------------===//

TEST(IntegrityTest, CampaignHasZeroSdcUnderAssuranceConfig) {
  AsmProgram Program = assembleRandom(11, 4);
  IntegrityCampaignResult Result = runIntegrityCampaign(
      Program, assuranceConfig(), /*PerTarget=*/10, /*Seed=*/77,
      /*MaxInsns=*/50000000ULL, /*Jobs=*/2);
  EXPECT_EQ(Result.Injections, 30u);
  OutcomeCounts Totals = Result.totals();
  EXPECT_EQ(Totals.total(), Result.Injections);
  EXPECT_EQ(Totals.Sdc, 0u);
  EXPECT_EQ(Totals.Timeout, 0u);
  // The campaign is not vacuous: some faults bite and are handled.
  EXPECT_GT(Totals.DetectedSig + Totals.Recovered, 0u);
}

TEST(IntegrityTest, CampaignIsJobsInvariant) {
  AsmProgram Program = assembleRandom(12, 4);
  DbtConfig Config = assuranceConfig();
  IntegrityCampaignResult Serial = runIntegrityCampaign(
      Program, Config, /*PerTarget=*/6, /*Seed=*/123, 50000000ULL, 1);
  IntegrityCampaignResult Parallel = runIntegrityCampaign(
      Program, Config, /*PerTarget=*/6, /*Seed=*/123, 50000000ULL, 4);
  for (IntegrityTarget Target : AllIntegrityTargets)
    EXPECT_TRUE(Serial.of(Target) == Parallel.of(Target))
        << getIntegrityTargetName(Target);
}

TEST(IntegrityTest, ChainPatchResealSkipsImplausibleEntries) {
  // Regression: with chained exits, a chain patch reseals every block
  // covering the patched site. A flipped table entry whose cache range
  // leaves the allocated cache used to be hashed there too, and the raw
  // read past the cache end aborted the whole campaign. Resealing now
  // applies the same plausibility check as verification, so the entry
  // keeps its stale word and the next verification catches it.
  DbtConfig Config;
  Config.Tech = Technique::EdgCf;
  Config.ChainDirectExits = true;
  Config.ScrubInterval = 16;
  Config.VerifyDispatchInterval = 4;
  Config.ShadowSignature = true;
  IntegrityCampaignResult Result =
      runIntegrityCampaign(assembleWorkload("164.gzip"), Config,
                           /*PerTarget=*/6, /*Seed=*/11, 50000000ULL, 1);
  EXPECT_EQ(Result.Injections, 18u);
  EXPECT_EQ(Result.totals().total(), Result.Injections);
}

TEST(IntegrityTest, OutcomeCounterNamesAreWellFormed) {
  EXPECT_STREQ(getIntegrityTargetName(IntegrityTarget::CodeByte), "code");
  EXPECT_STREQ(getIntegrityTargetName(IntegrityTarget::TableEntry), "meta");
  EXPECT_STREQ(getIntegrityTargetName(IntegrityTarget::SigState), "sig");
  EXPECT_EQ(getIntegrityOutcomeCounterName(IntegrityTarget::CodeByte,
                                           Outcome::Recovered),
            "fault.int_code.recovered");
  EXPECT_EQ(getIntegrityOutcomeCounterName(IntegrityTarget::SigState,
                                           Outcome::DetectedSignature),
            "fault.int_sig.det-sig");
}

//===----------------------------------------------------------------------===//
// Formal model: corrupted-monitor condition
//===----------------------------------------------------------------------===//

TEST(IntegrityTest, FormalModelSeparatesMonitorCorruptionFromCfe) {
  using namespace cfed::sig;
  Prng Rng(21);
  AbstractCfg Cfg = AbstractCfg::random(Rng, 12);
  for (auto Make : {makeEdgCfScheme, makeRcfScheme}) {
    std::unique_ptr<Scheme> S = Make();
    S->prepare(Cfg);
    MonitorCorruptionReport Report =
        verifyMonitorCorruptionDetection(*S, Cfg, /*PathLen=*/40,
                                         /*Seed=*/31);
    ASSERT_GT(Report.FlipsTotal, 0u);
    // Every flip is either flagged by the shadow cross-check or provably
    // dies before any check observes it — there is no third bucket.
    EXPECT_EQ(Report.FlaggedAsMonitor + Report.SilentlyMasked,
              Report.FlipsTotal);
    EXPECT_GT(Report.FlaggedAsMonitor, 0u);
    // Without the shadow, at least some of those same flips would have
    // failed the scheme's own check and been misreported as guest CFEs
    // — the misclassification the 0x5EC break code removes.
    EXPECT_GT(Report.MisclassifiedWithoutShadow, 0u);
    EXPECT_LE(Report.MisclassifiedWithoutShadow, Report.FlipsTotal);
  }
}

//===----------------------------------------------------------------------===//
// Strict CLI parsing helpers
//===----------------------------------------------------------------------===//

TEST(IntegrityTest, CliParseUintIsStrict) {
  uint64_t V = 0;
  EXPECT_TRUE(cli::parseUint("42", V));
  EXPECT_EQ(V, 42u);
  EXPECT_TRUE(cli::parseUint("0x10", V));
  EXPECT_EQ(V, 16u);
  EXPECT_FALSE(cli::parseUint("", V));
  EXPECT_FALSE(cli::parseUint("12abc", V));
  EXPECT_FALSE(cli::parseUint("-3", V));
  EXPECT_FALSE(cli::parseUint("+3", V));
  EXPECT_FALSE(cli::parseUint("99999999999999999999999", V));
  EXPECT_FALSE(cli::parseUint("4 ", V));
}

TEST(IntegrityTest, CliParseDoubleIsStrict) {
  double D = 0;
  EXPECT_TRUE(cli::parseDouble("2.5", D));
  EXPECT_DOUBLE_EQ(D, 2.5);
  EXPECT_FALSE(cli::parseDouble("", D));
  EXPECT_FALSE(cli::parseDouble("2.5x", D));
  EXPECT_FALSE(cli::parseDouble("pct", D));
}

TEST(IntegrityTest, CliSplitFlagSeparatesNameAndValue) {
  cli::Flag F;
  ASSERT_TRUE(cli::splitFlag("--scrub=64", F));
  EXPECT_EQ(F.Name, "--scrub");
  EXPECT_TRUE(F.HasValue);
  EXPECT_EQ(F.Value, "64");
  ASSERT_TRUE(cli::splitFlag("--shadow-sig", F));
  EXPECT_EQ(F.Name, "--shadow-sig");
  EXPECT_FALSE(F.HasValue);
  EXPECT_FALSE(cli::splitFlag("program.s", F));
  EXPECT_FALSE(cli::splitFlag("-n", F));
}
