//===- Suite.cpp - Set-up and protected-suite ops for hostbench -----------===//

#include "Bench.h"

#include "support/Prng.h"
#include "vm/Loader.h"

#include <cstdio>
#include <string>

using namespace hostbench;

namespace {

/// Instruction budget generous enough for every suite program.
constexpr uint64_t RunBudget = 200000000ULL;

/// Timings and outcome of one op.
struct OpSample {
  double InstanceNs = 0;
  double LoadNs = 0;
  double RunNs = 0;
  bool Loaded = true;
  StopInfo Stop;
  uint64_t Hash = 0;
  OpCounts Counts;
};

void readMemoryCounts(const Memory &Mem, const Interpreter &Interp,
                      OpCounts &C) {
  C.Insns = Interp.instructionCount();
  C.Cycles = Interp.cycleCount();
  C.PredecodeHits = Mem.predecodeHitCount();
  C.PredecodeMisses = Mem.predecodeMissCount();
}

/// Fresh Memory/Interpreter, native load, run to a stop.
OpSample runNativeOp(const Program &P, Tracer &T) {
  OpSample S;
  uint64_t C0 = threadCpuNs();
  int32_t Span = T.begin("vm.instance");
  Memory Mem;
  Interpreter Interp(Mem);
  loadProgram(P.Asm, LoadMode::Native, Mem, Interp.state());
  T.end(Span);
  uint64_t C1 = threadCpuNs();
  Span = T.begin("vm.run");
  S.Stop = Interp.run(RunBudget);
  T.end(Span);
  uint64_t C2 = threadCpuNs();
  S.InstanceNs = double(C1 - C0);
  S.RunNs = double(C2 - C1);
  S.Hash = hashOutput(Interp.output());
  readMemoryCounts(Mem, Interp, S.Counts);
  return S;
}

/// Fresh Memory/Interpreter/Dbt, load(), run() to a stop.
OpSample runDbtOp(const Program &P, ConfigId Cfg, Tracer &T) {
  OpSample S;
  uint64_t C0 = threadCpuNs();
  int32_t Span = T.begin("vm.instance");
  Memory Mem;
  Interpreter Interp(Mem);
  T.end(Span);
  uint64_t C1 = threadCpuNs();
  Span = T.begin("dbt.load");
  Dbt Translator(Mem, dbtConfig(Cfg));
  S.Loaded = Translator.load(P.Asm, Interp.state());
  T.end(Span);
  uint64_t C2 = threadCpuNs();
  S.InstanceNs = double(C1 - C0);
  S.LoadNs = double(C2 - C1);
  if (!S.Loaded)
    return S;
  Span = T.begin("dbt.run");
  S.Stop = Translator.run(Interp, RunBudget);
  T.end(Span);
  S.RunNs = double(threadCpuNs() - C2);
  S.Hash = hashOutput(Interp.output());
  readMemoryCounts(Mem, Interp, S.Counts);
  OpCounts &C = S.Counts;
  C.Translations = Translator.translationCount();
  C.Dispatches = Translator.dispatchCount();
  C.Chains = Translator.chainCount();
  C.IbtcHits = Translator.ibtcHitCount();
  C.IbtcMisses = Translator.ibtcMissCount();
  C.Promotions = Translator.tracePromotionCount();
  C.ChecksElided = Translator.checksElidedCount();
  C.Scrubs = Translator.integrityScrubCount();
  return S;
}

const Technique CheckedTechs[] = {Technique::Ecf, Technique::EdgCf,
                                  Technique::Rcf};

const char *techKey(Technique T) {
  switch (T) {
  case Technique::Ecf:
    return "ecf";
  case Technique::EdgCf:
    return "edgcf";
  case Technique::Rcf:
    return "rcf";
  default:
    return "none";
  }
}

} // namespace

const char *hostbench::configName(ConfigId Id) {
  static const char *const Names[NumConfigs] = {
      "native",  "none_base", "ecf_base",  "edgcf_base",
      "rcf_base", "none_opt", "edgcf_opt", "assured"};
  return Names[Id];
}

DbtConfig hostbench::dbtConfig(ConfigId Id) {
  DbtConfig C;
  switch (Id) {
  case CfgEcfBase:
    C.Tech = Technique::Ecf;
    break;
  case CfgEdgcfBase:
    C.Tech = Technique::EdgCf;
    break;
  case CfgRcfBase:
    C.Tech = Technique::Rcf;
    break;
  case CfgNoneOpt:
    C.Tier = DbtTier::Opt;
    break;
  case CfgEdgcfOpt:
    C.Tech = Technique::EdgCf;
    C.Tier = DbtTier::Opt;
    break;
  case CfgAssured:
    // "Hard to break": EdgCF plus every self-integrity layer.
    C.Tech = Technique::EdgCf;
    C.ScrubInterval = 16;
    C.VerifyDispatchInterval = 1;
    C.ShadowSignature = true;
    C.ShadowStack = true;
    break;
  default:
    break;
  }
  return C;
}

ConfigId hostbench::baseConfigOf(Technique T) {
  switch (T) {
  case Technique::Ecf:
    return CfgEcfBase;
  case Technique::Rcf:
    return CfgRcfBase;
  case Technique::EdgCf:
    return CfgEdgcfBase;
  default:
    return CfgNoneBase;
  }
}

SetupResult hostbench::runSetup(unsigned Reps, uint64_t ProcessStartNs,
                                Tracer &T) {
  SetupResult R;
  std::vector<double> SetupNs, AssembleNs, UnscaledNs;
  for (unsigned Rep = 0; Rep < Reps; ++Rep) {
    uint64_t Start = Rep == 0 ? ProcessStartNs : wallNs();
    T.nextOp();
    Scope Setup(T, "setup");
    std::vector<Program> Suite;
    uint64_t A0 = wallNs();
    for (const WorkloadInfo &Info : getWorkloadSuite()) {
      Scope S(T, "asm.assemble");
      Program P;
      P.Name = Info.Name;
      P.IsFp = Info.IsFp;
      P.Asm = assembleWorkload(Info.Name);
      Suite.push_back(std::move(P));
    }
    AssembleNs.push_back(double(wallNs() - A0));
    for (size_t I = 0; I < Suite.size(); ++I) {
      Program &P = Suite[I];
      OpSample S = runNativeOp(P, T);
      if (S.Stop.Kind != StopKind::Halted) {
        R.Failures.push_back(P.Name + "/native reference: " +
                             describeStop(S.Stop));
        continue;
      }
      P.RefHash = S.Hash;
      P.NativeInsns = S.Counts.Insns;
      if (Rep > 0 && (P.RefHash != R.Programs[I].RefHash ||
                      P.NativeInsns != R.Programs[I].NativeInsns))
        R.Failures.push_back(P.Name +
                             "/native reference differs between set-ups");
    }
    UnscaledNs.push_back(double(wallNs() - Start));
    // Timed after the set-up, so that the first one still starts at
    // process start.
    double Scale = ReferenceKernelNs / referenceCpuNs();
    SetupNs.push_back(UnscaledNs.back() * Scale);
    AssembleNs.back() *= Scale;
    if (Rep == 0)
      R.Programs = std::move(Suite);
  }
  R.SetupSeconds = median(SetupNs) / 1e9;
  R.UnscaledSetupSeconds = median(UnscaledNs) / 1e9;
  R.AssembleMs = median(AssembleNs) / 1e6;
  return R;
}

std::vector<std::pair<size_t, ConfigId>>
hostbench::suiteOrder(size_t NumPrograms, uint64_t Seed, uint64_t Pass) {
  // Programs in seeded order; each program's configurations back to back,
  // also in seeded order, so a slowdown ratio compares ops run within a
  // fraction of a second of each other.
  Prng Rng(Seed * 0x9e3779b97f4a7c15ULL + Pass);
  auto Shuffle = [&Rng](auto &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[Rng.nextBelow(I)]);
  };
  std::vector<size_t> Programs(NumPrograms);
  for (size_t P = 0; P < NumPrograms; ++P)
    Programs[P] = P;
  Shuffle(Programs);
  std::vector<std::pair<size_t, ConfigId>> Order;
  for (size_t P : Programs) {
    std::vector<ConfigId> Configs;
    for (unsigned C = 0; C < NumConfigs; ++C)
      Configs.push_back(ConfigId(C));
    Shuffle(Configs);
    for (ConfigId C : Configs)
      Order.emplace_back(P, C);
  }
  return Order;
}

SuiteRun::SuiteRun(const std::vector<Program> &Programs)
    : Programs(Programs),
      Timing(Programs.size(), std::vector<Samples>(NumConfigs)),
      Counts(Programs.size(), std::vector<OpCounts>(NumConfigs)),
      HaveCounts(Programs.size(), std::vector<bool>(NumConfigs)) {}

void SuiteRun::runPass(uint64_t Seed, Tracer &T) {
  double TranslatedNs = 0, TranslatedInsns = 0;
  std::vector<double> PassKernelNs;
  for (auto [Prog, Cfg] : suiteOrder(Programs.size(), Seed, Passes)) {
    const Program &P = Programs[Prog];
    History.emplace_back(Prog, Cfg);
    ++Attempted;
    T.nextOp();
    double KernelNs = referenceCpuNs(), Scale = ReferenceKernelNs / KernelNs;
    PassKernelNs.push_back(KernelNs);
    KernelNsAll.push_back(KernelNs);
    OpSample S;
    uint64_t C0 = threadCpuNs();
    {
      Scope Op(T, "suite.op");
      S = Cfg == CfgNative ? runNativeOp(P, T) : runDbtOp(P, Cfg, T);
    }
    double OpNs = double(threadCpuNs() - C0);

    std::string Problem;
    if (!S.Loaded)
      Problem = "load() refused the program";
    else if (S.Stop.Kind != StopKind::Halted)
      Problem = describeStop(S.Stop);
    else if (S.Hash != P.RefHash)
      Problem = "output hash differs from the native run";
    else if (HaveCounts[Prog][Cfg] && !(Counts[Prog][Cfg] == S.Counts))
      Problem = "instruction or layer counts differ between passes";
    if (!Problem.empty()) {
      Failures.push_back(P.Name + "/" + configName(Cfg) + ": " + Problem);
      continue;
    }
    Counts[Prog][Cfg] = S.Counts;
    HaveCounts[Prog][Cfg] = true;
    Samples &Smp = Timing[Prog][Cfg];
    Smp.OpNs.push_back(OpNs);
    Smp.RunNs.push_back(S.RunNs);
    Smp.ScaledRunNs.push_back(S.RunNs * Scale);
    Smp.InstanceNs.push_back(S.InstanceNs * Scale);
    if (Cfg != CfgNative) {
      Smp.LoadNs.push_back(S.LoadNs * Scale);
      TranslatedNs += S.RunNs;
      TranslatedInsns += double(S.Counts.Insns);
    }
  }
  ++Passes;
  if (TranslatedInsns > 0)
    PassInsnNs.push_back(TranslatedNs / TranslatedInsns);
  PassKernelUs.push_back(median(PassKernelNs) / 1e3);
}

double SuiteRun::hostRatio(size_t Prog, ConfigId Num, ConfigId Den) const {
  const std::vector<double> &N = Timing[Prog][Num].OpNs;
  const std::vector<double> &D = Timing[Prog][Den].OpNs;
  std::vector<double> Ratios;
  for (size_t I = 0; I < N.size() && I < D.size(); ++I)
    Ratios.push_back(N[I] / D[I]);
  return median(Ratios);
}

double SuiteRun::runNs(size_t Prog, ConfigId Cfg) const {
  return median(Timing[Prog][Cfg].ScaledRunNs);
}

double SuiteRun::runInsnNs(ConfigId Cfg) const {
  double Ns = 0, Insns = 0;
  for (size_t P = 0; P < Programs.size(); ++P) {
    Ns += runNs(P, Cfg);
    Insns += double(Counts[P][Cfg].Insns);
  }
  return Insns > 0 ? Ns / Insns : 0.0;
}

double SuiteRun::modelRatio(size_t Prog, ConfigId Num, ConfigId Den) const {
  double D = double(Counts[Prog][Den].Cycles);
  return D > 0 ? double(Counts[Prog][Num].Cycles) / D : 0.0;
}

double SuiteRun::hostSlowdown(ConfigId Num, ConfigId Den) const {
  std::vector<double> Ratios;
  for (size_t P = 0; P < Programs.size(); ++P)
    if (double R = hostRatio(P, Num, Den); R > 0)
      Ratios.push_back(R);
  return geomean(Ratios);
}

void SuiteRun::addMetrics(std::map<std::string, double> &E2E,
                          std::map<std::string, double> &Layer,
                          const SetupResult &Setup) const {
  double TranslatedNs = 0, TranslatedInsns = 0;
  for (size_t P = 0; P < Programs.size(); ++P)
    for (unsigned C = CfgNoneBase; C < NumConfigs; ++C) {
      TranslatedNs += runNs(P, ConfigId(C));
      TranslatedInsns += double(Counts[P][C].Insns);
    }
  E2E["guest_insn_ns"] = TranslatedInsns > 0 ? TranslatedNs / TranslatedInsns
                                             : 0.0;
  E2E["slowdown_edgcf"] = hostSlowdown(CfgEdgcfBase, CfgNoneBase);
  E2E["slowdown_assured"] = hostSlowdown(CfgAssured, CfgNoneBase);
  E2E["opt_vs_base"] = hostSlowdown(CfgEdgcfOpt, CfgEdgcfBase);

  std::vector<double> InstanceNs, LoadNs;
  // Per-pass layer counts: every op's counts repeat exactly on every
  // pass, so one pass's sum is the per-pass figure.
  OpCounts Pass;
  for (size_t P = 0; P < Programs.size(); ++P) {
    const Samples &N = Timing[P][CfgNative];
    InstanceNs.insert(InstanceNs.end(), N.InstanceNs.begin(),
                      N.InstanceNs.end());
    for (unsigned C = 0; C < NumConfigs; ++C) {
      const OpCounts &K = Counts[P][C];
      Pass.Insns += K.Insns;
      Pass.PredecodeHits += K.PredecodeHits;
      Pass.PredecodeMisses += K.PredecodeMisses;
      Pass.Translations += K.Translations;
      Pass.Dispatches += K.Dispatches;
      Pass.Chains += K.Chains;
      Pass.IbtcHits += K.IbtcHits;
      Pass.IbtcMisses += K.IbtcMisses;
      Pass.Promotions += K.Promotions;
      Pass.ChecksElided += K.ChecksElided;
      Pass.Scrubs += K.Scrubs;
      if (C != CfgNative)
        LoadNs.insert(LoadNs.end(), Timing[P][C].LoadNs.begin(),
                      Timing[P][C].LoadNs.end());
    }
  }
  auto Rate = [](uint64_t Hits, uint64_t Misses) {
    return Hits + Misses ? double(Hits) / double(Hits + Misses) : 0.0;
  };
  Layer["asm.assemble_ms"] = Setup.AssembleMs;
  Layer["host.reference_slowdown"] = median(KernelNsAll) / ReferenceKernelNs;
  Layer["vm.native_insn_ns"] = runInsnNs(CfgNative);
  Layer["vm.instance_us"] = median(InstanceNs) / 1e3;
  Layer["vm.predecode_hit_rate"] =
      Rate(Pass.PredecodeHits, Pass.PredecodeMisses);
  Layer["vm.predecode_lookups"] =
      double(Pass.PredecodeHits + Pass.PredecodeMisses);
  Layer["vm.insns"] = double(Pass.Insns);
  Layer["dbt.load_us"] = median(LoadNs) / 1e3;
  for (unsigned C = CfgNoneBase; C < NumConfigs; ++C)
    Layer[std::string("dbt.run_insn_ns.") + configName(ConfigId(C))] =
        runInsnNs(ConfigId(C));
  Layer["dbt.translations"] = double(Pass.Translations);
  Layer["dbt.dispatches"] = double(Pass.Dispatches);
  Layer["dbt.chains"] = double(Pass.Chains);
  Layer["dbt.ibtc_hit_rate"] = Rate(Pass.IbtcHits, Pass.IbtcMisses);
  Layer["dbt.ibtc_lookups"] = double(Pass.IbtcHits + Pass.IbtcMisses);
  Layer["dbt.overhead_vs_native"] = hostSlowdown(CfgNoneBase, CfgNative);
  Layer["dbt.trace.promotions"] = double(Pass.Promotions);
  Layer["dbt.trace.checks_elided"] = double(Pass.ChecksElided);
  Layer["dbt.integrity.scrubs"] = double(Pass.Scrubs);

  for (Technique Tech : CheckedTechs) {
    ConfigId Cfg = baseConfigOf(Tech);
    std::vector<double> InsnRatio, Model;
    double ExtraNs = 0, ExtraInsns = 0;
    for (size_t P = 0; P < Programs.size(); ++P) {
      const OpCounts &K = Counts[P][Cfg], &B = Counts[P][CfgNoneBase];
      if (B.Insns == 0 || K.Insns == 0)
        continue;
      InsnRatio.push_back(double(K.Insns) / double(B.Insns));
      Model.push_back(modelRatio(P, Cfg, CfgNoneBase));
      ExtraNs += runNs(P, Cfg) - runNs(P, CfgNoneBase);
      ExtraInsns += double(K.Insns) - double(B.Insns);
    }
    std::string Key = techKey(Tech);
    Layer["cfc.extra_insns." + Key] = geomean(InsnRatio);
    Layer["cfc.extra_insn_ns." + Key] = ExtraInsns > 0 ? ExtraNs / ExtraInsns
                                                       : 0;
    Layer["cfc.model_slowdown." + Key] = geomean(Model);
  }
  std::vector<double> Host, Model;
  for (size_t P = 0; P < Programs.size(); ++P) {
    Host.push_back(hostRatio(P, CfgEdgcfBase, CfgNoneBase));
    Model.push_back(modelRatio(P, CfgEdgcfBase, CfgNoneBase));
  }
  Layer["cfc.model_host_rank_corr"] = spearman(Model, Host);
}

void SuiteRun::printLedger() const {
  std::printf("guest ns/insn per pass, raw:");
  for (double Ns : PassInsnNs)
    std::printf(" %.3f", Ns);
  std::printf("\nreference kernel us per pass (median; %.0f at reference "
              "speed):",
              ReferenceKernelNs / 1e3);
  for (double Us : PassKernelUs)
    std::printf(" %.1f", Us);
  double FastestNs = 0, Insns = 0;
  for (size_t P = 0; P < Programs.size(); ++P)
    for (unsigned C = CfgNoneBase; C < NumConfigs; ++C) {
      FastestNs += fastest(Timing[P][C].RunNs);
      Insns += double(Counts[P][C].Insns);
    }
  std::printf("\nguest ns/insn, unscaled fastest runs: %.3f\n",
              Insns > 0 ? FastestNs / Insns : 0.0);
  std::printf("model-vs-host ledger (slowdown vs None, base tier; host = "
              "median over %llu passes of op CPU time ratios, model = cycle "
              "model)\n",
              (unsigned long long)Passes);
  std::printf("%-14s %9s %9s %9s   %9s %9s %9s\n", "program", "host.ECF",
              "host.EdgCF", "host.RCF", "model.ECF", "model.EdgCF",
              "model.RCF");
  std::vector<std::vector<double>> Host(3), Model(3);
  for (size_t P = 0; P < Programs.size(); ++P) {
    std::printf("%-14s", Programs[P].Name.c_str());
    for (unsigned K = 0; K < 3; ++K) {
      Host[K].push_back(
          hostRatio(P, baseConfigOf(CheckedTechs[K]), CfgNoneBase));
      std::printf(" %9.3f", Host[K].back());
    }
    std::printf("  ");
    for (unsigned K = 0; K < 3; ++K) {
      Model[K].push_back(
          modelRatio(P, baseConfigOf(CheckedTechs[K]), CfgNoneBase));
      std::printf(" %9.3f", Model[K].back());
    }
    std::printf("\n");
  }
  std::printf("%-14s", "geomean");
  for (unsigned K = 0; K < 3; ++K)
    std::printf(" %9.3f", geomean(Host[K]));
  std::printf("  ");
  for (unsigned K = 0; K < 3; ++K)
    std::printf(" %9.3f", geomean(Model[K]));
  std::printf("\n%-14s", "spearman");
  for (unsigned K = 0; K < 3; ++K)
    std::printf(" %9.3f", spearman(Model[K], Host[K]));
  std::printf("   (rank correlation of model and host, per technique)\n");
}
