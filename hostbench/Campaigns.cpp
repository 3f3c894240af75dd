//===- Campaigns.cpp - Fault and recovery campaigns for hostbench ---------===//

#include "Bench.h"

#include "fault/CampaignEngine.h"
#include "recovery/Recovery.h"
#include "support/Prng.h"

#include <cstdio>
#include <fstream>

using namespace hostbench;

namespace {

/// Golden-run instruction budget (the engine's default).
constexpr uint64_t GoldenBudget = 50000000ULL;

const Technique CellTechs[] = {Technique::Ecf, Technique::EdgCf,
                               Technique::Rcf};

std::string cellKey(const CampaignContext &Ctx, const char *Kind,
                    const Cell &C, uint64_t N) {
  return std::string(Kind) + " " + Ctx.Programs[C.Prog].Name + " " +
         getTechniqueName(C.Tech) + " " + std::to_string(N) + " " +
         std::to_string(C.Seed);
}

std::string tallyDigest(const CampaignResult &R) {
  std::vector<uint64_t> Words{R.Injections};
  for (const OutcomeCounts &C : R.PerCategory)
    for (uint64_t V : {C.DetectedSig, C.DetectedHw, C.Masked, C.Sdc, C.Timeout,
                       C.Recovered, C.RecoveryFailed})
      Words.push_back(V);
  return digestWords(Words);
}

void fail(CampaignContext &Ctx, const std::string &What) {
  Ctx.Failures.push_back(What);
}

/// Checks (or, when emitting, records) the digest of one cell.
bool checkDigest(CampaignContext &Ctx, const std::string &Key,
                 const std::string &Digest) {
  if (Ctx.Emitting) {
    Ctx.Got[Key] = Digest;
    return true;
  }
  auto It = Ctx.Want.find(Key);
  if (It == Ctx.Want.end()) {
    fail(Ctx, Key + ": no expected digest");
    return false;
  }
  if (It->second != Digest) {
    fail(Ctx, Key + ": outcome digest " + Digest + ", expected " + It->second);
    return false;
  }
  return true;
}

DbtConfig cellConfig(const Cell &C) { return dbtConfig(baseConfigOf(C.Tech)); }

/// Adds a cell's run to \p Stats, rescaled by the parallel reference
/// kernel timed right before and right after it.
void addScaledRun(CampaignStats &Stats, const CampaignContext &Ctx,
                  const Cell &C, uint64_t Injections, uint64_t Wall,
                  uint64_t Cpu, double RefBeforeNs) {
  double RefNs = (RefBeforeNs + referenceParallelCpuNs(Ctx.Jobs)) / 2;
  Stats.addRun(C, Injections, Wall, Cpu, ReferenceKernelNs / RefNs);
}

} // namespace

std::vector<Cell> hostbench::cellPool(const std::vector<Program> &Programs) {
  std::vector<Cell> Pool;
  for (size_t P = 0; P < Programs.size(); ++P)
    for (unsigned K = 0; K < 3; ++K)
      Pool.push_back(Cell{P, CellTechs[K], 1 + 3 * P + K});
  return Pool;
}

std::vector<Cell> hostbench::cellOrder(const std::vector<Program> &Programs,
                                       uint64_t Seed) {
  std::vector<Cell> Int, Fp;
  for (const Cell &C : cellPool(Programs))
    (Programs[C.Prog].IsFp ? Fp : Int).push_back(C);
  Prng Rng(Seed ^ 0x5eedce11ULL);
  for (std::vector<Cell> *Half : {&Int, &Fp})
    for (size_t I = Half->size(); I > 1; --I)
      std::swap((*Half)[I - 1], (*Half)[Rng.nextBelow(I)]);
  // Alternate the halves so any prefix of the order is stratified.
  std::vector<Cell> Order;
  for (size_t I = 0; I < Int.size() || I < Fp.size(); ++I) {
    if (I < Int.size())
      Order.push_back(Int[I]);
    if (I < Fp.size())
      Order.push_back(Fp[I]);
  }
  return Order;
}

std::vector<Cell> hostbench::sampleCells(const std::vector<Program> &Programs) {
  // Three int and three fp programs, one indirect-heavy (crafty), each
  // technique twice.
  const std::pair<const char *, Technique> Picks[] = {
      {"164.gzip", Technique::Ecf},    {"186.crafty", Technique::EdgCf},
      {"254.gap", Technique::Rcf},     {"171.swim", Technique::EdgCf},
      {"179.art", Technique::Rcf},     {"200.sixtrack", Technique::Ecf}};
  std::vector<Cell> Pool = cellPool(Programs), Cells;
  for (const auto &[Name, Tech] : Picks)
    for (const Cell &C : Pool)
      if (Programs[C.Prog].Name == Name && C.Tech == Tech)
        Cells.push_back(C);
  return Cells;
}

bool hostbench::loadExpected(const std::string &Path, Expected &Out,
                             std::string &Error) {
  std::ifstream In(Path);
  if (!In) {
    Error = "cannot read expected digests '" + Path + "'";
    return false;
  }
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    size_t Split = Line.rfind(' ');
    if (Split == std::string::npos || Line.size() - Split - 1 != 16) {
      Error = "malformed expected-digest line '" + Line + "'";
      return false;
    }
    Out[Line.substr(0, Split)] = Line.substr(Split + 1);
  }
  return true;
}

bool hostbench::saveExpected(const std::string &Path, const Expected &In) {
  std::ofstream Out(Path, std::ios::trunc);
  Out << "# Outcome digests of the hostbench campaign cells:\n"
         "# <kind> <program> <technique> <injections> <seed> <digest>.\n"
         "# Regenerate with: python3 hostbench/run.py --emit-expected\n";
  for (const auto &[Key, Digest] : In)
    Out << Key << ' ' << Digest << '\n';
  return bool(Out);
}

void hostbench::runFaultCells(CampaignContext &Ctx,
                              const std::vector<Cell> &Cells,
                              CampaignStats &Stats) {
  std::string Ckpt = Ctx.TmpDir + "/fault_cell.ckpt";
  for (const Cell &C : Cells) {
    ++Ctx.Attempted;
    Ctx.T.nextOp();
    EngineConfig E;
    E.NumInjections = FaultCellInjections;
    E.Seed = C.Seed;
    E.MaxInsns = GoldenBudget;
    E.Jobs = Ctx.Jobs;
    E.CheckpointFile = Ckpt;
    std::remove(Ckpt.c_str());
    double RefBeforeNs = referenceParallelCpuNs(Ctx.Jobs);
    uint64_t W0 = wallNs(), C0 = processCpuNs();
    EngineReport R;
    {
      Scope S(Ctx.T, "fault.engine_run");
      CampaignEngine Engine(Ctx.Programs[C.Prog].Asm, cellConfig(C), E);
      R = Engine.run();
    }
    uint64_t Wall = wallNs() - W0, Cpu = processCpuNs() - C0;
    std::remove(Ckpt.c_str());
    std::string Key = cellKey(Ctx, "fault", C, FaultCellInjections);
    if (!R.Finished || R.Planned == 0 || R.Completed != R.Planned) {
      fail(Ctx, Key + ": completed " + std::to_string(R.Completed) + " of " +
                    std::to_string(R.Planned) + " planned injections");
      continue;
    }
    if (!checkDigest(Ctx, Key, tallyDigest(R.Result)))
      continue;
    addScaledRun(Stats, Ctx, C, R.Completed, Wall, Cpu, RefBeforeNs);
    Stats.Totals.merge(R.Result.totals());
  }
}

void hostbench::runRecoveryCells(CampaignContext &Ctx,
                                 const std::vector<Cell> &Cells,
                                 CampaignStats &Stats) {
  for (const Cell &C : Cells) {
    ++Ctx.Attempted;
    Ctx.T.nextOp();
    std::string Key = cellKey(Ctx, "recovery", C, RecoveryCellInjections);
    double RefBeforeNs = referenceParallelCpuNs(Ctx.Jobs);
    uint64_t W0 = wallNs(), C0 = processCpuNs();
    FaultCampaign Campaign(Ctx.Programs[C.Prog].Asm, cellConfig(C));
    bool Prepared;
    {
      Scope S(Ctx.T, "fault.prepare");
      Prepared = Campaign.prepare(GoldenBudget);
    }
    CampaignResult R;
    if (Prepared) {
      Scope S(Ctx.T, "fault.run_with_recovery");
      R = Campaign.runWithRecovery(RecoveryCellInjections, C.Seed,
                                   SiteClass::Any, RecoveryConfig(),
                                   Ctx.Jobs);
    }
    uint64_t Wall = wallNs() - W0, Cpu = processCpuNs() - C0;
    if (!Prepared || R.Injections == 0 ||
        R.totals().total() != R.Injections) {
      fail(Ctx, Key + ": golden run or injections did not complete");
      continue;
    }
    if (!checkDigest(Ctx, Key, tallyDigest(R)))
      continue;
    telemetry::RegistrySnapshot Snap = Campaign.metrics().snapshot();
    addScaledRun(Stats, Ctx, C, R.Injections, Wall, Cpu, RefBeforeNs);
    Stats.Totals.merge(R.totals());
    Stats.Checkpoints += Snap.counterOr("recovery.checkpoints");
    Stats.Rollbacks += Snap.counterOr("recovery.rollbacks");
  }
}

void hostbench::runProbes(CampaignContext &Ctx, const std::vector<Cell> &Cells,
                          ProbeStats &Stats) {
  for (const Cell &C : Cells) {
    ++Ctx.Attempted;
    Ctx.T.nextOp();
    const Program &P = Ctx.Programs[C.Prog];
    FaultCampaign Campaign(P.Asm, cellConfig(C));
    double Scale = ReferenceKernelNs / referenceCpuNs();
    uint64_t T0 = threadCpuNs();
    bool Prepared;
    {
      Scope S(Ctx.T, "fault.prepare");
      Prepared = Campaign.prepare(GoldenBudget);
    }
    uint64_t T1 = threadCpuNs();
    std::string Key = cellKey(Ctx, "probe", C, FaultProbeInjections);
    if (!Prepared) {
      fail(Ctx, Key + ": golden run did not complete");
      continue;
    }
    std::vector<PlannedFault> Plan;
    {
      Scope S(Ctx.T, "fault.plan");
      Plan = Campaign.plan(FaultCellInjections * 4, C.Seed, SiteClass::Any);
    }
    uint64_t T2 = threadCpuNs();
    Stats.PrepareNs.push_back(double(T1 - T0) * Scale);
    Stats.PlanNs.push_back(double(T2 - T1) * Scale);

    // The engine's selection: the first non-NoError candidates in plan
    // order.
    std::vector<const PlannedFault *> Selected;
    for (const PlannedFault &F : Plan)
      if (F.Category != BranchErrorCategory::NoError &&
          Selected.size() < FaultProbeInjections)
        Selected.push_back(&F);
    std::vector<uint64_t> Words;
    for (const PlannedFault *F : Selected) {
      uint64_t I0 = threadCpuNs();
      Outcome O;
      {
        Scope S(Ctx.T, "fault.inject");
        O = Campaign.inject(*F);
      }
      Stats.InjectNs.push_back(double(threadCpuNs() - I0) * Scale);
      Words.push_back(uint64_t(O));
    }
    for (size_t I = 0; I < Selected.size() && I < RecoveryProbeInjections;
         ++I) {
      uint64_t I0 = threadCpuNs();
      FaultCampaign::RecoveryInjection Inj;
      {
        Scope S(Ctx.T, "fault.inject_with_recovery");
        Inj = Campaign.injectWithRecovery(*Selected[I], RecoveryConfig());
      }
      Stats.RecoveryInjectNs.push_back(double(threadCpuNs() - I0) * Scale);
      Words.push_back(uint64_t(Inj.Result));
      Words.push_back(Inj.Recovery.NumCheckpoints);
      Words.push_back(Inj.Recovery.NumRollbacks);
    }
    if (Selected.size() < FaultProbeInjections) {
      fail(Ctx, Key + ": plan yielded too few faults");
      continue;
    }
    if (!checkDigest(Ctx, Key, digestWords(Words)))
      continue;

    // Fault-free: plain Dbt::run against RecoveryManager::run.
    uint64_t Hashes[2] = {0, 0};
    bool Clean = true;
    for (unsigned WithRecovery = 0; WithRecovery < 2; ++WithRecovery) {
      Memory Mem;
      Interpreter Interp(Mem);
      Dbt Translator(Mem, cellConfig(C));
      if (!Translator.load(P.Asm, Interp.state())) {
        Clean = false;
        break;
      }
      uint64_t R0 = threadCpuNs();
      if (WithRecovery) {
        Scope S(Ctx.T, "recovery.run");
        RecoveryManager Manager(Interp, Translator, RecoveryConfig());
        RecoveryReport Rep = Manager.run(GoldenBudget);
        Clean &= Rep.Completed && Rep.NumRollbacks == 0;
        Stats.CleanRecoveryNs += threadCpuNs() - R0;
      } else {
        Scope S(Ctx.T, "dbt.run");
        Clean &= Translator.run(Interp, GoldenBudget).Kind == StopKind::Halted;
        Stats.CleanDbtNs += threadCpuNs() - R0;
      }
      Hashes[WithRecovery] = hashOutput(Interp.output());
    }
    if (!Clean || Hashes[0] != P.RefHash || Hashes[1] != P.RefHash)
      fail(Ctx, Key + ": fault-free run under recovery did not reproduce the "
                      "native output cleanly");
  }
}

void CampaignStats::addRun(const Cell &C, uint64_t Inj, uint64_t Wall,
                           uint64_t Cpu, double Scale) {
  ++Cells;
  Injections += Inj;
  WallNs += Wall;
  CpuNs += Cpu;
  ScaledWallNs += double(Wall) * Scale;
  CellRuns &Runs = PerCell[{C.Prog, C.Tech}];
  Runs.Injections = Inj;
  Runs.WallNs.push_back(double(Wall));
  Runs.CpuNs.push_back(double(Cpu));
  Runs.ScaledWallNs.push_back(double(Wall) * Scale);
  Runs.ScaledCpuNs.push_back(double(Cpu) * Scale);
}

void hostbench::addInjectionMetrics(std::map<std::string, double> &E2E,
                                    const CampaignStats &Stats) {
  double Inj = 0, Wall = 0, Cpu = 0, RawWall = 0, RawCpu = 0;
  for (const auto &[Key, Runs] : Stats.PerCell) {
    Inj += double(Runs.Injections);
    Wall += fastest(Runs.ScaledWallNs);
    Cpu += median(Runs.ScaledCpuNs);
    RawWall += fastest(Runs.WallNs);
    RawCpu += fastest(Runs.CpuNs);
  }
  E2E["inj_per_s"] = Wall > 0 ? Inj / (Wall / 1e9) : 0;
  E2E["inj_cpu_ms"] = Inj > 0 ? Cpu / 1e6 / Inj : 0;
  if (Inj > 0 && RawWall > 0)
    std::printf("injections, unscaled fastest runs: %.4g inj/s, %.4g ms CPU "
                "per injection\n",
                Inj / (RawWall / 1e9), RawCpu / 1e6 / Inj);
}

void hostbench::addCampaignLayerMetrics(std::map<std::string, double> &Layer,
                                        const CampaignStats &Fault,
                                        const CampaignStats &Recovery,
                                        const ProbeStats &Probe,
                                        unsigned Jobs) {
  double PrepareMs = median(Probe.PrepareNs) / 1e6;
  double PlanMs = median(Probe.PlanNs) / 1e6;
  Layer["fault.prepare_ms"] = PrepareMs;
  Layer["fault.plan_ms"] = PlanMs;
  Layer["fault.serial_share"] =
      Fault.ScaledWallNs > 0 ? (PrepareMs + PlanMs) * double(Fault.Cells) /
                                   (Fault.ScaledWallNs / 1e6)
                             : 0;
  Layer["fault.inject_ms.p50"] = quantile(Probe.InjectNs, 0.50) / 1e6;
  Layer["fault.inject_ms.p99"] = quantile(Probe.InjectNs, 0.99) / 1e6;
  Layer["fault.parallel_efficiency"] =
      Fault.WallNs ? double(Fault.CpuNs) / (double(Jobs) * double(Fault.WallNs))
                   : 0;
  const OutcomeCounts &T = Fault.Totals;
  double Base = double(T.total());
  auto Share = [Base](uint64_t N) { return Base > 0 ? double(N) / Base : 0; };
  Layer["fault.outcome_share.det_sig"] = Share(T.DetectedSig);
  Layer["fault.outcome_share.det_hw"] = Share(T.DetectedHw);
  Layer["fault.outcome_share.masked"] = Share(T.Masked);
  Layer["fault.outcome_share.sdc"] = Share(T.Sdc);
  Layer["fault.outcome_share.timeout"] = Share(T.Timeout);
  Layer["fault.outcome_base"] = Base;

  double RInj = double(Recovery.Injections);
  auto PerInj = [RInj](uint64_t N) { return RInj > 0 ? double(N) / RInj : 0; };
  Layer["recovery.inject_ms.p50"] =
      quantile(Probe.RecoveryInjectNs, 0.50) / 1e6;
  Layer["recovery.inject_ms.p99"] =
      quantile(Probe.RecoveryInjectNs, 0.99) / 1e6;
  Layer["recovery.clean_overhead"] =
      Probe.CleanDbtNs ? double(Probe.CleanRecoveryNs) /
                             double(Probe.CleanDbtNs)
                       : 0;
  Layer["recovery.checkpoints_per_inj"] = PerInj(Recovery.Checkpoints);
  Layer["recovery.rollbacks_per_inj"] = PerInj(Recovery.Rollbacks);
  Layer["recovery.recovered_share"] = PerInj(Recovery.Totals.Recovered);
}
