//===- cfed_stat.cpp - Offline telemetry analysis CLI ---------------------===//
//
// Part of the CFED project (CGO'06 control-flow error detection repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Post-hoc analysis of the artifacts the runtime leaves behind:
///
///   cfed-stat top FILE [-n N]            hottest counters/gauges of a
///                                        registry snapshot (or of the
///                                        registry embedded in a
///                                        flight-recorder bundle)
///   cfed-stat diff A B                   counter/gauge deltas between two
///                                        registry snapshots
///   cfed-stat postmortem FILE            render a flight-recorder bundle
///                                        as a human-readable report
///   cfed-stat bench-diff A B [--threshold P]
///                                        compare two BENCH_perf.json files
///                                        and fail (exit 1) on any metric
///                                        regressing by more than P percent
///                                        (default 10) — the CI gate used
///                                        by tools/check_bench_regression.sh
///   cfed-stat merge FILE... [-o OUT]     fold campaign shard result files
///                                        (cfed-run --campaign-out) into one
///                                        report identical to the unsharded
///                                        campaign's; shards of different
///                                        seeds, models or recovery settings
///                                        are refused
///   cfed-stat latency FILE               detection-latency table from the
///                                        fault.latency.* histograms of a
///                                        campaign result or registry
///                                        snapshot
///   cfed-stat prop FILE                  fault-propagation funnel (first
///                                        architectural divergence ->
///                                        outcome, per category) from the
///                                        prop.* instruments of a campaign
///                                        result, merged result or registry
///                                        snapshot (cfed-run --prop-trace)
///   cfed-stat precision FILE             per-technique precision matrix
///                                        (attack family x outcome) from
///                                        the attack.* instruments of an
///                                        adversarial campaign result or
///                                        registry snapshot (cfed-run
///                                        --campaign-attack)
///   cfed-stat tail FILE...               one-shot render of live-exporter
///                                        snapshot files (the same view
///                                        cfed-top refreshes continuously)
///
/// Everything here is read-only over JSON files plus the campaign
/// result/merge helpers of the fault library.
///
//===----------------------------------------------------------------------===//

#include "fault/CampaignEngine.h"
#include "support/CliArgs.h"
#include "support/FileIO.h"
#include "support/Format.h"
#include "support/Json.h"
#include "support/Table.h"
#include "telemetry/LiveExport.h"
#include "telemetry/LiveView.h"
#include "telemetry/Metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace cfed;
using cfed::json::JsonParser;
using cfed::json::JsonValue;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: cfed-stat <command> ...\n"
      "\n"
      "commands:\n"
      "  top FILE [-n N]                 top-N counters and gauges of a\n"
      "                                  registry snapshot JSON (also accepts\n"
      "                                  a flight-recorder bundle; default 20)\n"
      "  diff A B                        counter/gauge deltas between two\n"
      "                                  registry snapshots\n"
      "  postmortem FILE                 render a flight-recorder bundle\n"
      "  bench-diff A B [--threshold P]  compare BENCH_perf.json files; exit\n"
      "                                  1 if any metric regresses by more\n"
      "                                  than P%% (default 10)\n"
      "  merge FILE... [-o OUT]          fold campaign shard result files\n"
      "                                  into one report (equal to the\n"
      "                                  unsharded campaign's)\n"
      "  latency FILE                    detection-latency table from the\n"
      "                                  fault.latency.* histograms\n"
      "  prop FILE                       fault-propagation funnel from the\n"
      "                                  prop.* instruments of a campaign\n"
      "                                  run with --prop-trace\n"
      "  precision FILE                  precision matrix (attack family x\n"
      "                                  outcome) from the attack.*\n"
      "                                  instruments of an adversarial\n"
      "                                  campaign (--campaign-attack)\n"
      "  tail FILE...                    one-shot render of live-exporter\n"
      "                                  snapshots (cfed-top's view, once)\n");
}

bool readFile(const std::string &Path, std::string &Out) {
  if (readWholeFile(Path, Out))
    return true;
  std::fprintf(stderr, "cfed-stat: cannot open '%s'\n", Path.c_str());
  return false;
}

bool parseFile(const std::string &Path, JsonValue &Out) {
  std::string Text;
  if (!readFile(Path, Text))
    return false;
  JsonParser Parser(Text);
  if (!Parser.parse(Out)) {
    std::fprintf(stderr, "cfed-stat: '%s' is not parseable JSON\n",
                 Path.c_str());
    return false;
  }
  return true;
}

/// Returns the registry object of \p Root: the root itself when it has a
/// "counters" member, or the "registry" member of a flight-recorder
/// bundle. Null when neither shape matches.
const JsonValue &findRegistry(const JsonValue &Root) {
  static const JsonValue Missing;
  if (Root["counters"].K == JsonValue::Object)
    return Root;
  if (Root["registry"]["counters"].K == JsonValue::Object)
    return Root["registry"];
  return Missing;
}

std::string formatCount(double V) {
  if (V == static_cast<double>(static_cast<long long>(V)))
    return formatString("%lld", static_cast<long long>(V));
  return formatString("%.4f", V);
}

//===----------------------------------------------------------------------===//
// top
//===----------------------------------------------------------------------===//

int cmdTop(int Argc, char **Argv) {
  std::string Path;
  uint64_t TopN = 20;
  for (int I = 0; I < Argc; ++I) {
    std::string Arg = Argv[I];
    cli::Flag F;
    if (Arg == "-n") {
      std::string Value = I + 1 < Argc ? Argv[++I] : "";
      if (!cli::parseUint(Value, TopN) || !TopN) {
        cli::badValue("-n", "a positive <count>", Value);
        usage();
        return 2;
      }
    } else if (cli::splitFlag(Arg, F)) {
      cli::unknownOption(F.Name);
      usage();
      return 2;
    } else if (Path.empty()) {
      Path = Arg;
    } else {
      cli::extraPositional(Arg);
      usage();
      return 2;
    }
  }
  if (Path.empty()) {
    std::fprintf(stderr, "error: missing <file> argument\n");
    usage();
    return 2;
  }

  JsonValue Root;
  if (!parseFile(Path, Root))
    return 2;
  const JsonValue &Reg = findRegistry(Root);
  if (Reg.K != JsonValue::Object) {
    std::fprintf(stderr,
                 "cfed-stat: '%s' has no registry snapshot (no \"counters\" "
                 "object at the root or under \"registry\")\n",
                 Path.c_str());
    return 2;
  }

  std::vector<std::pair<std::string, double>> Counters;
  for (const auto &[Name, Val] : Reg["counters"].Fields)
    Counters.emplace_back(Name, Val.Num);
  std::sort(Counters.begin(), Counters.end(), [](const auto &A, const auto &B) {
    if (A.second != B.second)
      return A.second > B.second;
    return A.first < B.first;
  });

  Table T;
  T.setHeader({"counter", "value"});
  size_t Shown = 0;
  for (const auto &[Name, Val] : Counters) {
    if (Shown++ == TopN)
      break;
    T.addRow({Name, formatCount(Val)});
  }
  std::printf("%s", T.render().c_str());
  if (Counters.size() > TopN)
    std::printf("(%zu of %zu counters shown)\n", TopN, Counters.size());

  if (!Reg["gauges"].Fields.empty()) {
    Table G;
    G.setHeader({"gauge", "value"});
    for (const auto &[Name, Val] : Reg["gauges"].Fields)
      G.addRow({Name, formatString("%.4f", Val.Num)});
    std::printf("\n%s", G.render().c_str());
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// diff
//===----------------------------------------------------------------------===//

int cmdDiff(int Argc, char **Argv) {
  for (int I = 0; I < Argc; ++I) {
    cli::Flag F;
    if (cli::splitFlag(Argv[I], F)) {
      cli::unknownOption(F.Name);
      usage();
      return 2;
    }
  }
  if (Argc != 2) {
    usage();
    return 2;
  }
  JsonValue RootA, RootB;
  if (!parseFile(Argv[0], RootA) || !parseFile(Argv[1], RootB))
    return 2;
  const JsonValue &RegA = findRegistry(RootA);
  const JsonValue &RegB = findRegistry(RootB);
  if (RegA.K != JsonValue::Object || RegB.K != JsonValue::Object) {
    std::fprintf(stderr, "cfed-stat: both inputs must be registry snapshots "
                         "or flight-recorder bundles\n");
    return 2;
  }

  // Union of counter names, in sorted order (std::map keeps them sorted).
  Table T;
  T.setHeader({"counter", "old", "new", "delta"});
  auto Emit = [&](const std::string &Name, double Old, double New) {
    T.addRow({Name, formatCount(Old), formatCount(New),
              formatString("%+lld", static_cast<long long>(New - Old))});
  };
  for (const auto &[Name, Val] : RegA["counters"].Fields) {
    const JsonValue &Other = RegB["counters"][Name];
    double New = Other.K == JsonValue::Number ? Other.Num : 0.0;
    if (Val.Num != New)
      Emit(Name, Val.Num, New);
  }
  for (const auto &[Name, Val] : RegB["counters"].Fields)
    if (RegA["counters"][Name].K != JsonValue::Number && Val.Num != 0.0)
      Emit(Name, 0.0, Val.Num);
  std::printf("%s", T.render().c_str());

  bool GaugeHeader = false;
  Table G;
  G.setHeader({"gauge", "old", "new"});
  for (const auto &[Name, Val] : RegA["gauges"].Fields) {
    const JsonValue &Other = RegB["gauges"][Name];
    double New = Other.K == JsonValue::Number ? Other.Num : 0.0;
    if (Val.Num != New) {
      G.addRow({Name, formatString("%.4f", Val.Num),
                formatString("%.4f", New)});
      GaugeHeader = true;
    }
  }
  if (GaugeHeader)
    std::printf("\n%s", G.render().c_str());
  return 0;
}

//===----------------------------------------------------------------------===//
// postmortem
//===----------------------------------------------------------------------===//

/// Signature-register names for the checker-owned registers; everything
/// else renders as rNN.
const char *specialRegName(size_t Index) {
  switch (Index) {
  case 15: return "sp";
  case 16: return "pcp";
  case 17: return "rts";
  case 18: return "aux";
  case 19: return "aux2";
  default: return nullptr;
  }
}

int cmdPostmortem(int Argc, char **Argv) {
  for (int I = 0; I < Argc; ++I) {
    cli::Flag F;
    if (cli::splitFlag(Argv[I], F)) {
      cli::unknownOption(F.Name);
      usage();
      return 2;
    }
  }
  if (Argc != 1) {
    usage();
    return 2;
  }
  JsonValue PM;
  if (!parseFile(Argv[0], PM))
    return 2;
  if (PM["version"].K != JsonValue::Number ||
      PM["reason"].K != JsonValue::String) {
    std::fprintf(stderr,
                 "cfed-stat: '%s' is not a flight-recorder bundle\n", Argv[0]);
    return 2;
  }

  std::printf("post-mortem bundle: %s (schema v%d)\n", Argv[0],
              static_cast<int>(PM["version"].Num));
  std::printf("reason:    %s\n", PM["reason"].Str.c_str());
  const JsonValue &Stop = PM["stop"];
  std::printf("stop:      %s%s%s%s\n", Stop["kind"].Str.c_str(),
              Stop["trap"].Str.empty() ? "" : " / ",
              Stop["trap"].Str.c_str(),
              Stop["description"].Str.empty()
                  ? ""
                  : ("  (" + Stop["description"].Str + ")").c_str());
  std::printf("guest pc:  %s   cache pc: %s   trap addr: %s\n",
              PM["guest_pc"].Str.c_str(), PM["cache_pc"].Str.c_str(),
              PM["trap_addr"].Str.c_str());
  std::printf("executed:  %lld insns, %lld cycles\n",
              static_cast<long long>(PM["insns"].Num),
              static_cast<long long>(PM["cycles"].Num));

  if (!PM["note"].Str.empty())
    std::printf("note:      %s\n", PM["note"].Str.c_str());
  if (!PM["annotations"].Fields.empty()) {
    std::printf("annotations:");
    for (const auto &[Name, Val] : PM["annotations"].Fields)
      std::printf(" %s=%lld", Name.c_str(), static_cast<long long>(Val.Num));
    std::printf("\n");
  }

  // Version-2 bundles may carry a propagation section; version-1 bundles
  // (and v2 bundles from non-propagation runs) simply lack it, and the
  // lookups below yield absent values, so nothing is printed.
  const JsonValue &Prop = PM["propagation"];
  if (Prop["present"].B) {
    if (Prop["diverged"].B)
      std::printf("propagation: %s — diverged at record %lld (guest insn "
                  "%lld, block %s); crossed %lld tainted block(s), %lld "
                  "check(s), %lld insn(s)\n",
                  Prop["class"].Str.c_str(),
                  static_cast<long long>(Prop["divergence_ordinal"].Num),
                  static_cast<long long>(Prop["divergence_key"].Num),
                  Prop["divergence_pc"].Str.c_str(),
                  static_cast<long long>(Prop["tainted_blocks"].Num),
                  static_cast<long long>(Prop["checks_crossed"].Num),
                  static_cast<long long>(Prop["insns_crossed"].Num));
    else
      std::printf("propagation: %s — no architectural divergence from the "
                  "golden trace\n",
                  Prop["class"].Str.c_str());
  }

  const JsonValue &Recovery = PM["recovery"];
  if (Recovery["present"].B)
    std::printf("recovery:  checkpoints=%lld rollbacks=%lld watchdog=%lld "
                "ring_depth=%lld degraded=%s interp_fallback=%s\n",
                static_cast<long long>(Recovery["checkpoints"].Num),
                static_cast<long long>(Recovery["rollbacks"].Num),
                static_cast<long long>(Recovery["watchdog_fires"].Num),
                static_cast<long long>(Recovery["ring_depth"].Num),
                Recovery["degraded"].B ? "yes" : "no",
                Recovery["interpreter_fallback"].B ? "yes" : "no");

  // CPU state: flags plus the non-zero registers, signature registers
  // called out by name.
  std::printf("\ncpu flags: %lld\n",
              static_cast<long long>(PM["cpu"]["flags"].Num));
  const auto &Regs = PM["cpu"]["regs"].Items;
  for (size_t I = 0; I < Regs.size(); ++I) {
    const std::string &Hex = Regs[I].Str;
    if (Hex == "0x0" && !specialRegName(I))
      continue;
    if (const char *Name = specialRegName(I))
      std::printf("  r%-2zu (%s)%*s = %s\n", I, Name,
                  static_cast<int>(4 - std::strlen(Name)), "", Hex.c_str());
    else
      std::printf("  r%-2zu        = %s\n", I, Hex.c_str());
  }

  const auto &Events = PM["events"].Items;
  std::printf("\nlast %zu trace events:\n", Events.size());
  for (const auto &E : Events)
    std::printf("  [%8lld] %-18s %-10s addr=%s arg=%lld\n",
                static_cast<long long>(E["ts"].Num), E["kind"].Str.c_str(),
                E["category"].Str.c_str(), E["addr"].Str.c_str(),
                static_cast<long long>(E["arg"].Num));

  if (!PM["guest_disasm"].Str.empty())
    std::printf("\nguest code around the fault:\n%s",
                PM["guest_disasm"].Str.c_str());
  if (!PM["host_disasm"].Str.empty())
    std::printf("\ntranslated block (code cache):\n%s",
                PM["host_disasm"].Str.c_str());
  return 0;
}

//===----------------------------------------------------------------------===//
// bench-diff
//===----------------------------------------------------------------------===//

/// Metric direction for BENCH_perf.json fields. Returns +1 when larger is
/// better (hit rates, checks elided by the optimizing tier), -1 when
/// smaller is better (times, slowdowns, overheads), 0 for fields that are
/// configuration rather than performance (jobs, dispatch counts) and so
/// are not gated.
int metricDirection(const std::string &Field) {
  if (Field.find("hit_rate") != std::string::npos)
    return +1;
  // Opt-tier optimizer effectiveness: fewer elided checks or a lower
  // fusion rate means the trace tier stopped finding its optimizations.
  if (Field.find("checks_elided") != std::string::npos ||
      Field.find("fusion_rate") != std::string::npos)
    return +1;
  if (Field == "wall_seconds" || Field.find("slowdown") != std::string::npos ||
      Field.find("overhead") != std::string::npos ||
      Field.find("seconds") != std::string::npos)
    return -1;
  return 0;
}

int cmdBenchDiff(int Argc, char **Argv) {
  std::string PathA, PathB;
  double Threshold = 10.0;
  for (int I = 0; I < Argc; ++I) {
    std::string Arg = Argv[I];
    cli::Flag F;
    if (cli::splitFlag(Arg, F)) {
      if (F.Name != "--threshold") {
        cli::unknownOption(F.Name);
        usage();
        return 2;
      }
      std::string Value =
          F.HasValue ? F.Value : (I + 1 < Argc ? Argv[++I] : "");
      if (!cli::parseDouble(Value, Threshold) || Threshold <= 0.0) {
        cli::badValue(F.Name, "a positive <percent>", Value);
        usage();
        return 2;
      }
    } else if (PathA.empty()) {
      PathA = Arg;
    } else if (PathB.empty()) {
      PathB = Arg;
    } else {
      cli::extraPositional(Arg);
      usage();
      return 2;
    }
  }
  if (PathB.empty()) {
    std::fprintf(stderr, "error: bench-diff needs two BENCH_perf.json "
                         "paths\n");
    usage();
    return 2;
  }

  JsonValue Base, Fresh;
  if (!parseFile(PathA, Base) || !parseFile(PathB, Fresh))
    return 2;
  if (Base.K != JsonValue::Object || Fresh.K != JsonValue::Object) {
    std::fprintf(stderr, "cfed-stat: bench-diff inputs must be "
                         "BENCH_perf.json objects\n");
    return 2;
  }

  Table T;
  T.setHeader({"metric", "baseline", "current", "change", "verdict"});
  unsigned Regressions = 0, Compared = 0;
  for (const auto &[Bench, Fields] : Base.Fields) {
    if (Fields.K != JsonValue::Object)
      continue;
    const JsonValue &Other = Fresh[Bench];
    if (Other.K != JsonValue::Object)
      continue;
    for (const auto &[Field, Val] : Fields.Fields) {
      int Dir = metricDirection(Field);
      if (!Dir || Val.K != JsonValue::Number)
        continue;
      const JsonValue &NewVal = Other[Field];
      if (NewVal.K != JsonValue::Number)
        continue;
      ++Compared;
      std::string Name = Bench + "." + Field;
      double Old = Val.Num, New = NewVal.Num;
      // Guard tiny baselines: a 0.000-second baseline would turn any
      // measurable time into an infinite regression.
      double ChangePct =
          std::abs(Old) > 1e-9 ? (New - Old) / Old * 100.0 : 0.0;
      // A regression is the metric moving against its direction by more
      // than the threshold.
      bool Regressed = Dir > 0 ? ChangePct < -Threshold
                               : ChangePct > Threshold;
      if (Regressed)
        ++Regressions;
      T.addRow({Name, formatString("%.4f", Old), formatString("%.4f", New),
                formatString("%+.1f%%", ChangePct),
                Regressed ? "REGRESSED" : "ok"});
    }
  }
  std::printf("%s", T.render().c_str());
  if (!Compared) {
    std::fprintf(stderr, "cfed-stat: no comparable metrics between '%s' and "
                         "'%s'\n",
                 PathA.c_str(), PathB.c_str());
    return 2;
  }
  if (Regressions) {
    std::printf("bench-diff: %u of %u metrics regressed beyond %.1f%%\n",
                Regressions, Compared, Threshold);
    return 1;
  }
  std::printf("bench-diff: %u metrics within %.1f%% of baseline\n", Compared,
              Threshold);
  return 0;
}

//===----------------------------------------------------------------------===//
// merge
//===----------------------------------------------------------------------===//

std::string mergedToJson(const ShardResult &Merged, size_t NumFiles) {
  std::string Out = "{\"kind\":\"cfed-campaign-merged\",\"version\":1";
  Out += ",\"shard\":0";
  Out += ",\"num_shards\":" + std::to_string(Merged.NumShards);
  Out += ",\"shards_merged\":" + std::to_string(NumFiles);
  Out += ",\"seed\":" + std::to_string(Merged.Seed);
  Out += ",\"model\":";
  json::appendString(Out, Merged.Model);
  if (Merged.Recovery)
    Out += ",\"recovery\":true";
  Out += ",\"completed\":" + std::to_string(Merged.Completed);
  Out += ",\"skipped\":" + std::to_string(Merged.Skipped);
  Out += ",\"finished\":";
  Out += Merged.Finished ? "true" : "false";
  Out += ",\"registry\":";
  Out += Merged.Registry.toJson();
  Out += '}';
  return Out;
}

int cmdMerge(int Argc, char **Argv) {
  std::vector<std::string> Paths;
  std::string OutPath;
  for (int I = 0; I < Argc; ++I) {
    std::string Arg = Argv[I];
    cli::Flag F;
    if (Arg == "-o") {
      OutPath = I + 1 < Argc ? Argv[++I] : "";
      if (OutPath.empty()) {
        cli::badValue("-o", "<file>", OutPath);
        usage();
        return 2;
      }
    } else if (cli::splitFlag(Arg, F)) {
      cli::unknownOption(F.Name);
      usage();
      return 2;
    } else {
      Paths.push_back(Arg);
    }
  }
  if (Paths.empty()) {
    std::fprintf(stderr, "error: merge needs at least one campaign result "
                         "file\n");
    usage();
    return 2;
  }

  std::vector<ShardResult> Shards;
  for (const std::string &Path : Paths) {
    std::string Text, Error;
    ShardResult Shard;
    if (!readFile(Path, Text))
      return 2;
    if (!CampaignEngine::parseShardResult(Text, Shard, Error)) {
      std::fprintf(stderr, "cfed-stat: '%s': %s\n", Path.c_str(),
                   Error.c_str());
      return 2;
    }
    Shards.push_back(std::move(Shard));
  }
  ShardResult Merged;
  std::string Error;
  if (!CampaignEngine::mergeShards(Shards, Merged, Error)) {
    std::fprintf(stderr, "cfed-stat: %s\n", Error.c_str());
    return 1;
  }

  auto WriteMerged = [&]() -> int {
    if (OutPath.empty())
      return 0;
    std::string Error;
    if (!writeFile(OutPath, mergedToJson(Merged, Shards.size()) + '\n',
                   Error)) {
      std::fprintf(stderr, "error: cannot write merged result: %s\n",
                   Error.c_str());
      return 1;
    }
    return 0;
  };

  // Attack-campaign shards carry attack.* tallies instead of fault
  // outcome counters: render the precision matrix and its fixed summary
  // line (the CI shard-invariance gate string-compares it against the
  // unsharded run's).
  if (hasAttackTallies(Merged.Registry)) {
    std::printf("%s", renderPrecisionMatrix(Merged.Registry).c_str());
    std::printf("merged %zu file(s) of a %u-shard campaign (seed %llu)%s\n",
                Shards.size(), Merged.NumShards,
                (unsigned long long)Merged.Seed,
                Merged.Finished ? "" : " [contains interrupted shards]");
    std::printf("%s\n",
                renderPrecisionSummaryLine(Merged.Registry).c_str());
    return WriteMerged();
  }

  CampaignResult Result = campaignResultFromSnapshot(Merged.Registry);
  Table T;
  T.setHeader({"cell", "inj", "det-sig", "det-hw", "masked", "SDC",
               "timeout", "recovered", "rec-fail"});
  for (unsigned C = 0; C < NumBranchErrorCategories; ++C) {
    auto Cat = static_cast<BranchErrorCategory>(C);
    const OutcomeCounts &Row = Result.of(Cat);
    if (Row.total() == 0)
      continue;
    T.addRow({getCategoryName(Cat), formatCount(Row.total()),
              formatCount(Row.DetectedSig), formatCount(Row.DetectedHw),
              formatCount(Row.Masked), formatCount(Row.Sdc),
              formatCount(Row.Timeout), formatCount(Row.Recovered),
              formatCount(Row.RecoveryFailed)});
  }
  std::printf("%s", T.render().c_str());
  OutcomeCounts Totals = Result.totals();
  std::printf("merged %zu file(s) of a %u-shard campaign (seed %llu)%s\n",
              Shards.size(), Merged.NumShards,
              (unsigned long long)Merged.Seed,
              Merged.Finished ? "" : " [contains interrupted shards]");
  // One fixed-format line the CI shard-invariance gate string-compares.
  std::printf("campaign-summary: injections=%llu detected_sig=%llu "
              "detected_hw=%llu masked=%llu sdc=%llu timeout=%llu "
              "skipped=%llu recovered=%llu rec_fail=%llu\n",
              (unsigned long long)Result.Injections,
              (unsigned long long)Totals.DetectedSig,
              (unsigned long long)Totals.DetectedHw,
              (unsigned long long)Totals.Masked,
              (unsigned long long)Totals.Sdc,
              (unsigned long long)Totals.Timeout,
              (unsigned long long)Merged.Skipped,
              (unsigned long long)Totals.Recovered,
              (unsigned long long)Totals.RecoveryFailed);

  // Propagation campaigns: render the merged funnel plus one fixed-format
  // line the CI shard-invariance gate string-compares against the
  // unsharded reference.
  uint64_t PropTotal = 0;
  std::string PropLine;
  for (telemetry::PropClass C : telemetry::AllPropClasses) {
    uint64_t N = 0;
    for (unsigned Cat = 0; Cat < NumBranchErrorCategories; ++Cat)
      N += Merged.Registry.counterOr(getPropagationCounterName(
          static_cast<BranchErrorCategory>(Cat), C));
    PropTotal += N;
    PropLine += formatString(" %s=%llu", telemetry::getPropClassName(C),
                             (unsigned long long)N);
  }
  if (PropTotal) {
    std::printf("%s", renderPropagationFunnel(Merged.Registry).c_str());
    std::printf("prop-summary:%s\n", PropLine.c_str());
  }

  return WriteMerged();
}

//===----------------------------------------------------------------------===//
// latency
//===----------------------------------------------------------------------===//

int cmdLatency(int Argc, char **Argv) {
  for (int I = 0; I < Argc; ++I) {
    cli::Flag F;
    if (cli::splitFlag(Argv[I], F)) {
      cli::unknownOption(F.Name);
      usage();
      return 2;
    }
  }
  if (Argc != 1) {
    usage();
    return 2;
  }
  JsonValue Root;
  if (!parseFile(Argv[0], Root))
    return 2;
  const JsonValue &Reg = findRegistry(Root);
  if (Reg.K != JsonValue::Object) {
    std::fprintf(stderr, "cfed-stat: '%s' has no registry snapshot\n",
                 Argv[0]);
    return 2;
  }
  telemetry::RegistrySnapshot Snap;
  std::string Error;
  if (!telemetry::snapshotFromJson(Reg, Snap, Error)) {
    std::fprintf(stderr, "cfed-stat: '%s': %s\n", Argv[0], Error.c_str());
    return 2;
  }

  const std::string Prefix = "fault.latency.";
  Table T;
  T.setHeader({"histogram", "detections", "mean", "p50", "p90", "p99"});
  size_t Shown = 0;
  for (const auto &[Name, H] : Snap.Histograms) {
    if (Name.compare(0, Prefix.size(), Prefix) != 0)
      continue;
    ++Shown;
    T.addRow({Name, formatCount(static_cast<double>(H.Count)),
              formatString("%.1f", H.mean()), H.quantileText(0.5),
              H.quantileText(0.9), H.quantileText(0.99)});
  }
  if (!Shown) {
    std::fprintf(stderr, "cfed-stat: '%s' has no fault.latency.* "
                         "histograms (was the campaign run through the "
                         "engine or a latency-aware bench?)\n",
                 Argv[0]);
    return 1;
  }
  std::printf("%s", T.render().c_str());
  std::printf("latency unit: dynamic instructions from fault firing to "
              "detection; quantiles are bucket upper bounds (\">=N\" marks "
              "the open-ended overflow bucket)\n");
  return 0;
}

//===----------------------------------------------------------------------===//
// prop
//===----------------------------------------------------------------------===//

int cmdProp(int Argc, char **Argv) {
  for (int I = 0; I < Argc; ++I) {
    cli::Flag F;
    if (cli::splitFlag(Argv[I], F)) {
      cli::unknownOption(F.Name);
      usage();
      return 2;
    }
  }
  if (Argc != 1) {
    usage();
    return 2;
  }
  JsonValue Root;
  if (!parseFile(Argv[0], Root))
    return 2;
  const JsonValue &Reg = findRegistry(Root);
  if (Reg.K != JsonValue::Object) {
    std::fprintf(stderr, "cfed-stat: '%s' has no registry snapshot\n",
                 Argv[0]);
    return 2;
  }
  telemetry::RegistrySnapshot Snap;
  std::string Error;
  if (!telemetry::snapshotFromJson(Reg, Snap, Error)) {
    std::fprintf(stderr, "cfed-stat: '%s': %s\n", Argv[0], Error.c_str());
    return 2;
  }

  std::string Funnel = renderPropagationFunnel(Snap);
  if (Funnel.empty()) {
    std::fprintf(stderr, "cfed-stat: '%s' has no prop.* propagation "
                         "tallies (was the campaign run with "
                         "--prop-trace?)\n",
                 Argv[0]);
    return 1;
  }
  std::printf("%s", Funnel.c_str());
  std::printf(
      "classes: *-cln = outcome reached with no architectural divergence "
      "from the golden trace;\n"
      "det-div = diverged, then a signature check caught it; sdc-exp/unx = "
      "corrupt output with/without\n"
      "an observed divergence; msk-cnv = diverged but re-converged to the "
      "golden suffix; msk-lat = still\n"
      "diverged at a clean halt (latent state corruption). dist p50/p90: "
      "guest insns from first\n"
      "divergence to detection (\">=N\" marks the open-ended overflow "
      "bucket).\n");
  return 0;
}

//===----------------------------------------------------------------------===//
// precision
//===----------------------------------------------------------------------===//

int cmdPrecision(int Argc, char **Argv) {
  for (int I = 0; I < Argc; ++I) {
    cli::Flag F;
    if (cli::splitFlag(Argv[I], F)) {
      cli::unknownOption(F.Name);
      usage();
      return 2;
    }
  }
  if (Argc != 1) {
    usage();
    return 2;
  }
  JsonValue Root;
  if (!parseFile(Argv[0], Root))
    return 2;
  const JsonValue &Reg = findRegistry(Root);
  if (Reg.K != JsonValue::Object) {
    std::fprintf(stderr, "cfed-stat: '%s' has no registry snapshot\n",
                 Argv[0]);
    return 2;
  }
  telemetry::RegistrySnapshot Snap;
  std::string Error;
  if (!telemetry::snapshotFromJson(Reg, Snap, Error)) {
    std::fprintf(stderr, "cfed-stat: '%s': %s\n", Argv[0], Error.c_str());
    return 2;
  }

  if (!hasAttackTallies(Snap)) {
    std::fprintf(stderr, "cfed-stat: '%s' has no attack.* tallies (was "
                         "the campaign run with --campaign-attack?)\n",
                 Argv[0]);
    return 1;
  }
  std::printf("%s", renderPrecisionMatrix(Snap).c_str());
  std::printf("%s\n", renderPrecisionSummaryLine(Snap).c_str());
  std::printf(
      "cells: det-sig = the signature scheme fired (0xCFE/0x5EC); "
      "det-shdw = only the shadow\n"
      "return stack fired (0x5AC); det-integ = self-integrity quarantined "
      "the patch; det-hw =\n"
      "memory protection / illegal instruction; evaded = corrupt output, "
      "no detector fired\n"
      "(the attacker's score); masked = golden output; timeout = budget "
      "exhausted undetected.\n");
  return 0;
}

//===----------------------------------------------------------------------===//
// tail
//===----------------------------------------------------------------------===//

/// One-shot render of live-exporter snapshot files through the same
/// parsing and view code cfed-top refreshes continuously. With no
/// previous sample to diff against, rates show as "-".
int cmdTail(int Argc, char **Argv) {
  std::vector<std::string> Paths;
  for (int I = 0; I < Argc; ++I) {
    cli::Flag F;
    if (cli::splitFlag(Argv[I], F)) {
      cli::unknownOption(F.Name);
      usage();
      return 2;
    }
    Paths.push_back(Argv[I]);
  }
  if (Paths.empty()) {
    std::fprintf(stderr, "error: tail needs at least one live snapshot "
                         "file\n");
    usage();
    return 2;
  }

  std::vector<telemetry::ShardSample> Samples;
  for (const std::string &Path : Paths) {
    JsonValue Root;
    if (!parseFile(Path, Root))
      return 2;
    telemetry::ShardSample S;
    std::string Error;
    if (!telemetry::liveSnapshotFromJson(Root, S.Snap, Error)) {
      std::fprintf(stderr, "cfed-stat: '%s': %s\n", Path.c_str(),
                   Error.c_str());
      return 2;
    }
    size_t Slash = Path.find_last_of('/');
    S.Label = Slash == std::string::npos ? Path : Path.substr(Slash + 1);
    Samples.push_back(std::move(S));
  }
  telemetry::LiveViewOptions Opts;
  Opts.NowMs = telemetry::wallClockMs();
  std::printf("%s", telemetry::renderLiveView(Samples, Opts).c_str());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2) {
    usage();
    return 2;
  }
  const char *Cmd = Argv[1];
  if (std::strcmp(Cmd, "top") == 0)
    return cmdTop(Argc - 2, Argv + 2);
  if (std::strcmp(Cmd, "diff") == 0)
    return cmdDiff(Argc - 2, Argv + 2);
  if (std::strcmp(Cmd, "postmortem") == 0)
    return cmdPostmortem(Argc - 2, Argv + 2);
  if (std::strcmp(Cmd, "bench-diff") == 0)
    return cmdBenchDiff(Argc - 2, Argv + 2);
  if (std::strcmp(Cmd, "merge") == 0)
    return cmdMerge(Argc - 2, Argv + 2);
  if (std::strcmp(Cmd, "latency") == 0)
    return cmdLatency(Argc - 2, Argv + 2);
  if (std::strcmp(Cmd, "prop") == 0)
    return cmdProp(Argc - 2, Argv + 2);
  if (std::strcmp(Cmd, "precision") == 0)
    return cmdPrecision(Argc - 2, Argv + 2);
  if (std::strcmp(Cmd, "tail") == 0)
    return cmdTail(Argc - 2, Argv + 2);
  usage();
  return 2;
}
