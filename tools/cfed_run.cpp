//===- cfed_run.cpp - Command-line driver for the CFED pipeline -----------------===//
//
// Assemble-and-run driver exposing the whole pipeline from the shell:
//
//   cfed-run [options] <file.s | workload name>
//
//   --native             run on the bare interpreter (no DBT)
//   --tier=<t>           interp|base|opt: interp is an alias for --native,
//                        base is the baseline translator, opt enables the
//                        optimizing trace tier (hot-trace formation,
//                        adaptive check placement, update folding)
//   --trace-limit=<n>    max blocks fused into one optimized trace
//                        (default 8; needs --tier=opt to matter)
//   --tech=<t>           none|cfcss|ecca|ecf|edgcf|rcf   (default none)
//   --flavor=<f>         jcc|cmov                        (default jcc)
//   --policy=<p>         allbb|retbe|ret|end|store       (default allbb)
//   --eager              whole-program translation (required for
//                        cfcss/ecca)
//   --dfc                layer SWIFT-style data-flow checking under the
//                        control-flow technique
//   --max-insns=<n>      instruction budget (default 200M)
//   --scrub[=<n>]        self-integrity: scrub the code cache (verify
//                        every live translation's integrity word) once
//                        per n cache-exit dispatches (default 64)
//   --verify-dispatch=<n> self-integrity: lazily verify a block's
//                        integrity word every n dispatches landing on it
//   --shadow-stack       maintain a shadow return stack and trap ret
//                        target mismatches (0x5AC) — catches forged
//                        returns every signature scheme accepts
//   --shadow-sig         self-integrity: duplicate the runtime signature
//                        into shadow registers and cross-check at
//                        CHECK_SIG sites (flipped signature state traps
//                        as monitor corruption, 0x5EC)
//   --recover            run under checkpoint/rollback recovery: detections
//                        roll back and re-execute instead of terminating
//                        (campaign modes: every injection does, and
//                        classifies as Recovered/RecoveryFailed)
//   --watchdog=<n>       errant-flow watchdog bound in instructions
//                        (0 disables; default 1M; needs --recover)
//   --ckpt-interval=<n>  instructions between checkpoints (default 10000;
//                        needs --recover)
//   --campaign=<n>       run an n-fault campaign instead of a plain run,
//                        through the campaign engine: batched,
//                        checkpointed, resumable, shardable
//   --campaign-attack=<n> adversarial mode: run an n-attack campaign
//                        (return forging / IBTC swaps / code patching)
//                        through the same engine and print the
//                        per-family precision matrix
//
//   Both campaign modes take --recover (with --watchdog/--ckpt-interval),
//   --postmortem-dir, --trace, --jobs, --seed, --max-insns, --live-export,
//   --run-id and the --campaign-checkpoint/-interval/-shard/-out flags.
//   --campaign-stop-ci, --fault-model, --golden-trace and --prop-trace
//   apply to --campaign only; an attack campaign refuses them, and
//   --prop-trace/--golden-trace refuse --recover. A run without a
//   campaign mode refuses the --campaign-* flags and --fault-model, a run
//   without --recover refuses --watchdog and --ckpt-interval, one
//   without --trace or --postmortem-dir refuses --trace-buffer, and one
//   with --tech=none, --native or --tier=interp refuses --shadow-sig.
//
//   --campaign-checkpoint=<file>
//                        checkpoint file; an existing one resumes the
//                        campaign where it stopped
//   --campaign-interval=<n>
//                        injections per checkpoint batch (default 64)
//   --campaign-shard=<k/n>
//                        run shard k of n (0-based): this process takes
//                        every n-th planned fault starting at k
//   --campaign-out=<file> write the machine-readable campaign result
//                        (merge shard files with `cfed-stat merge`)
//   --campaign-stop-ci=<w>
//                        early stopping: close a category cell once the
//                        95% Wilson interval on its SDC rate is tighter
//                        than half-width w (unsharded runs only)
//   --live-export=<file> publish an atomic live telemetry snapshot to
//                        <file> while the run executes (tail it with
//                        cfed-top or `cfed-stat tail`); campaign-engine
//                        runs publish at batch boundaries
//                        (deterministic), other runs from a background
//                        thread every --live-interval ms
//   --live-interval=<ms> background live-export publish period
//                        (default 1000)
//   --run-id=<id>        run identifier stamped into live snapshots
//                        (default: the input name, or campaign-<seed>
//                        for engine runs)
//   --fault-model=<m>    single|multi|burst mask shape for planned
//                        faults (default single)
//   --jobs=<n>           injection thread count (default 1)
//   --seed=<n>           campaign seed (default 1)
//   --disasm             print the guest disassembly and exit
//   --dump-cfg           print the guest CFG as Graphviz DOT and exit
//   --dump-cache         print the translated code cache after the run
//   --stats[=json|csv]   emit the telemetry-registry snapshot: human text
//                        on stderr (default), or JSON / CSV on stdout
//   --trace=<file>       write the structured event trace as Chrome
//                        trace_event JSON (open in about://tracing);
//                        campaign modes record one campaign-injection
//                        event per injection
//   --trace-buffer=<n>   event ring-buffer capacity (default 65536)
//   --profile-blocks[=N] attach a block-execution profile and print the
//                        top-N hot-block report after the run (default 10)
//   --postmortem-dir=DIR write flight-recorder post-mortem bundles (one
//                        JSON file per trap / watchdog fire / ladder
//                        escalation; campaign modes: one per fault
//                        injection, or per evaded attack)
//   --golden-trace=FILE  plain run: record the per-sub-block architectural
//                        digest oracle to FILE; campaign modes: also dump
//                        the campaign's internal oracle to FILE after the
//                        golden run
//   --prop-trace         plain run: replay against --golden-trace=FILE and
//                        report the first architectural divergence;
//                        campaign modes: track fault propagation per
//                        injection (prop.* counters, divergence->outcome
//                        funnel; view with `cfed-stat prop`)
//
// The positional argument is a path to a VISA assembly file, or the
// name of a built-in workload (e.g. 181.mcf).
//
//===----------------------------------------------------------------------===//

#include "cfg/Cfg.h"
#include "dbt/Dbt.h"
#include "fault/CampaignEngine.h"
#include "isa/Disasm.h"
#include "recovery/Recovery.h"
#include "support/CliArgs.h"
#include "support/Diagnostics.h"
#include "support/FileIO.h"
#include "support/Format.h"
#include "support/Table.h"
#include "telemetry/BlockProfile.h"
#include "telemetry/FlightRecorder.h"
#include "telemetry/LiveExport.h"
#include "telemetry/Metrics.h"
#include "telemetry/Profile.h"
#include "telemetry/Provenance.h"
#include "telemetry/Trace.h"
#include "vm/Layout.h"
#include "vm/Loader.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>

using namespace cfed;

namespace {

enum class StatsMode : uint8_t { Off, Text, Json, Csv };

struct Options {
  bool Native = false;
  DbtConfig Config;
  uint64_t MaxInsns = 200000000ULL;
  bool Recover = false;
  RecoveryConfig Recovery;
  uint64_t CampaignInjections = 0;
  uint64_t AttackCount = 0;
  /// The campaign-only knobs parse straight into the engine
  /// configuration (see engineConfig()).
  EngineConfig Engine;
  std::string CampaignOut;
  /// Every flag given, by name.
  std::set<std::string> Given;
  std::string LiveExport;
  uint64_t LiveIntervalMs = 1000;
  std::string RunId;
  bool Disasm = false;
  bool DumpCfg = false;
  bool DumpCache = false;
  StatsMode Stats = StatsMode::Off;
  std::string TraceFile;
  uint64_t TraceBuffer = 65536;
  bool ProfileBlocks = false;
  uint64_t ProfileTopN = 10;
  std::string PostmortemDir;
  std::string GoldenTraceFile;
  bool PropTrace = false;
  std::string Input;
};

int usage() {
  std::fprintf(stderr,
               "usage: cfed-run [--native] [--tier=interp|base|opt] "
               "[--trace-limit=N]\n"
               "                [--tech=T] [--flavor=F] "
               "[--policy=P] [--eager] [--dfc]\n"
               "                [--max-insns=N] [--scrub[=N]] "
               "[--verify-dispatch=N] [--shadow-sig]\n"
               "                [--recover] [--watchdog=N] "
               "[--ckpt-interval=N]\n"
               "                [--seed=N] "
               "[--disasm] [--dump-cfg]\n"
               "                [--campaign=N] [--campaign-attack=N] "
               "[--shadow-stack]\n"
               "                "
               "[--campaign-checkpoint=FILE] [--campaign-interval=N]\n"
               "                [--campaign-shard=K/N] "
               "[--campaign-out=FILE] [--campaign-stop-ci=W]\n"
               "                [--live-export=FILE] [--live-interval=MS] "
               "[--run-id=ID]\n"
               "                [--fault-model=single|multi|burst] "
               "[--jobs=N]\n"
               "                [--dump-cache] [--stats[=json|csv]] "
               "[--trace=FILE] [--trace-buffer=N]\n"
               "                [--profile-blocks[=N]] "
               "[--postmortem-dir=DIR]\n"
               "                [--golden-trace=FILE] [--prop-trace]\n"
               "                <file.s | workload>\n");
  return 2;
}

bool parseTech(const std::string &Name, Technique &Out) {
  if (Name == "none")
    Out = Technique::None;
  else if (Name == "cfcss")
    Out = Technique::Cfcss;
  else if (Name == "ecca")
    Out = Technique::Ecca;
  else if (Name == "ecf")
    Out = Technique::Ecf;
  else if (Name == "edgcf")
    Out = Technique::EdgCf;
  else if (Name == "rcf")
    Out = Technique::Rcf;
  else
    return false;
  return true;
}

bool parsePolicy(const std::string &Name, CheckPolicy &Out) {
  if (Name == "allbb")
    Out = CheckPolicy::AllBB;
  else if (Name == "retbe")
    Out = CheckPolicy::RetBE;
  else if (Name == "ret")
    Out = CheckPolicy::Ret;
  else if (Name == "end")
    Out = CheckPolicy::End;
  else if (Name == "store")
    Out = CheckPolicy::StoreBB;
  else
    return false;
  return true;
}

bool parseArgs(int Argc, char **Argv, Options &Opts) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    cli::Flag F;
    if (!cli::splitFlag(Arg, F)) {
      if (!Opts.Input.empty())
        return cli::extraPositional(Arg);
      Opts.Input = Arg;
      continue;
    }
    Opts.Given.insert(F.Name);
    // A bare flag: "--eager=5" is an error, not a silent mismatch.
    auto Bare = [&F](bool &Out) {
      if (F.HasValue)
        return cli::unexpectedValue(F.Name);
      Out = true;
      return true;
    };
    // A flag with a required strictly-parsed number.
    auto Uint = [&F](uint64_t &Out, const char *What) {
      if (!F.HasValue || !cli::parseUint(F.Value, Out))
        return cli::badValue(F.Name, What, F.Value);
      return true;
    };
    if (F.Name == "--native") {
      if (!Bare(Opts.Native))
        return false;
    } else if (F.Name == "--tier") {
      if (F.Value == "interp")
        Opts.Native = true;
      else if (F.Value == "base")
        Opts.Config.Tier = DbtTier::Base;
      else if (F.Value == "opt")
        Opts.Config.Tier = DbtTier::Opt;
      else
        return cli::badValue(F.Name, "interp|base|opt", F.Value);
    } else if (F.Name == "--trace-limit") {
      uint64_t Limit = 0;
      if (!F.HasValue || !cli::parseUint(F.Value, Limit) || Limit == 0)
        return cli::badValue(F.Name, "<blocks >= 1>", F.Value);
      Opts.Config.TraceLimit = static_cast<unsigned>(Limit);
    } else if (F.Name == "--tech") {
      if (!F.HasValue || !parseTech(F.Value, Opts.Config.Tech))
        return cli::badValue(F.Name, "none|cfcss|ecca|ecf|edgcf|rcf",
                             F.Value);
    } else if (F.Name == "--flavor") {
      if (F.Value == "jcc")
        Opts.Config.Flavor = UpdateFlavor::Jcc;
      else if (F.Value == "cmov")
        Opts.Config.Flavor = UpdateFlavor::CMovcc;
      else
        return cli::badValue(F.Name, "jcc|cmov", F.Value);
    } else if (F.Name == "--policy") {
      if (!F.HasValue || !parsePolicy(F.Value, Opts.Config.Policy))
        return cli::badValue(F.Name, "allbb|retbe|ret|end|store", F.Value);
    } else if (F.Name == "--eager") {
      if (!Bare(Opts.Config.EagerTranslate))
        return false;
    } else if (F.Name == "--dfc") {
      if (!Bare(Opts.Config.DataFlowCheck))
        return false;
    } else if (F.Name == "--max-insns") {
      if (!Uint(Opts.MaxInsns, "<count>"))
        return false;
    } else if (F.Name == "--scrub") {
      Opts.Config.ScrubInterval = 64;
      if (F.HasValue &&
          (!cli::parseUint(F.Value, Opts.Config.ScrubInterval) ||
           Opts.Config.ScrubInterval == 0))
        return cli::badValue(F.Name, "<dispatch interval >= 1>", F.Value);
    } else if (F.Name == "--verify-dispatch") {
      if (!Uint(Opts.Config.VerifyDispatchInterval, "<dispatch interval>"))
        return false;
    } else if (F.Name == "--shadow-sig") {
      if (!Bare(Opts.Config.ShadowSignature))
        return false;
    } else if (F.Name == "--shadow-stack") {
      if (!Bare(Opts.Config.ShadowStack))
        return false;
    } else if (F.Name == "--recover") {
      if (!Bare(Opts.Recover))
        return false;
    } else if (F.Name == "--watchdog") {
      if (!Uint(Opts.Recovery.WatchdogBound, "<instruction bound>"))
        return false;
    } else if (F.Name == "--ckpt-interval") {
      if (!Uint(Opts.Recovery.CheckpointInterval, "<instruction interval>"))
        return false;
    } else if (F.Name == "--campaign") {
      if (!Uint(Opts.CampaignInjections, "<count>"))
        return false;
    } else if (F.Name == "--campaign-attack") {
      if (!Uint(Opts.AttackCount, "<count>"))
        return false;
    } else if (F.Name == "--campaign-checkpoint") {
      if (!F.HasValue || F.Value.empty())
        return cli::badValue(F.Name, "<file>", F.Value);
      Opts.Engine.CheckpointFile = F.Value;
    } else if (F.Name == "--campaign-interval") {
      if (!Uint(Opts.Engine.CheckpointInterval, "<count>") ||
          Opts.Engine.CheckpointInterval == 0)
        return cli::badValue(F.Name, "<count >= 1>", F.Value);
    } else if (F.Name == "--campaign-shard") {
      uint64_t K = 0, N = 0;
      size_t Slash = F.Value.find('/');
      if (!F.HasValue || Slash == std::string::npos ||
          !cli::parseUint(F.Value.substr(0, Slash), K) ||
          !cli::parseUint(F.Value.substr(Slash + 1), N) || N == 0 || K >= N)
        return cli::badValue(F.Name, "<k/n with 0 <= k < n>", F.Value);
      Opts.Engine.ShardIndex = static_cast<unsigned>(K);
      Opts.Engine.NumShards = static_cast<unsigned>(N);
    } else if (F.Name == "--campaign-out") {
      if (!F.HasValue || F.Value.empty())
        return cli::badValue(F.Name, "<file>", F.Value);
      Opts.CampaignOut = F.Value;
    } else if (F.Name == "--campaign-stop-ci") {
      double &Width = Opts.Engine.StopHalfWidth;
      if (!F.HasValue || !cli::parseDouble(F.Value, Width) || Width <= 0.0 ||
          Width >= 0.5)
        return cli::badValue(F.Name, "<half-width in (0, 0.5)>", F.Value);
    } else if (F.Name == "--live-export") {
      if (!F.HasValue || F.Value.empty())
        return cli::badValue(F.Name, "<file>", F.Value);
      Opts.LiveExport = F.Value;
    } else if (F.Name == "--live-interval") {
      if (!Uint(Opts.LiveIntervalMs, "<milliseconds >= 1>") ||
          Opts.LiveIntervalMs == 0)
        return cli::badValue(F.Name, "<milliseconds >= 1>", F.Value);
    } else if (F.Name == "--run-id") {
      if (!F.HasValue || F.Value.empty())
        return cli::badValue(F.Name, "<id>", F.Value);
      Opts.RunId = F.Value;
    } else if (F.Name == "--fault-model") {
      if (!F.HasValue || !parseFaultModel(F.Value, Opts.Engine.Model))
        return cli::badValue(F.Name, "single|multi|burst", F.Value);
    } else if (F.Name == "--jobs") {
      if (!cli::parseJobs(F.Name, F.Value, Opts.Engine.Jobs))
        return false;
    } else if (F.Name == "--seed") {
      if (!Uint(Opts.Engine.Seed, "<seed>"))
        return false;
    } else if (F.Name == "--disasm") {
      if (!Bare(Opts.Disasm))
        return false;
    } else if (F.Name == "--dump-cfg") {
      if (!Bare(Opts.DumpCfg))
        return false;
    } else if (F.Name == "--dump-cache") {
      if (!Bare(Opts.DumpCache))
        return false;
    } else if (F.Name == "--stats") {
      if (!F.HasValue)
        Opts.Stats = StatsMode::Text;
      else if (F.Value == "json")
        Opts.Stats = StatsMode::Json;
      else if (F.Value == "csv")
        Opts.Stats = StatsMode::Csv;
      else
        return cli::badValue(F.Name, "json|csv", F.Value);
    } else if (F.Name == "--trace") {
      if (!F.HasValue || F.Value.empty())
        return cli::badValue(F.Name, "<file>", F.Value);
      Opts.TraceFile = F.Value;
    } else if (F.Name == "--trace-buffer") {
      if (!Uint(Opts.TraceBuffer, "<capacity>"))
        return false;
    } else if (F.Name == "--profile-blocks") {
      Opts.ProfileBlocks = true;
      if (F.HasValue && (!cli::parseUint(F.Value, Opts.ProfileTopN) ||
                         Opts.ProfileTopN == 0))
        return cli::badValue(F.Name, "<top-N >= 1>", F.Value);
    } else if (F.Name == "--postmortem-dir") {
      if (!F.HasValue || F.Value.empty())
        return cli::badValue(F.Name, "<directory>", F.Value);
      Opts.PostmortemDir = F.Value;
    } else if (F.Name == "--golden-trace") {
      if (!F.HasValue || F.Value.empty())
        return cli::badValue(F.Name, "<file>", F.Value);
      Opts.GoldenTraceFile = F.Value;
    } else if (F.Name == "--prop-trace") {
      if (!Bare(Opts.PropTrace))
        return false;
    } else {
      return cli::unknownOption(Arg);
    }
  }
  if (Opts.Input.empty()) {
    std::fprintf(stderr, "error: missing <file.s | workload> argument\n");
    return false;
  }
  // A flag only read together with another one is refused without it,
  // never silently ignored.
  bool Campaign = Opts.AttackCount > 0 || Opts.CampaignInjections > 0;
  bool Tracing = !Opts.TraceFile.empty() || !Opts.PostmortemDir.empty();
  // Shadow signatures duplicate a technique's signature registers in
  // translated code: with --tech=none they would cross-check registers
  // no code writes, and a native run translates nothing.
  bool Signatures = !Opts.Native && Opts.Config.Tech != Technique::None;
  const struct {
    const char *Flag;
    bool Met;
    const char *Needs;
  } Requires[] = {
      {"--campaign-checkpoint", Campaign, "--campaign or --campaign-attack"},
      {"--campaign-interval", Campaign, "--campaign or --campaign-attack"},
      {"--campaign-shard", Campaign, "--campaign or --campaign-attack"},
      {"--campaign-out", Campaign, "--campaign or --campaign-attack"},
      {"--campaign-stop-ci", Campaign, "--campaign or --campaign-attack"},
      {"--fault-model", Campaign, "--campaign or --campaign-attack"},
      {"--watchdog", Opts.Recover, "--recover"},
      {"--ckpt-interval", Opts.Recover, "--recover"},
      {"--trace-buffer", Tracing, "--trace or --postmortem-dir"},
      {"--shadow-sig", Signatures,
       "a --tech other than none on the translator (not --native or "
       "--tier=interp)"},
  };
  for (const auto &R : Requires)
    if (!R.Met && Opts.Given.count(R.Flag)) {
      std::fprintf(stderr, "error: %s needs %s (the run would ignore it)\n",
                   R.Flag, R.Needs);
      return false;
    }
  if (Opts.AttackCount > 0 && Opts.CampaignInjections > 0) {
    std::fprintf(stderr, "error: --campaign-attack excludes --campaign "
                         "(one campaign mode per run)\n");
    return false;
  }
  // Campaign modes record their own oracle during prepare() (and the
  // engines refuse what a campaign kind cannot honour); only a plain-run
  // replay needs an external trace file.
  if (Opts.PropTrace && Opts.GoldenTraceFile.empty() && !Campaign) {
    std::fprintf(stderr,
                 "error: --prop-trace on a plain run needs "
                 "--golden-trace=FILE (record one with a prior clean run)\n");
    return false;
  }
  if (Opts.Recover && !Campaign &&
      (Opts.PropTrace || !Opts.GoldenTraceFile.empty())) {
    std::fprintf(stderr, "error: --golden-trace/--prop-trace do not compose "
                         "with a plain --recover run (rollback rewinds "
                         "architectural state but not the digest stream)\n");
    return false;
  }
  return true;
}

bool loadSource(const std::string &Input, std::string &Source) {
  for (const WorkloadInfo &Info : getWorkloadSuite()) {
    if (Info.Name == Input) {
      Source = getWorkloadSource(Input);
      return true;
    }
  }
  std::ifstream File(Input);
  if (!File)
    return false;
  std::ostringstream Buffer;
  Buffer << File.rdbuf();
  Source = Buffer.str();
  return true;
}

/// Pre-registers the counters every stats report must contain even when
/// they stayed zero, so consumers can rely on the keys being present.
void registerWellKnownKeys(telemetry::MetricsRegistry &Registry) {
  for (const char *Key :
       {"dbt.translations", "dbt.dispatches", "dbt.chains", "dbt.ibtc_hits",
        "dbt.ibtc_misses", "dbt.flushes", "recovery.checkpoints",
        "recovery.rollbacks", "trace.dropped"})
    Registry.counter(Key);
  for (unsigned C = 0; C + 1 < NumBranchErrorCategories; ++C)
    Registry.counter(std::string("trap.category_") +
                     getCategoryName(static_cast<BranchErrorCategory>(C)));
}

/// Publishes derived gauges and prints the registry snapshot in the
/// requested mode: machine formats on stdout, text through Diagnostics.
void emitStats(const Options &Opts, telemetry::MetricsRegistry &Registry) {
  if (Opts.Stats == StatsMode::Off)
    return;
  telemetry::RegistrySnapshot Snap = Registry.snapshot();
  uint64_t Hits = Snap.counterOr("dbt.ibtc_hits");
  uint64_t Misses = Snap.counterOr("dbt.ibtc_misses");
  if (Hits + Misses > 0) {
    Registry.gauge("dbt.ibtc_hit_rate")
        .set(static_cast<double>(Hits) / static_cast<double>(Hits + Misses));
    Snap = Registry.snapshot();
  }
  switch (Opts.Stats) {
  case StatsMode::Json:
    std::printf("%s\n", Snap.toJson().c_str());
    break;
  case StatsMode::Csv:
    std::printf("%s", Snap.toCsv().c_str());
    break;
  case StatsMode::Text: {
    reportNote("run statistics:");
    std::string Text = Snap.toText();
    size_t Pos = 0;
    while (Pos < Text.size()) {
      size_t End = Text.find('\n', Pos);
      reportNote(Text.substr(Pos, End - Pos));
      Pos = End == std::string::npos ? Text.size() : End + 1;
    }
    break;
  }
  case StatsMode::Off:
    break;
  }
}

/// Surfaces event-ring overflow: wraparound loss is otherwise invisible
/// in the stats report, so publish it as a counter and warn when the
/// user asked for stats.
void publishTracerDrops(const Options &Opts,
                        telemetry::MetricsRegistry &Registry,
                        const telemetry::EventTracer *Tracer) {
  if (!Tracer)
    return;
  uint64_t Dropped = Tracer->dropped();
  Registry.counter("trace.dropped").inc(Dropped);
  if (Dropped > 0 && Opts.Stats != StatsMode::Off)
    reportNotef("warning: event ring overflowed; %llu trace event(s) "
                "dropped (raise --trace-buffer)",
                static_cast<unsigned long long>(Dropped));
}

/// Writes the event ring as Chrome trace_event JSON; false (with an
/// error line) when the file cannot be written.
bool writeTrace(const Options &Opts, const telemetry::EventTracer *Tracer) {
  if (!Tracer || Opts.TraceFile.empty())
    return true;
  std::string Error;
  if (!writeFile(Opts.TraceFile, Tracer->renderChromeJson() + '\n', Error)) {
    std::fprintf(stderr, "error: cannot write trace: %s\n", Error.c_str());
    return false;
  }
  reportNotef("trace: %llu events written to %s (%llu dropped)",
              static_cast<unsigned long long>(Tracer->size()),
              Opts.TraceFile.c_str(),
              static_cast<unsigned long long>(Tracer->dropped()));
  return true;
}

/// Per-category trap counter for detected campaign outcomes.
void countDetection(telemetry::MetricsRegistry &Registry,
                    BranchErrorCategory Cat, uint64_t N = 1) {
  if (Cat == BranchErrorCategory::NoError || N == 0)
    return;
  Registry.counter(std::string("trap.category_") + getCategoryName(Cat))
      .inc(N);
}

/// Writes \p ResultJson to --campaign-out when given; false (with an
/// error line) when the file cannot be written.
bool writeCampaignOut(const Options &Opts, const std::string &ResultJson) {
  if (Opts.CampaignOut.empty())
    return true;
  std::string Error;
  if (!writeFile(Opts.CampaignOut, ResultJson + '\n', Error)) {
    std::fprintf(stderr, "error: cannot write campaign result: %s\n",
                 Error.c_str());
    return false;
  }
  reportNotef("campaign result written to %s", Opts.CampaignOut.c_str());
  return true;
}

/// The one EngineConfig both campaign modes run with.
EngineConfig engineConfig(const Options &Opts,
                          telemetry::FlightRecorder *Recorder,
                          telemetry::EventTracer *Tracer) {
  EngineConfig Engine = Opts.Engine;
  Engine.NumInjections =
      Opts.AttackCount > 0 ? Opts.AttackCount : Opts.CampaignInjections;
  Engine.MaxInsns = Opts.MaxInsns;
  Engine.LiveExportFile = Opts.LiveExport;
  Engine.RunId = Opts.RunId;
  Engine.TrackPropagation = Opts.PropTrace || !Opts.GoldenTraceFile.empty();
  Engine.GoldenTraceFile = Opts.GoldenTraceFile;
  Engine.Recovery = Opts.Recover ? &Opts.Recovery : nullptr;
  Engine.Recorder = Recorder;
  Engine.Tracer = Tracer;
  return Engine;
}

/// The --campaign path: batched, checkpointed, optionally sharded and
/// self-stopping injection through the campaign engine. Prints the
/// per-cell table, folds the engine's instruments into \p Registry and
/// returns the result file text.
std::string runEngine(const AsmProgram &Program, const Options &Opts,
                      const EngineConfig &Engine,
                      telemetry::MetricsRegistry &Registry) {
  EngineReport Report = CampaignEngine(Program, Opts.Config, Engine).run();

  Table T;
  T.setHeader({"cell", "inj", "det-sig", "det-hw", "masked", "SDC",
               "timeout", "recovered", "rec-fail", "SDC rate", "95% CI",
               "lat p50", "lat p90", "skip", "realloc"});
  for (const CellReport &Cell : Report.Cells) {
    if (Cell.Counts.total() == 0 && Cell.Skipped == 0)
      continue;
    const telemetry::RegistrySnapshot::HistogramValue *Lat = nullptr;
    std::string LatName = CampaignEngine::getLatencyHistogramName(
        Cell.Category);
    for (const auto &[Name, H] : Report.Registry.Histograms)
      if (Name == LatName)
        Lat = &H;
    std::string Name = getCategoryName(Cell.Category);
    if (Cell.Stopped)
      Name += " (stopped)";
    T.addRow({Name, std::to_string(Cell.Counts.total()),
              std::to_string(Cell.Counts.DetectedSig),
              std::to_string(Cell.Counts.DetectedHw),
              std::to_string(Cell.Counts.Masked),
              std::to_string(Cell.Counts.Sdc),
              std::to_string(Cell.Counts.Timeout),
              std::to_string(Cell.Counts.Recovered),
              std::to_string(Cell.Counts.RecoveryFailed),
              formatString("%.3f", Cell.SdcRate),
              formatString("[%.3f, %.3f]", Cell.Interval.Low,
                           Cell.Interval.High),
              Lat ? Lat->quantileText(0.5) : "-",
              Lat ? Lat->quantileText(0.9) : "-",
              std::to_string(Cell.Skipped),
              std::to_string(Cell.Reallocated)});
  }
  std::printf("%s", T.render().c_str());
  if (Engine.TrackPropagation)
    std::printf("%s", renderPropagationFunnel(Report.Registry).c_str());
  std::printf("campaign: completed=%llu planned=%llu skipped=%llu "
              "shard=%u/%u%s%s\n",
              (unsigned long long)Report.Completed,
              (unsigned long long)Report.Planned,
              (unsigned long long)Report.Skipped, Engine.ShardIndex,
              Engine.NumShards, Report.Resumed ? " resumed" : "",
              Report.Finished ? "" : " (interrupted)");

  // Fold the engine's cumulative instruments into the global registry
  // so --stats reports them alongside everything else. Recovered and
  // RecoveryFailed runs went through a detection before rolling back;
  // they count toward the category's traps.
  Registry.merge(Report.Registry);
  for (const CellReport &Cell : Report.Cells)
    countDetection(Registry, Cell.Category,
                   Cell.Counts.DetectedSig + Cell.Counts.DetectedHw +
                       Cell.Counts.Recovered + Cell.Counts.RecoveryFailed);
  return CampaignEngine::resultToJson(Report, Engine);
}

/// The --campaign-attack path: adversarial campaigns through the attack
/// engine, with the per-family precision matrix. Returns the result file
/// text like runEngine.
std::string runAttack(const AsmProgram &Program, const Options &Opts,
                      const EngineConfig &Engine,
                      telemetry::MetricsRegistry &Registry) {
  AttackEngineReport Report = AttackEngine(Program, Opts.Config, Engine).run();
  const telemetry::RegistrySnapshot &Snap = Report.Registry;
  std::printf("%s", renderPrecisionMatrix(Snap).c_str());
  std::printf("%s\n", renderPrecisionSummaryLine(Snap).c_str());
  std::printf("attack-campaign: completed=%llu planned=%llu "
              "gadget-valid=%llu shard=%u/%u%s%s\n",
              (unsigned long long)Report.Completed,
              (unsigned long long)Report.Planned,
              (unsigned long long)Snap.counterOr("attack.gadget_valid"),
              Engine.ShardIndex, Engine.NumShards,
              Report.Resumed ? " resumed" : "",
              Report.Finished ? "" : " (interrupted)");

  Registry.merge(Snap);
  for (unsigned F = 0; F < NumAttackFamilies; ++F) {
    const AttackOutcomeCounts &C =
        Report.Result.of(static_cast<AttackFamily>(F));
    countDetection(Registry, attackCategory(static_cast<AttackFamily>(F)),
                   C.detected() + C.DetectedShadow);
  }
  return AttackEngine::resultToJson(Report, Engine);
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  if (!parseArgs(Argc, Argv, Opts))
    return usage();

  std::string Source;
  if (!loadSource(Opts.Input, Source)) {
    std::fprintf(stderr, "error: cannot open '%s' (not a file or a "
                         "known workload)\n",
                 Opts.Input.c_str());
    return 1;
  }
  AsmResult Assembled = assembleProgram(Source);
  if (!Assembled.succeeded()) {
    std::fprintf(stderr, "assembly failed:\n%s",
                 Assembled.errorText().c_str());
    return 1;
  }
  const AsmProgram &Program = Assembled.Program;

  if (Opts.Disasm) {
    std::printf("%s", disassembleRange(Program.Code.data(),
                                       Program.Code.size(), CodeBase)
                          .c_str());
    return 0;
  }
  if (Opts.DumpCfg) {
    Cfg Graph = Cfg::build(Program.Code.data(), Program.Code.size(),
                           CodeBase, Program.Entry, Program.CodeLabels);
    std::printf("%s", Graph.toDot().c_str());
    return 0;
  }

  telemetry::MetricsRegistry &Registry = telemetry::MetricsRegistry::global();
  registerWellKnownKeys(Registry);
  std::unique_ptr<telemetry::EventTracer> Tracer;
  if (!Opts.TraceFile.empty())
    Tracer = std::make_unique<telemetry::EventTracer>(Opts.TraceBuffer);

  std::unique_ptr<telemetry::FlightRecorder> Recorder;
  if (!Opts.PostmortemDir.empty()) {
    Recorder = std::make_unique<telemetry::FlightRecorder>(
        Opts.PostmortemDir, Opts.TraceBuffer < 256 ? Opts.TraceBuffer : 256);
    if (Opts.CampaignInjections > 0)
      Recorder->setPrefix("injection_");
  }

  if (Opts.AttackCount > 0 || Opts.CampaignInjections > 0) {
    EngineConfig Engine = engineConfig(Opts, Recorder.get(), Tracer.get());
    std::string Result = Opts.AttackCount > 0
                             ? runAttack(Program, Opts, Engine, Registry)
                             : runEngine(Program, Opts, Engine, Registry);
    if (Recorder)
      reportNotef("post-mortem: %llu bundles written under %s",
                  (unsigned long long)Recorder->bundleCount(),
                  Recorder->dir().c_str());
    if (!writeCampaignOut(Opts, Result))
      return 1;
    publishTracerDrops(Opts, Registry, Tracer.get());
    emitStats(Opts, Registry);
    return writeTrace(Opts, Tracer.get()) ? 0 : 1;
  }

  // Live telemetry. The campaign engines publish their own snapshots
  // inline at batch boundaries (deterministic); a plain run samples the
  // global registry from a background service thread. The exporter
  // publishes a final snapshot when it is destroyed on return, after the
  // end-of-run gauges have been folded in.
  std::unique_ptr<telemetry::LiveExporter> Live;
  if (!Opts.LiveExport.empty()) {
    telemetry::LiveExporter::Config LC;
    LC.Path = Opts.LiveExport;
    LC.RunId = Opts.RunId.empty() ? Opts.Input : Opts.RunId;
    LC.IntervalMs = Opts.LiveIntervalMs;
    Live = std::make_unique<telemetry::LiveExporter>(
        LC, [&Registry](telemetry::RegistrySnapshot &Snap,
                        telemetry::Heartbeat &) {
          Snap = Registry.snapshot();
        });
    Live->start();
  }

  Memory Mem;
  Interpreter Interp(Mem);
  StopInfo Stop;
  // Golden-trace record/replay for plain runs; the campaign engines
  // manage their own oracle.
  telemetry::DigestRecorder Digests;
  telemetry::GoldenTrace Oracle;
  bool RecordTrace = !Opts.GoldenTraceFile.empty() && !Opts.PropTrace;
  bool ReplayTrace = Opts.PropTrace;
  if (ReplayTrace) {
    std::string Err;
    if (!Oracle.load(Opts.GoldenTraceFile, &Err)) {
      std::fprintf(stderr, "error: cannot read golden trace '%s': %s\n",
                   Opts.GoldenTraceFile.c_str(), Err.c_str());
      return 1;
    }
  }
  telemetry::PhaseProfiler Profiler;
  telemetry::BlockProfile Profile;
  std::unique_ptr<Dbt> Translator;
  if (Opts.Native) {
    if (Opts.ProfileBlocks)
      reportNote("--profile-blocks needs the DBT; ignored with --native");
    if (RecordTrace || ReplayTrace) {
      Digests.setMode(telemetry::DigestRecorder::Mode::Interp);
      Interp.setDigestRecorder(&Digests);
    }
    loadProgram(Program, LoadMode::Native, Mem, Interp.state());
    telemetry::PhaseProfiler::Scope Timer(&Profiler,
                                          telemetry::Phase::Execute);
    Stop = Interp.run(Opts.MaxInsns);
  } else {
    Translator = std::make_unique<Dbt>(Mem, Opts.Config, &Registry);
    Translator->setTracer(Tracer.get());
    Translator->setProfiler(&Profiler);
    Translator->setFlightRecorder(Recorder.get());
    // Must precede load(): --eager emits the digest markers at load time.
    if (RecordTrace || ReplayTrace)
      Translator->setDigestRecorder(&Digests);
    if (Opts.ProfileBlocks) {
      Translator->setBlockProfile(&Profile);
      // The recovery path drives Interp.run directly, bypassing
      // Dbt::run's binding; attach to the interpreter here too.
      Interp.setBlockProfile(&Profile);
    }
    if (!Translator->load(Program, Interp.state())) {
      std::fprintf(stderr,
                   Opts.Config.EagerTranslate
                       ? "error: technique %s cannot instrument this "
                         "program (indirect control flow defeats static "
                         "signature assignment)\n"
                       : "error: technique %s needs the whole-program "
                         "CFG; add --eager\n",
                   getTechniqueName(Opts.Config.Tech));
      return 1;
    }
    if (Opts.Recover) {
      RecoveryManager Manager(Interp, *Translator, Opts.Recovery);
      Manager.setFlightRecorder(Recorder.get());
      RecoveryReport Report = Manager.run(Opts.MaxInsns);
      Stop = Report.FinalStop;
      if (!Report.FirstDetection.empty())
        reportNotef("first detection: %s", Report.FirstDetection.c_str());
      reportNotef("recovery: %llu checkpoints, %llu rollbacks, "
                  "%llu watchdog fires%s%s",
                  (unsigned long long)Report.NumCheckpoints,
                  (unsigned long long)Report.NumRollbacks,
                  (unsigned long long)Report.NumWatchdogFires,
                  Report.Degraded ? ", degraded" : "",
                  Report.InterpreterFallback ? ", interpreter fallback" : "");
    } else
      Stop = Translator->run(Interp, Opts.MaxInsns);
  }

  // Recovery runs count their traps at each detection; the plain paths
  // count the single final trap here. An exec-violation is the
  // hardware's category-F detector (a jump landing outside code).
  if (Stop.Kind == StopKind::Trapped && !Opts.Recover) {
    Registry.counter(std::string("trap.") + getTrapKindName(Stop.Trap)).inc();
    if (Stop.Trap == TrapKind::ExecViolation)
      countDetection(Registry, BranchErrorCategory::F);
    if (Tracer)
      Tracer->record(Interp.instructionCount(),
                     telemetry::TraceEventKind::TrapRaised,
                     getTrapKindName(Stop.Trap),
                     Translator ? Translator->guestPCFor(Stop.PC) : Stop.PC);
    if (Recorder) {
      telemetry::PostMortem PM;
      if (Translator) {
        PM = Translator->buildPostMortem("trap", Stop, Interp);
      } else {
        // Native run: no translator to attribute through; record the
        // architectural state directly.
        PM.Reason = "trap";
        PM.StopKind = "trap";
        PM.TrapName = getTrapKindName(Stop.Trap);
        PM.Description = describeStop(Stop);
        PM.GuestPC = Stop.PC;
        PM.CachePC = Stop.PC;
        PM.TrapAddr = Stop.TrapAddr;
        PM.BreakCode = Stop.BreakCode;
        PM.Insns = Interp.instructionCount();
        PM.Cycles = Interp.cycleCount();
        const CpuState &State = Interp.state();
        PM.Regs.assign(State.Regs, State.Regs + NumIntRegs);
        PM.FlagBits = State.F.pack();
        if (Tracer)
          PM.Events = Tracer->events();
        PM.Registry = Registry.snapshot();
      }
      std::string Path = Recorder->write(PM);
      if (!Path.empty())
        reportNotef("post-mortem: bundle written to %s", Path.c_str());
      else
        reportNotef("post-mortem: write failed: %s",
                    Recorder->lastError().c_str());
    }
  }

  std::fputs(Interp.output().c_str(), stdout);
  reportNotef("%s after %llu insns", describeStop(Stop),
              (unsigned long long)Interp.instructionCount());
  if (Stop.Kind == StopKind::Trapped) {
    uint64_t GuestPC =
        Translator ? Translator->guestPCFor(Stop.PC) : Stop.PC;
    reportNote(formatTrapDiagnostic(Stop, Interp.state(), GuestPC));
  }

  if (RecordTrace) {
    Oracle.Records = Digests.takeRecords();
    // Execution fingerprints: consumers can tell which run this oracle
    // describes without hashing the trace itself.
    Oracle.ProgramFp = hashOutput(Interp.output());
    Oracle.ConfigFp = Interp.instructionCount();
    std::string Err;
    if (!Oracle.save(Opts.GoldenTraceFile, &Err)) {
      std::fprintf(stderr, "error: cannot write golden trace '%s': %s\n",
                   Opts.GoldenTraceFile.c_str(), Err.c_str());
      return 1;
    }
    reportNotef("golden trace: %llu records written to %s",
                (unsigned long long)Oracle.Records.size(),
                Opts.GoldenTraceFile.c_str());
  }
  if (ReplayTrace) {
    telemetry::PropOutcome PO = telemetry::PropOutcome::Timeout;
    switch (Stop.Kind) {
    case StopKind::Trapped:
      PO = telemetry::PropOutcome::Detected;
      break;
    case StopKind::InsnLimit:
      PO = telemetry::PropOutcome::Timeout;
      break;
    case StopKind::Halted:
      PO = hashOutput(Interp.output()) == Oracle.ProgramFp
               ? telemetry::PropOutcome::Masked
               : telemetry::PropOutcome::Sdc;
      break;
    }
    telemetry::PropagationReport PR =
        telemetry::analyzePropagation(Oracle.Records, Digests.records(), PO);
    if (PR.Diverged)
      reportNotef("propagation: %s — first divergence at record %llu "
                  "(guest insn %llu, block 0x%llx); crossed %llu tainted "
                  "block(s), %llu signature check(s), %llu insn(s) to the "
                  "outcome",
                  telemetry::getPropClassName(PR.Class),
                  (unsigned long long)PR.DivergenceOrdinal,
                  (unsigned long long)PR.DivergenceKey,
                  (unsigned long long)PR.DivergencePC,
                  (unsigned long long)PR.TaintedBlocks,
                  (unsigned long long)PR.ChecksCrossed,
                  (unsigned long long)PR.InsnsCrossed);
    else
      reportNotef("propagation: %s — no architectural divergence from the "
                  "golden trace (%llu record(s) compared)",
                  telemetry::getPropClassName(PR.Class),
                  (unsigned long long)Digests.records().size());
  }

  if (Translator && Translator->integrityEnabled())
    reportNotef("integrity: %llu scrubs, %llu mismatches, "
                "%llu retranslations",
                (unsigned long long)Translator->integrityScrubCount(),
                (unsigned long long)Translator->integrityMismatchCount(),
                (unsigned long long)Translator->integrityRetranslationCount());
  Interp.publishMetrics(Registry);
  Profiler.publishTo(Registry);
  // Snapshot consumers key off dbt.tier: 0 = bare interpreter, 1 = base
  // translator, 2 = optimizing trace tier.
  const char *TierName =
      Opts.Native ? "interp" : getDbtTierName(Opts.Config.Tier);
  Registry.gauge("dbt.tier").set(
      Opts.Native ? 0.0 : (Opts.Config.Tier == DbtTier::Opt ? 2.0 : 1.0));
  if (Opts.Stats != StatsMode::Off)
    reportNotef("tier: %s", TierName);
  Registry.gauge("run.output_hash")
      .set(static_cast<double>(hashOutput(Interp.output()) >> 11));
  if (Opts.ProfileBlocks && Translator) {
    Profile.publishTo(Registry);
    std::printf("%s", Profile.renderReport(Opts.ProfileTopN).c_str());
    reportNotef("block profile: %llu block executions vs %llu dbt "
                "dispatches (chained and fused transfers are counted "
                "inline, not dispatched)",
                (unsigned long long)Profile.totalBlockExecs(),
                (unsigned long long)Translator->dispatchCount());
  }
  publishTracerDrops(Opts, Registry, Tracer.get());
  emitStats(Opts, Registry);
  if (!writeTrace(Opts, Tracer.get()))
    return 1;

  if (Opts.DumpCache && Translator) {
    std::vector<const TranslatedBlock *> Sorted;
    for (const TranslatedBlock &TB : Translator->blocks())
      Sorted.push_back(&TB);
    std::sort(Sorted.begin(), Sorted.end(),
              [](const TranslatedBlock *A, const TranslatedBlock *B) {
                return A->GuestAddr < B->GuestAddr;
              });
    for (const TranslatedBlock *TB : Sorted) {
      std::vector<uint8_t> Code(TB->CacheSize);
      Mem.readRaw(TB->CacheAddr, Code.data(), Code.size());
      std::string Unit;
      if (TB->UnitBlocks > 1 || TB->Promoted)
        Unit = formatString(" (%s, %u blocks, %u cond seams)",
                            TB->Promoted ? "optimized trace" : "superblock",
                            TB->UnitBlocks, TB->CondSeams);
      std::printf("; guest block 0x%llx%s\n%s",
                  (unsigned long long)TB->GuestAddr, Unit.c_str(),
                  disassembleRange(Code.data(), Code.size(), TB->CacheAddr)
                      .c_str());
    }
  }
  return Stop.Kind == StopKind::Halted ? 0 : 1;
}
