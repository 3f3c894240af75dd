//===- LiveView.cpp - Merge and render live snapshots ----------------------===//

#include "telemetry/LiveView.h"

#include "support/Format.h"
#include "support/Stats.h"

#include <algorithm>
#include <map>

using namespace cfed;
using namespace cfed::telemetry;

double telemetry::counterRatePerSec(const ShardSample &S,
                                    const std::string &Name) {
  if (!S.HavePrev)
    return -1.0;
  // A sequence that did not advance means the file was re-read between
  // publishes; one that went backwards means the publisher restarted.
  // Either way the delta is meaningless.
  if (S.Snap.Seq <= S.Prev.Seq || S.Snap.WallMs <= S.Prev.WallMs)
    return -1.0;
  uint64_t Cur = S.Snap.Registry.counterOr(Name);
  uint64_t Old = S.Prev.Registry.counterOr(Name);
  if (Cur < Old)
    return -1.0;
  double Seconds =
      static_cast<double>(S.Snap.WallMs - S.Prev.WallMs) / 1000.0;
  return static_cast<double>(Cur - Old) / Seconds;
}

RegistrySnapshot
telemetry::mergeSamples(const std::vector<ShardSample> &Samples) {
  MetricsRegistry Merged;
  for (const ShardSample &S : Samples)
    Merged.merge(S.Snap.Registry);
  return Merged.snapshot();
}

namespace {

/// Sum of per-shard rates for \p Name; negative when no shard has a
/// valid delta yet.
double mergedRatePerSec(const std::vector<ShardSample> &Samples,
                        const std::string &Name) {
  double Total = 0.0;
  bool Any = false;
  for (const ShardSample &S : Samples) {
    double R = counterRatePerSec(S, Name);
    if (R >= 0.0) {
      Total += R;
      Any = true;
    }
  }
  return Any ? Total : -1.0;
}

std::string formatAge(double Seconds) {
  if (Seconds < 0)
    return "-";
  if (Seconds < 120.0)
    return formatString("%.1fs", Seconds);
  return formatString("%.1fm", Seconds / 60.0);
}

std::string formatRate(double Rate) {
  if (Rate < 0.0)
    return "-";
  if (Rate >= 1000.0)
    return formatString("%.0f/s", Rate);
  return formatString("%.1f/s", Rate);
}

struct MergedCell {
  uint64_t Total = 0;
  uint64_t Sdc = 0;
  bool Closed = true;
  bool Any = false;
};

} // namespace

std::string telemetry::renderLiveView(const std::vector<ShardSample> &Samples,
                                      const LiveViewOptions &Opts) {
  uint64_t NowMs = Opts.NowMs;
  if (NowMs == 0)
    for (const ShardSample &S : Samples)
      NowMs = std::max(NowMs, S.Snap.WallMs);

  std::string Out =
      formatString("cfed live view — %zu shard(s)\n", Samples.size());

  // --- Per-shard status --------------------------------------------------
  size_t LabelW = 5;
  for (const ShardSample &S : Samples)
    LabelW = std::max(LabelW, S.Label.size());
  Out += formatString("  %-*s %-14s %7s %6s %8s %9s %-8s %s\n",
                      static_cast<int>(LabelW), "shard", "run-id", "pid",
                      "seq", "age", "progress", "state", "rung");
  size_t Stalled = 0;
  for (const ShardSample &S : Samples) {
    double AgeSec =
        NowMs >= S.Snap.WallMs
            ? static_cast<double>(NowMs - S.Snap.WallMs) / 1000.0
            : 0.0;
    const Heartbeat &Beat = S.Snap.Beat;
    bool Done = Beat.Present && Beat.Cursor >= Beat.Planned;
    bool IsStalled = !Done && AgeSec > Opts.StallAfterSec;
    if (IsStalled)
      ++Stalled;
    std::string Progress =
        Beat.Present ? formatString("%llu/%llu",
                                    static_cast<unsigned long long>(
                                        Beat.Cursor),
                                    static_cast<unsigned long long>(
                                        Beat.Planned))
                     : "-";
    const char *State = Done ? "done" : (IsStalled ? "STALLED" : "ok");
    std::string Rung = Beat.Present
                           ? Beat.Rung
                           : recoveryRungFromSnapshot(S.Snap.Registry);
    Out += formatString("  %-*s %-14s %7llu %6llu %8s %9s %-8s %s\n",
                        static_cast<int>(LabelW), S.Label.c_str(),
                        S.Snap.RunId.c_str(),
                        static_cast<unsigned long long>(S.Snap.Pid),
                        static_cast<unsigned long long>(S.Snap.Seq),
                        formatAge(AgeSec).c_str(), Progress.c_str(), State,
                        Rung.c_str());
  }
  if (Stalled)
    Out += formatString("  ** %zu shard(s) STALLED (heartbeat older than "
                        "%.0fs) **\n",
                        Stalled, Opts.StallAfterSec);

  RegistrySnapshot Merged = mergeSamples(Samples);

  // --- Merged counters with rates ----------------------------------------
  std::vector<std::pair<std::string, uint64_t>> Top = Merged.Counters;
  std::stable_sort(Top.begin(), Top.end(),
                   [](const auto &A, const auto &B) {
                     return A.second > B.second;
                   });
  if (Top.size() > Opts.TopCounters)
    Top.resize(Opts.TopCounters);
  if (!Top.empty()) {
    size_t NameW = 7;
    for (const auto &[Name, Value] : Top)
      NameW = std::max(NameW, Name.size());
    Out += "  merged counters:\n";
    for (const auto &[Name, Value] : Top)
      Out += formatString("    %-*s %12llu %12s\n",
                          static_cast<int>(NameW), Name.c_str(),
                          static_cast<unsigned long long>(Value),
                          formatRate(mergedRatePerSec(Samples, Name))
                              .c_str());
  }
  uint64_t Hits = Merged.counterOr("dbt.ibtc_hits");
  uint64_t Misses = Merged.counterOr("dbt.ibtc_misses");
  if (Hits + Misses)
    Out += formatString("  ibtc_hit_rate (merged): %.4f\n",
                        static_cast<double>(Hits) /
                            static_cast<double>(Hits + Misses));
  uint64_t Dropped = Merged.counterOr("trace.dropped");
  if (Dropped)
    Out += formatString("  warning: %llu trace event(s) dropped across "
                        "shards\n",
                        static_cast<unsigned long long>(Dropped));

  // --- Merged campaign cells ---------------------------------------------
  // Heartbeat cells carry each publishing shard's own counts; summing
  // them across shards and recomputing the Wilson interval gives the
  // campaign-wide view.
  std::map<std::string, MergedCell> Cells;
  for (const ShardSample &S : Samples)
    for (const HeartbeatCell &C : S.Snap.Beat.Cells) {
      MergedCell &M = Cells[C.Name];
      M.Total += C.Total;
      M.Sdc += C.Sdc;
      // Shards decide closure alone; the conservative reading is
      // "closed only if every shard closed".
      M.Closed = (M.Any ? M.Closed : true) && C.Closed;
      M.Any = true;
    }
  if (!Cells.empty()) {
    Out += "  cells (merged, z=1.96):\n";
    Out += formatString("    %-5s %8s %8s %8s %19s %8s %s\n", "cell", "inj",
                        "sdc", "rate", "ci95", "half", "state");
    for (const auto &[Name, M] : Cells) {
      WilsonInterval CI = wilsonInterval(M.Sdc, M.Total, 1.96);
      double Rate = M.Total ? static_cast<double>(M.Sdc) /
                                  static_cast<double>(M.Total)
                            : 0.0;
      Out += formatString("    %-5s %8llu %8llu %8.4f [%7.4f, %7.4f] %8.4f "
                          "%s\n",
                          Name.c_str(),
                          static_cast<unsigned long long>(M.Total),
                          static_cast<unsigned long long>(M.Sdc), Rate,
                          CI.Low, CI.High, CI.halfWidth(),
                          M.Closed ? "closed" : "open");
    }
  }

  // --- Merged detection-latency quantiles --------------------------------
  bool Header = false;
  for (const auto &[Name, H] : Merged.Histograms) {
    if (Name.rfind("fault.latency.", 0) != 0 || H.Count == 0)
      continue;
    if (!Header) {
      Out += "  detection latency (merged, insns):\n";
      Out += formatString("    %-22s %8s %10s %8s %8s %8s\n", "histogram",
                          "count", "mean", "p50", "p90", "p99");
      Header = true;
    }
    Out += formatString("    %-22s %8llu %10.1f %8s %8s %8s\n", Name.c_str(),
                        static_cast<unsigned long long>(H.Count), H.mean(),
                        H.quantileText(0.5).c_str(),
                        H.quantileText(0.9).c_str(),
                        H.quantileText(0.99).c_str());
  }
  return Out;
}
