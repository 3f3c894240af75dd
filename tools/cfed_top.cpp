//===- cfed_top.cpp - Live campaign monitor (watch mode) ------------------===//
//
// Part of the CFED project (CGO'06 control-flow error detection repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Terminal monitor over the live telemetry plane:
///
///   cfed-top [--interval=MS] [--stall-after=SEC] [--top=N] [--once] PATH...
///
/// Each PATH is either a live snapshot file (cfed-run --live-export,
/// campaign-engine inline export) or a directory to scan for
/// "*.live.json" files — pass a campaign's --campaign-coordinator
/// directory to watch every shard at once. The view refreshes every
/// --interval ms (default 1000): per-shard status rows (sequence, age,
/// progress, recovery rung; shards whose heartbeat is older than
/// --stall-after seconds flag as STALLED), merged top counters with
/// rates computed from sequence-numbered snapshot deltas, the merged
/// ibtc hit rate, merged per-cell Wilson intervals, and merged
/// detection-latency quantiles.
///
/// --once renders a single frame and exits (also what `cfed-stat tail`
/// does); exit status 2 when no snapshot could be parsed.
///
//===----------------------------------------------------------------------===//

#include "support/CliArgs.h"
#include "support/FileIO.h"
#include "support/Json.h"
#include "telemetry/LiveExport.h"
#include "telemetry/LiveView.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <dirent.h>
#include <map>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <vector>

using namespace cfed;
using cfed::json::JsonParser;
using cfed::json::JsonValue;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: cfed-top [--interval=MS] [--stall-after=SEC] "
               "[--top=N] [--once]\n"
               "                <file-or-dir>...\n"
               "\n"
               "Watches live telemetry snapshots (cfed-run --live-export "
               "files, or a\n--campaign-coordinator directory scanned for "
               "*.live.json).\n");
  return 2;
}

struct TopOptions {
  uint64_t IntervalMs = 1000;
  double StallAfterSec = 10.0;
  uint64_t TopCounters = 10;
  bool Once = false;
  std::vector<std::string> Paths;
};

bool parseArgs(int Argc, char **Argv, TopOptions &Opts) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    cli::Flag F;
    if (!cli::splitFlag(Arg, F)) {
      Opts.Paths.push_back(Arg);
      continue;
    }
    if (F.Name == "--interval") {
      if (!F.HasValue || !cli::parseUint(F.Value, Opts.IntervalMs) ||
          Opts.IntervalMs == 0)
        return cli::badValue(F.Name, "<milliseconds >= 1>", F.Value);
    } else if (F.Name == "--stall-after") {
      if (!F.HasValue || !cli::parseDouble(F.Value, Opts.StallAfterSec) ||
          Opts.StallAfterSec <= 0.0)
        return cli::badValue(F.Name, "<seconds > 0>", F.Value);
    } else if (F.Name == "--top") {
      if (!F.HasValue || !cli::parseUint(F.Value, Opts.TopCounters) ||
          Opts.TopCounters == 0)
        return cli::badValue(F.Name, "<count >= 1>", F.Value);
    } else if (F.Name == "--once") {
      if (F.HasValue)
        return cli::unexpectedValue(F.Name);
      Opts.Once = true;
    } else {
      return cli::unknownOption(Arg);
    }
  }
  if (Opts.Paths.empty()) {
    std::fprintf(stderr, "error: missing <file-or-dir> argument\n");
    return false;
  }
  return true;
}

bool endsWith(const std::string &Text, const char *Suffix) {
  size_t N = std::string(Suffix).size();
  return Text.size() >= N && Text.compare(Text.size() - N, N, Suffix) == 0;
}

/// Expands the PATH arguments into concrete snapshot files: directories
/// contribute their "*.live.json" entries (sorted, so shard order is
/// stable), everything else passes through as-is.
std::vector<std::string> expandPaths(const std::vector<std::string> &Paths) {
  std::vector<std::string> Files;
  for (const std::string &Path : Paths) {
    struct stat St;
    if (stat(Path.c_str(), &St) == 0 && S_ISDIR(St.st_mode)) {
      std::vector<std::string> Dir;
      if (DIR *D = opendir(Path.c_str())) {
        while (struct dirent *E = readdir(D)) {
          std::string Name = E->d_name;
          if (endsWith(Name, ".live.json"))
            Dir.push_back(Path + "/" + Name);
        }
        closedir(D);
      }
      std::sort(Dir.begin(), Dir.end());
      Files.insert(Files.end(), Dir.begin(), Dir.end());
    } else {
      Files.push_back(Path);
    }
  }
  return Files;
}

bool loadSnapshot(const std::string &Path, telemetry::LiveSnapshot &Out,
                  std::string &Error) {
  std::string Text;
  if (!readWholeFile(Path, Text)) {
    Error = "cannot open";
    return false;
  }
  JsonValue Root;
  JsonParser Parser(Text);
  if (!Parser.parse(Root)) {
    Error = "not parseable JSON";
    return false;
  }
  return telemetry::liveSnapshotFromJson(Root, Out, Error);
}

std::string baseName(const std::string &Path) {
  size_t Slash = Path.find_last_of('/');
  return Slash == std::string::npos ? Path : Path.substr(Slash + 1);
}

} // namespace

int main(int Argc, char **Argv) {
  TopOptions Opts;
  if (!parseArgs(Argc, Argv, Opts))
    return usage();

  // Previous snapshot per file path: the rate denominators. A file whose
  // publisher restarted (sequence decrease) naturally yields "-" rates
  // for one frame, then recovers.
  std::map<std::string, telemetry::LiveSnapshot> Prev;
  for (;;) {
    std::vector<std::string> Files = expandPaths(Opts.Paths);
    std::vector<telemetry::ShardSample> Samples;
    std::map<std::string, telemetry::LiveSnapshot> Next;
    std::vector<std::string> Errors;
    for (const std::string &File : Files) {
      telemetry::ShardSample S;
      std::string Error;
      if (!loadSnapshot(File, S.Snap, Error)) {
        Errors.push_back(File + ": " + Error);
        continue;
      }
      S.Label = baseName(File);
      auto It = Prev.find(File);
      if (It != Prev.end()) {
        S.HavePrev = true;
        S.Prev = It->second;
      }
      Next[File] = S.Snap;
      Samples.push_back(std::move(S));
    }
    Prev = std::move(Next);

    if (Samples.empty() && Opts.Once) {
      for (const std::string &E : Errors)
        std::fprintf(stderr, "cfed-top: %s\n", E.c_str());
      std::fprintf(stderr, "cfed-top: no live snapshots found\n");
      return 2;
    }

    telemetry::LiveViewOptions View;
    View.NowMs = telemetry::wallClockMs();
    View.StallAfterSec = Opts.StallAfterSec;
    View.TopCounters = Opts.TopCounters;
    std::string Frame;
    if (Samples.empty())
      Frame = "cfed-top: waiting for live snapshots...\n";
    else
      Frame = telemetry::renderLiveView(Samples, View);
    for (const std::string &E : Errors)
      Frame += "  (unreadable: " + E + ")\n";

    if (Opts.Once) {
      std::printf("%s", Frame.c_str());
      return 0;
    }
    // Clear-and-home keeps the frame flicker-free on anything ANSI.
    std::printf("\x1b[2J\x1b[H%s\nrefreshing every %llu ms — ctrl-c to "
                "quit\n",
                Frame.c_str(),
                static_cast<unsigned long long>(Opts.IntervalMs));
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::milliseconds(Opts.IntervalMs));
  }
}
