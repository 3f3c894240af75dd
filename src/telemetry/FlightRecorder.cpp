//===- FlightRecorder.cpp - Post-mortem bundle serialization --------------===//

#include "telemetry/FlightRecorder.h"

#include "support/FileIO.h"
#include "support/Format.h"
#include "support/Json.h"

#include <filesystem>

using namespace cfed;
using namespace cfed::telemetry;

namespace {

void appendStringField(std::string &Out, const char *Key,
                       const std::string &Value, bool Comma = true) {
  Out += formatString("  \"%s\": ", Key);
  json::appendString(Out, Value);
  Out += Comma ? ",\n" : "\n";
}

std::string hexString(uint64_t V) {
  return formatString("0x%llx", static_cast<unsigned long long>(V));
}

} // namespace

std::string FlightRecorder::renderJson(const PostMortem &PM,
                                       size_t MaxEvents) {
  // Version 2 added the optional "propagation" section; everything a
  // version-1 reader understood is unchanged.
  std::string Out = "{\n";
  Out += "  \"version\": 2,\n";
  appendStringField(Out, "reason", PM.Reason);

  Out += "  \"stop\": {";
  Out += "\"kind\": ";
  json::appendString(Out, PM.StopKind);
  Out += ", \"trap\": ";
  json::appendString(Out, PM.TrapName);
  Out += ", \"description\": ";
  json::appendString(Out, PM.Description);
  Out += "},\n";

  appendStringField(Out, "guest_pc", hexString(PM.GuestPC));
  appendStringField(Out, "cache_pc", hexString(PM.CachePC));
  appendStringField(Out, "trap_addr", hexString(PM.TrapAddr));
  Out += formatString("  \"break_code\": %lld,\n",
                      static_cast<long long>(PM.BreakCode));
  Out += formatString("  \"insns\": %llu,\n",
                      static_cast<unsigned long long>(PM.Insns));
  Out += formatString("  \"cycles\": %llu,\n",
                      static_cast<unsigned long long>(PM.Cycles));

  Out += "  \"cpu\": {\"flags\": ";
  Out += std::to_string(PM.FlagBits);
  Out += ", \"regs\": [";
  for (size_t I = 0; I < PM.Regs.size(); ++I) {
    if (I)
      Out += ", ";
    Out += "\"" + hexString(PM.Regs[I]) + "\"";
  }
  Out += "]},\n";

  size_t First = 0;
  if (MaxEvents && PM.Events.size() > MaxEvents)
    First = PM.Events.size() - MaxEvents;
  Out += "  \"events\": [\n";
  for (size_t I = First; I < PM.Events.size(); ++I) {
    const TraceEvent &E = PM.Events[I];
    Out += formatString(
        "    {\"ts\": %llu, \"kind\": \"%s\", \"category\": ",
        static_cast<unsigned long long>(E.Ts), getTraceEventName(E.Kind));
    json::appendString(Out, E.Category ? E.Category : "");
    Out += formatString(", \"addr\": \"%s\", \"arg\": %llu}",
                        hexString(E.Addr).c_str(),
                        static_cast<unsigned long long>(E.Arg));
    Out += I + 1 < PM.Events.size() ? ",\n" : "\n";
  }
  Out += "  ],\n";

  Out += "  \"registry\": " + PM.Registry.toJson() + ",\n";

  Out += formatString(
      "  \"recovery\": {\"present\": %s, \"checkpoints\": %llu, "
      "\"rollbacks\": %llu, \"watchdog_fires\": %llu, \"ring_depth\": %llu, "
      "\"degraded\": %s, \"interpreter_fallback\": %s},\n",
      PM.Recovery.Present ? "true" : "false",
      static_cast<unsigned long long>(PM.Recovery.Checkpoints),
      static_cast<unsigned long long>(PM.Recovery.Rollbacks),
      static_cast<unsigned long long>(PM.Recovery.WatchdogFires),
      static_cast<unsigned long long>(PM.Recovery.RingDepth),
      PM.Recovery.Degraded ? "true" : "false",
      PM.Recovery.InterpreterFallback ? "true" : "false");

  if (PM.Propagation.Present) {
    Out += formatString(
        "  \"propagation\": {\"present\": true, \"class\": \"%s\", "
        "\"diverged\": %s, \"divergence_ordinal\": %llu, "
        "\"divergence_key\": %llu, \"divergence_pc\": \"%s\", "
        "\"tainted_blocks\": %llu, \"checks_crossed\": %llu, "
        "\"insns_crossed\": %llu},\n",
        PM.Propagation.Class.c_str(),
        PM.Propagation.Diverged ? "true" : "false",
        static_cast<unsigned long long>(PM.Propagation.DivergenceOrdinal),
        static_cast<unsigned long long>(PM.Propagation.DivergenceKey),
        hexString(PM.Propagation.DivergencePC).c_str(),
        static_cast<unsigned long long>(PM.Propagation.TaintedBlocks),
        static_cast<unsigned long long>(PM.Propagation.ChecksCrossed),
        static_cast<unsigned long long>(PM.Propagation.InsnsCrossed));
  }

  appendStringField(Out, "guest_disasm", PM.GuestDisasm);
  appendStringField(Out, "host_disasm", PM.HostDisasm);

  Out += "  \"annotations\": {";
  for (size_t I = 0; I < PM.Annotations.size(); ++I) {
    if (I)
      Out += ", ";
    json::appendString(Out, PM.Annotations[I].first);
    Out += formatString(
        ": %llu",
        static_cast<unsigned long long>(PM.Annotations[I].second));
  }
  Out += "},\n";

  appendStringField(Out, "note", PM.Note, /*Comma=*/false);
  Out += "}\n";
  return Out;
}

std::string FlightRecorder::write(const PostMortem &PM) {
  std::error_code EC;
  std::filesystem::create_directories(Dir, EC);
  if (EC) {
    LastError = formatString("cannot create directory '%s': %s", Dir.c_str(),
                             EC.message().c_str());
    return "";
  }

  std::string Path =
      formatString("%s/%s%04llu.json", Dir.c_str(), Prefix.c_str(),
                   static_cast<unsigned long long>(Seq));
  if (!writeFile(Path, renderJson(PM, MaxEvents), LastError))
    return "";

  ++Seq;
  LastPath = Path;
  LastError.clear();
  return Path;
}
