//===- Metrics.cpp - Named counters, gauges, and histograms ----------------===//

#include "telemetry/Metrics.h"

#include "support/Diagnostics.h"
#include "support/Format.h"
#include "support/Json.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

using namespace cfed;
using namespace cfed::telemetry;

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

Histogram::Histogram(std::vector<uint64_t> UpperBounds)
    : Bounds(std::move(UpperBounds)), Buckets(Bounds.size() + 1) {
  // Bucket edges are part of the instrument's identity: silently
  // repairing a bad configuration would make the caller's reading of
  // the bucket counts wrong. Reject it at registration instead.
  if (Bounds.empty())
    reportFatalError("histogram bucket bounds must not be empty");
  for (size_t I = 1; I < Bounds.size(); ++I)
    if (Bounds[I] <= Bounds[I - 1])
      reportFatalErrorf("histogram bucket bounds must be strictly "
                        "increasing: bound[%zu]=%llu does not exceed "
                        "bound[%zu]=%llu",
                        I, static_cast<unsigned long long>(Bounds[I]), I - 1,
                        static_cast<unsigned long long>(Bounds[I - 1]));
}

void Histogram::observe(uint64_t Sample) {
  size_t Index =
      std::lower_bound(Bounds.begin(), Bounds.end(), Sample) - Bounds.begin();
  Buckets[Index].fetch_add(1, std::memory_order_relaxed);
  Count.fetch_add(1, std::memory_order_relaxed);
  Sum.fetch_add(Sample, std::memory_order_relaxed);
}

void Histogram::add(const std::vector<uint64_t> &OtherBuckets,
                    uint64_t OtherCount, uint64_t OtherSum) {
  size_t N = std::min(OtherBuckets.size(), Buckets.size());
  for (size_t I = 0; I < N; ++I)
    Buckets[I].fetch_add(OtherBuckets[I], std::memory_order_relaxed);
  // Shape mismatch (different bounds): fold the tail into the overflow
  // bucket so Count stays consistent with the bucket total.
  for (size_t I = N; I < OtherBuckets.size(); ++I)
    Buckets.back().fetch_add(OtherBuckets[I], std::memory_order_relaxed);
  Count.fetch_add(OtherCount, std::memory_order_relaxed);
  Sum.fetch_add(OtherSum, std::memory_order_relaxed);
}

std::vector<uint64_t> Histogram::bucketCounts() const {
  std::vector<uint64_t> Out(Buckets.size());
  for (size_t I = 0; I < Buckets.size(); ++I)
    Out[I] = Buckets[I].load(std::memory_order_relaxed);
  return Out;
}

void Histogram::reset() {
  for (auto &B : Buckets)
    B.store(0, std::memory_order_relaxed);
  Count.store(0, std::memory_order_relaxed);
  Sum.store(0, std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// RegistrySnapshot
//===----------------------------------------------------------------------===//

double RegistrySnapshot::HistogramValue::mean() const {
  if (Count == 0)
    return 0.0;
  return static_cast<double>(Sum) / static_cast<double>(Count);
}

namespace {

/// Index of the bucket holding the \p Q-quantile sample; Buckets.size()
/// when the histogram is empty.
size_t quantileBucket(const std::vector<uint64_t> &Buckets, uint64_t Count,
                      double Q) {
  if (Count == 0)
    return Buckets.size();
  Q = std::min(1.0, std::max(0.0, Q));
  // Rank of the wanted sample (1-based, ceil) within the cumulated
  // bucket counts.
  uint64_t Rank = static_cast<uint64_t>(
      std::ceil(Q * static_cast<double>(Count)));
  if (Rank == 0)
    Rank = 1;
  uint64_t Cumulative = 0;
  for (size_t I = 0; I < Buckets.size(); ++I) {
    Cumulative += Buckets[I];
    if (Cumulative >= Rank)
      return I;
  }
  return Buckets.size() - 1;
}

} // namespace

uint64_t RegistrySnapshot::HistogramValue::quantile(double Q) const {
  size_t I = quantileBucket(Buckets, Count, Q);
  if (I >= Buckets.size() || Bounds.empty())
    return 0;
  // The overflow bucket is open-ended: clamp to the largest finite
  // bound (the old "+ 1" both understated large samples and could wrap)
  // and let quantileOverflows()/quantileText() carry the ">=" signal.
  return I < Bounds.size() ? Bounds[I] : Bounds.back();
}

bool RegistrySnapshot::HistogramValue::quantileOverflows(double Q) const {
  size_t I = quantileBucket(Buckets, Count, Q);
  return I < Buckets.size() && I >= Bounds.size();
}

std::string RegistrySnapshot::HistogramValue::quantileText(double Q) const {
  if (quantileOverflows(Q))
    return ">=" + std::to_string(Bounds.empty() ? 0 : Bounds.back());
  return std::to_string(quantile(Q));
}

uint64_t RegistrySnapshot::counterOr(const std::string &Name,
                                     uint64_t Default) const {
  for (const auto &[N, V] : Counters)
    if (N == Name)
      return V;
  return Default;
}

double RegistrySnapshot::gaugeOr(const std::string &Name,
                                 double Default) const {
  for (const auto &[N, V] : Gauges)
    if (N == Name)
      return V;
  return Default;
}

namespace {

/// Six significant digits for the human-readable summary; the JSON and
/// CSV forms print gauges exactly (formatDoubleExact).
std::string formatDoubleShort(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.6g", V);
  return Buf;
}

} // namespace

std::string RegistrySnapshot::toJson() const {
  std::string Out = "{\"counters\":{";
  bool First = true;
  for (const auto &[Name, Value] : Counters) {
    if (!First)
      Out += ',';
    First = false;
    json::appendString(Out, Name);
    Out += ':';
    Out += std::to_string(Value);
  }
  Out += "},\"gauges\":{";
  First = true;
  for (const auto &[Name, Value] : Gauges) {
    if (!First)
      Out += ',';
    First = false;
    json::appendString(Out, Name);
    Out += ':';
    Out += formatDoubleExact(Value);
  }
  Out += "},\"histograms\":{";
  First = true;
  for (const auto &[Name, H] : Histograms) {
    if (!First)
      Out += ',';
    First = false;
    json::appendString(Out, Name);
    Out += ":{\"bounds\":[";
    for (size_t I = 0; I < H.Bounds.size(); ++I) {
      if (I)
        Out += ',';
      Out += std::to_string(H.Bounds[I]);
    }
    Out += "],\"buckets\":[";
    for (size_t I = 0; I < H.Buckets.size(); ++I) {
      if (I)
        Out += ',';
      Out += std::to_string(H.Buckets[I]);
    }
    Out += "],\"count\":";
    Out += std::to_string(H.Count);
    Out += ",\"sum\":";
    Out += std::to_string(H.Sum);
    Out += '}';
  }
  Out += "}}";
  return Out;
}

std::string RegistrySnapshot::toCsv() const {
  std::string Out = "kind,name,value\n";
  for (const auto &[Name, Value] : Counters)
    Out += "counter," + Name + ',' + std::to_string(Value) + '\n';
  for (const auto &[Name, Value] : Gauges)
    Out += "gauge," + Name + ',' + formatDoubleExact(Value) + '\n';
  for (const auto &[Name, H] : Histograms)
    Out += "histogram," + Name + ',' + std::to_string(H.Count) + '\n';
  return Out;
}

std::string RegistrySnapshot::toText() const {
  size_t Width = 0;
  for (const auto &[Name, Value] : Counters)
    Width = std::max(Width, Name.size());
  for (const auto &[Name, Value] : Gauges)
    Width = std::max(Width, Name.size());
  for (const auto &[Name, H] : Histograms)
    Width = std::max(Width, Name.size());

  std::string Out;
  for (const auto &[Name, Value] : Counters) {
    Out += "  " + Name + std::string(Width - Name.size() + 2, ' ') +
           std::to_string(Value) + '\n';
  }
  for (const auto &[Name, Value] : Gauges) {
    Out += "  " + Name + std::string(Width - Name.size() + 2, ' ') +
           formatDoubleShort(Value) + '\n';
  }
  for (const auto &[Name, H] : Histograms) {
    Out += "  " + Name + std::string(Width - Name.size() + 2, ' ') +
           "count=" + std::to_string(H.Count) +
           " sum=" + std::to_string(H.Sum) + '\n';
  }
  return Out;
}

bool telemetry::snapshotFromJson(const json::JsonValue &Json,
                                 RegistrySnapshot &Out, std::string &Error) {
  using json::JsonValue;
  if (Json.K != JsonValue::Object) {
    Error = "snapshot is not a JSON object";
    return false;
  }
  Out = RegistrySnapshot();

  const JsonValue &Counters = Json["counters"];
  if (Counters.K == JsonValue::Object) {
    for (const auto &[Name, V] : Counters.Fields) {
      if (V.K != JsonValue::Number) {
        Error = "counter '" + Name + "' is not a number";
        return false;
      }
      Out.Counters.emplace_back(Name, static_cast<uint64_t>(V.Num));
    }
  }

  const JsonValue &Gauges = Json["gauges"];
  if (Gauges.K == JsonValue::Object) {
    for (const auto &[Name, V] : Gauges.Fields) {
      if (V.K != JsonValue::Number) {
        Error = "gauge '" + Name + "' is not a number";
        return false;
      }
      Out.Gauges.emplace_back(Name, V.Num);
    }
  }

  const JsonValue &Histograms = Json["histograms"];
  if (Histograms.K == JsonValue::Object) {
    for (const auto &[Name, V] : Histograms.Fields) {
      const JsonValue &Bounds = V["bounds"];
      const JsonValue &Buckets = V["buckets"];
      if (V.K != JsonValue::Object || Bounds.K != JsonValue::Array ||
          Buckets.K != JsonValue::Array ||
          V["count"].K != JsonValue::Number ||
          V["sum"].K != JsonValue::Number) {
        Error = "histogram '" + Name + "' has a malformed shape";
        return false;
      }
      RegistrySnapshot::HistogramValue H;
      for (const JsonValue &B : Bounds.Items)
        H.Bounds.push_back(static_cast<uint64_t>(B.Num));
      for (const JsonValue &B : Buckets.Items)
        H.Buckets.push_back(static_cast<uint64_t>(B.Num));
      if (H.Buckets.size() != H.Bounds.size() + 1) {
        Error = "histogram '" + Name + "' bucket/bound size mismatch";
        return false;
      }
      H.Count = static_cast<uint64_t>(V["count"].Num);
      H.Sum = static_cast<uint64_t>(V["sum"].Num);
      Out.Histograms.emplace_back(Name, std::move(H));
    }
  }
  return true;
}

//===----------------------------------------------------------------------===//
// MetricsRegistry
//===----------------------------------------------------------------------===//

MetricsRegistry &MetricsRegistry::global() {
  static MetricsRegistry Registry;
  return Registry;
}

Counter &MetricsRegistry::counter(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto &Slot = Counters[Name];
  if (!Slot)
    Slot = std::make_unique<Counter>();
  return *Slot;
}

Gauge &MetricsRegistry::gauge(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto &Slot = Gauges[Name];
  if (!Slot)
    Slot = std::make_unique<Gauge>();
  return *Slot;
}

Histogram &MetricsRegistry::histogram(const std::string &Name,
                                      std::vector<uint64_t> UpperBounds) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto &Slot = Histograms[Name];
  if (!Slot)
    Slot = std::make_unique<Histogram>(std::move(UpperBounds));
  return *Slot;
}

RegistrySnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  RegistrySnapshot Snap;
  Snap.Counters.reserve(Counters.size());
  for (const auto &[Name, C] : Counters)
    Snap.Counters.emplace_back(Name, C->value());
  Snap.Gauges.reserve(Gauges.size());
  for (const auto &[Name, G] : Gauges)
    Snap.Gauges.emplace_back(Name, G->value());
  Snap.Histograms.reserve(Histograms.size());
  for (const auto &[Name, H] : Histograms) {
    RegistrySnapshot::HistogramValue V;
    V.Bounds = H->bounds();
    V.Buckets = H->bucketCounts();
    V.Count = H->count();
    V.Sum = H->sum();
    Snap.Histograms.emplace_back(Name, std::move(V));
  }
  return Snap;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> Lock(Mutex);
  for (auto &[Name, C] : Counters)
    C->reset();
  for (auto &[Name, G] : Gauges)
    G->reset();
  for (auto &[Name, H] : Histograms)
    H->reset();
}

void MetricsRegistry::merge(const RegistrySnapshot &Delta) {
  for (const auto &[Name, Value] : Delta.Counters)
    counter(Name).inc(Value);
  for (const auto &[Name, Value] : Delta.Gauges)
    gauge(Name).set(Value);
  for (const auto &[Name, V] : Delta.Histograms)
    histogram(Name, V.Bounds).add(V.Buckets, V.Count, V.Sum);
}
