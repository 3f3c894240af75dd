//===- Measure.cpp - Clocks, spans and statistics for hostbench -----------===//

#include "Bench.h"

#include "support/Stats.h"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <thread>

using namespace hostbench;

namespace {

uint64_t clockNs(clockid_t Clock) {
  timespec Ts{};
  clock_gettime(Clock, &Ts);
  return uint64_t(Ts.tv_sec) * 1000000000ULL + uint64_t(Ts.tv_nsec);
}

/// Average ranks (1-based) of \p Values; ties share their mean rank.
std::vector<double> ranks(const std::vector<double> &Values) {
  std::vector<size_t> Order(Values.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  std::sort(Order.begin(), Order.end(),
            [&](size_t A, size_t B) { return Values[A] < Values[B]; });
  std::vector<double> Rank(Values.size());
  for (size_t I = 0; I < Order.size();) {
    size_t J = I;
    while (J + 1 < Order.size() && Values[Order[J + 1]] == Values[Order[I]])
      ++J;
    double Mean = (double(I) + double(J)) / 2.0 + 1.0;
    for (size_t K = I; K <= J; ++K)
      Rank[Order[K]] = Mean;
    I = J + 1;
  }
  return Rank;
}

} // namespace

uint64_t hostbench::wallNs() { return clockNs(CLOCK_MONOTONIC); }
uint64_t hostbench::threadCpuNs() { return clockNs(CLOCK_THREAD_CPUTIME_ID); }
uint64_t hostbench::processCpuNs() {
  return clockNs(CLOCK_PROCESS_CPUTIME_ID);
}

uint64_t hostbench::referenceKernel(uint64_t Steps) {
  // A 256 KiB table of xorshift words, built once.
  static const std::vector<uint32_t> Table = [] {
    std::vector<uint32_t> T(1u << 16);
    uint64_t X = 0x9e3779b97f4a7c15ULL;
    for (uint32_t &W : T) {
      X ^= X << 13;
      X ^= X >> 7;
      X ^= X << 17;
      W = uint32_t(X >> 16);
    }
    return T;
  }();
  const size_t Mask = Table.size() - 1;
  uint64_t Acc = 1, Idx = 0;
  for (uint64_t I = 0; I < Steps; ++I) {
    uint32_t Word = Table[Idx];
    switch (Word & 7) {
    case 0:
      Acc += Word;
      break;
    case 1:
      Acc ^= Acc << 7;
      break;
    case 2:
      Acc *= 0x100000001b3ULL;
      break;
    case 3:
      Acc -= Word >> 3;
      break;
    case 4:
      Acc = (Acc >> 5) | (Acc << 59);
      break;
    case 5:
      Acc += Idx;
      break;
    case 6:
      Acc ^= uint64_t(Word) * 31;
      break;
    default:
      Acc += Acc >> 11;
      break;
    }
    Idx = (Idx + (Word >> 8) + Acc) & Mask;
  }
  return Acc;
}

namespace {
/// Keeps the kernel's result alive.
std::atomic<uint64_t> KernelSink{0};
} // namespace

double hostbench::referenceCpuNs() {
  uint64_t C0 = threadCpuNs();
  KernelSink.fetch_add(referenceKernel(ReferenceSteps),
                       std::memory_order_relaxed);
  return double(threadCpuNs() - C0);
}

double hostbench::referenceParallelCpuNs(unsigned Jobs) {
  // Every thread runs short kernel chunks until a shared deadline, so the
  // sample covers the same span of time on every CPU the campaigns use.
  constexpr uint64_t ChunksPerCall = 16;
  constexpr uint64_t WindowNs = 4000000;
  std::atomic<uint64_t> Chunks{0};
  uint64_t C0 = processCpuNs(), Deadline = wallNs() + WindowNs;
  std::vector<std::thread> Threads;
  for (unsigned J = 0; J < Jobs; ++J)
    Threads.emplace_back([&Chunks, Deadline] {
      uint64_t Done = 0, Sum = 0;
      while (wallNs() < Deadline) {
        Sum += referenceKernel(ReferenceSteps / ChunksPerCall);
        ++Done;
      }
      KernelSink.fetch_add(Sum, std::memory_order_relaxed);
      Chunks.fetch_add(Done, std::memory_order_relaxed);
    });
  for (std::thread &T : Threads)
    T.join();
  return double(processCpuNs() - C0) * double(ChunksPerCall) /
         double(Chunks.load());
}

int32_t Tracer::begin(const char *Name) {
  if (!Enabled)
    return -1;
  Span S;
  S.Name = Name;
  S.Parent = Open.empty() ? -1 : Open.back();
  S.Op = CurrentOp;
  S.StartNs = wallNs();
  Spans.push_back(S);
  Open.push_back(int32_t(Spans.size() - 1));
  return Open.back();
}

void Tracer::end(int32_t Index) {
  if (Index < 0)
    return;
  Spans[size_t(Index)].EndNs = wallNs();
  if (!Open.empty() && Open.back() == Index)
    Open.pop_back();
}

bool Tracer::write(const std::string &Path) const {
  std::ofstream Out(Path, std::ios::trunc);
  if (!Out)
    return false;
  uint64_t Base = Spans.empty() ? 0 : Spans.front().StartNs;
  Out << "{\"spans\":[\n";
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    Out << "{\"name\":\"" << S.Name << "\",\"start_ns\":" << S.StartNs - Base
        << ",\"end_ns\":" << S.EndNs - Base << ",\"parent\":" << S.Parent
        << ",\"op\":" << S.Op << "}" << (I + 1 < Spans.size() ? ",\n" : "\n");
  }
  Out << "]}\n";
  return bool(Out);
}

double hostbench::median(std::vector<double> Values) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  size_t N = Values.size();
  return N % 2 ? Values[N / 2] : (Values[N / 2 - 1] + Values[N / 2]) / 2.0;
}

double hostbench::fastest(const std::vector<double> &Values) {
  return Values.empty() ? 0.0 : *std::min_element(Values.begin(), Values.end());
}

double hostbench::quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  size_t Rank = size_t(std::ceil(Q * double(Values.size())));
  return Values[std::min(Values.size() - 1, Rank ? Rank - 1 : 0)];
}

double hostbench::geomean(const std::vector<double> &Values) {
  std::vector<double> Positive;
  std::copy_if(Values.begin(), Values.end(), std::back_inserter(Positive),
               [](double V) { return V > 0; });
  return geometricMean(Positive);
}

double hostbench::spearman(const std::vector<double> &X,
                           const std::vector<double> &Y) {
  if (X.size() != Y.size() || X.size() < 2)
    return 0.0;
  std::vector<double> RX = ranks(X), RY = ranks(Y);
  double MX = 0, MY = 0;
  for (size_t I = 0; I < RX.size(); ++I) {
    MX += RX[I];
    MY += RY[I];
  }
  MX /= double(RX.size());
  MY /= double(RY.size());
  double Cov = 0, VX = 0, VY = 0;
  for (size_t I = 0; I < RX.size(); ++I) {
    Cov += (RX[I] - MX) * (RY[I] - MY);
    VX += (RX[I] - MX) * (RX[I] - MX);
    VY += (RY[I] - MY) * (RY[I] - MY);
  }
  return VX > 0 && VY > 0 ? Cov / std::sqrt(VX * VY) : 0.0;
}

std::string hostbench::digestWords(const std::vector<uint64_t> &Words) {
  std::string Bytes;
  for (uint64_t W : Words)
    for (unsigned B = 0; B < 8; ++B)
      Bytes.push_back(char(W >> (8 * B)));
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                (unsigned long long)hashOutput(Bytes));
  return Buf;
}
