//===- SupportTest.cpp - Tests for the support library -----------------------===//

#include "support/Format.h"
#include "support/Json.h"
#include "support/Prng.h"
#include "support/Stats.h"
#include "support/Table.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <set>
#include <vector>

using namespace cfed;

TEST(FormatTest, Basic) {
  EXPECT_EQ(formatString("x=%d", 42), "x=42");
  EXPECT_EQ(formatString("%s/%s", "a", "b"), "a/b");
  EXPECT_EQ(formatString("%5.2f", 3.14159), " 3.14");
}

TEST(FormatTest, Empty) { EXPECT_EQ(formatString("%s", ""), ""); }

TEST(FormatTest, Long) {
  std::string Big(5000, 'x');
  EXPECT_EQ(formatString("%s", Big.c_str()).size(), 5000u);
}

TEST(PrngTest, Deterministic) {
  Prng A(123), B(123);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(PrngTest, DifferentSeedsDiffer) {
  Prng A(1), B(2);
  int Same = 0;
  for (int I = 0; I < 64; ++I)
    Same += A.next() == B.next();
  EXPECT_LT(Same, 4);
}

TEST(PrngTest, NextBelowInRange) {
  Prng Rng(7);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(Rng.nextBelow(17), 17u);
}

TEST(PrngTest, NextBelowCoversAllValues) {
  Prng Rng(9);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 500; ++I)
    Seen.insert(Rng.nextBelow(8));
  EXPECT_EQ(Seen.size(), 8u);
}

TEST(PrngTest, NextInRangeBounds) {
  Prng Rng(11);
  for (int I = 0; I < 1000; ++I) {
    int64_t Value = Rng.nextInRange(-5, 5);
    EXPECT_GE(Value, -5);
    EXPECT_LE(Value, 5);
  }
}

TEST(PrngTest, NextDoubleUnit) {
  Prng Rng(13);
  for (int I = 0; I < 1000; ++I) {
    double Value = Rng.nextDouble();
    EXPECT_GE(Value, 0.0);
    EXPECT_LT(Value, 1.0);
  }
}

TEST(PrngTest, ChanceExtremes) {
  Prng Rng(17);
  for (int I = 0; I < 100; ++I) {
    EXPECT_FALSE(Rng.chance(0, 10));
    EXPECT_TRUE(Rng.chance(10, 10));
  }
}

TEST(StatsTest, GeometricMean) {
  EXPECT_DOUBLE_EQ(geometricMean({4.0, 9.0}), 6.0);
  EXPECT_DOUBLE_EQ(geometricMean({5.0}), 5.0);
  EXPECT_DOUBLE_EQ(geometricMean({}), 0.0);
}

TEST(StatsTest, ArithmeticMean) {
  EXPECT_DOUBLE_EQ(arithmeticMean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(arithmeticMean({}), 0.0);
}

TEST(TableTest, RendersAligned) {
  Table T;
  T.setHeader({"name", "value"});
  T.addRow({"alpha", "1"});
  T.addRow({"b", "22"});
  std::string Text = T.render();
  EXPECT_NE(Text.find("alpha"), std::string::npos);
  EXPECT_NE(Text.find("22"), std::string::npos);
  // Each line has the same width for the value column (right-aligned).
  EXPECT_NE(Text.find("    1"), std::string::npos);
}

TEST(TableTest, Separator) {
  Table T;
  T.setHeader({"a"});
  T.addRow({"x"});
  T.addSeparator();
  T.addRow({"y"});
  std::string Text = T.render();
  // Header separator plus the explicit one.
  size_t First = Text.find("---");
  ASSERT_NE(First, std::string::npos);
  EXPECT_NE(Text.find("---", First + 3), std::string::npos);
}

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  ThreadPool Pool(4);
  std::vector<std::atomic<int>> Touched(1000);
  Pool.parallelFor(Touched.size(),
                   [&](uint64_t I) { Touched[I].fetch_add(1); });
  for (const auto &Count : Touched)
    EXPECT_EQ(Count.load(), 1);
}

TEST(ThreadPoolTest, ReusableAcrossCalls) {
  ThreadPool Pool(3);
  for (int Round = 0; Round < 5; ++Round) {
    std::atomic<uint64_t> Sum{0};
    Pool.parallelFor(100, [&](uint64_t I) { Sum.fetch_add(I + 1); });
    EXPECT_EQ(Sum.load(), 5050u);
  }
}

TEST(ThreadPoolTest, SingleJobRunsInline) {
  ThreadPool Pool(1);
  EXPECT_EQ(Pool.jobCount(), 1u);
  std::vector<uint64_t> Order;
  // With one job there are no workers: iteration order is sequential.
  Pool.parallelFor(10, [&](uint64_t I) { Order.push_back(I); });
  ASSERT_EQ(Order.size(), 10u);
  for (uint64_t I = 0; I < Order.size(); ++I)
    EXPECT_EQ(Order[I], I);
}

TEST(ThreadPoolTest, MoreJobsThanWork) {
  ThreadPool Pool(8);
  std::atomic<int> Calls{0};
  Pool.parallelFor(3, [&](uint64_t) { Calls.fetch_add(1); });
  EXPECT_EQ(Calls.load(), 3);
  Pool.parallelFor(0, [&](uint64_t) { Calls.fetch_add(1); });
  EXPECT_EQ(Calls.load(), 3);
}

TEST(ThreadPoolTest, DefaultJobCountHonorsEnv) {
  // CFED_JOBS wins over hardware_concurrency when set.
  setenv("CFED_JOBS", "7", 1);
  EXPECT_EQ(ThreadPool::defaultJobCount(), 7u);
  unsetenv("CFED_JOBS");
  EXPECT_GE(ThreadPool::defaultJobCount(), 1u);
}

TEST(JsonTest, ReadUnsignedIsExact) {
  auto Read = [](const std::string &Text, uint64_t &Out,
                 uint64_t Max = UINT64_MAX) {
    json::JsonValue V;
    json::JsonParser Parser(Text);
    return Parser.parse(V) && json::readUnsigned(V, Out, Max);
  };
  uint64_t Out = 0;
  ASSERT_TRUE(Read("18446744073709551615", Out));
  EXPECT_EQ(Out, UINT64_MAX);
  ASSERT_TRUE(Read("9007199254740993", Out));
  EXPECT_EQ(Out, 9007199254740993ULL); // Not rounded through a double.
  ASSERT_TRUE(Read("4294967295", Out, 4294967295u));
  EXPECT_FALSE(Read("4294967296", Out, 4294967295u));
  for (const char *Bad : {"18446744073709551616", "-1", "-0", "1.5", "1.0",
                          "1e3", "\"7\"", "true", "null", "[1]"})
    EXPECT_FALSE(Read(Bad, Out)) << Bad;
}
