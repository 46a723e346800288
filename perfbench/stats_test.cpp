// Unit tests for the benchmark's order statistics (stats.h).
//
//   python3 perfbench/run.py --unit-tests

#include "stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace perfbench {
namespace {

std::vector<double> Iota(std::size_t n, double from = 1.0) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), from);
  return v;
}

TEST(StatsTest, MedianOfOddAndEvenSamplesIgnoresOrder) {
  EXPECT_DOUBLE_EQ(Median(std::vector<double>{5, 1, 3}), 3.0);
  EXPECT_DOUBLE_EQ(Median(std::vector<double>{4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median(std::vector<double>{7}), 7.0);
}

TEST(StatsTest, MedianOfEmptySampleIsNan) {
  EXPECT_TRUE(std::isnan(Median(std::vector<double>{})));
}

TEST(StatsTest, QuartilesInterpolateBetweenOrderStatistics) {
  // Positions 0.25 * 8 = 2, 4, 6 on 1..9: exact order statistics.
  const auto q = SortedQuartiles(Iota(9));
  EXPECT_DOUBLE_EQ(q.q1, 3.0);
  EXPECT_DOUBLE_EQ(q.median, 5.0);
  EXPECT_DOUBLE_EQ(q.q3, 7.0);
  EXPECT_EQ(q.count, 9u);
  // Positions 0.75, 1.5, 2.25 on {10, 20, 30, 40}.
  const std::vector<double> four{10, 20, 30, 40};
  const auto r = SortedQuartiles(four);
  EXPECT_DOUBLE_EQ(r.q1, 17.5);
  EXPECT_DOUBLE_EQ(r.median, 25.0);
  EXPECT_DOUBLE_EQ(r.q3, 32.5);
  EXPECT_EQ(r.count, 4u);
}

TEST(StatsTest, SamplesBeyondCountsOrderStatisticsAboveThePosition) {
  // n = 1000 at p99: position 989.01, so indices 990..999 lie beyond.
  EXPECT_EQ(SamplesBeyond(1000, 9900), 10u);
  // n = 902: position 891.99 leaves 10; n = 901: position exactly 891
  // leaves 9 (the order statistic at the position is not beyond it).
  EXPECT_EQ(SamplesBeyond(902, 9900), 10u);
  EXPECT_EQ(SamplesBeyond(901, 9900), 9u);
  EXPECT_EQ(SamplesBeyond(20, 5000), 10u);
  EXPECT_EQ(SamplesBeyond(19, 5000), 9u);
  EXPECT_EQ(SamplesBeyond(0, 5000), 0u);
  EXPECT_TRUE(Supports(1000, 9900));
  EXPECT_FALSE(Supports(901, 9900));
}

TEST(StatsTest, TailPicksTheHighestPercentileWithTenSamplesBeyond) {
  const auto t1000 = SortedTail(Iota(1000));
  ASSERT_TRUE(t1000.has_value());
  EXPECT_DOUBLE_EQ(t1000->percentile, 99.0);
  EXPECT_EQ(t1000->beyond, 10u);
  EXPECT_NEAR(t1000->value, 990.01, 1e-9);

  const auto t10000 = SortedTail(Iota(10000));
  ASSERT_TRUE(t10000.has_value());
  EXPECT_DOUBLE_EQ(t10000->percentile, 99.9);

  // 200 samples support p95 (10 beyond) but not p99 (2 beyond).
  const auto t200 = SortedTail(Iota(200));
  ASSERT_TRUE(t200.has_value());
  EXPECT_DOUBLE_EQ(t200->percentile, 95.0);
  EXPECT_GE(t200->beyond, kMinTailSamples);
}

TEST(StatsTest, TailIsAbsentBelowTwentySamples) {
  EXPECT_FALSE(SortedTail(Iota(19)).has_value());
  const auto t20 = SortedTail(Iota(20));
  ASSERT_TRUE(t20.has_value());
  EXPECT_DOUBLE_EQ(t20->percentile, 50.0);
  EXPECT_FALSE(SortedTail(std::vector<double>{}).has_value());
}

TEST(StatsTest, ChunksKeepTheirOwnPercentile) {
  ChunkedQuantile p50(1000, 5000);
  ChunkedQuantile p99(1000, 9900);
  for (int i = 0; i < 2500; ++i) {
    p50.Add(i);
    p99.Add(i);
  }
  EXPECT_FALSE(p50.Close().has_value());
  EXPECT_FALSE(p99.Close().has_value());
  EXPECT_EQ(p99.Seen(), 2500u);
  // The trailing 500 are dropped: two full chunks exist.
  ASSERT_EQ(p50.Chunks(), 2u);
  ASSERT_EQ(p99.Chunks(), 2u);
  EXPECT_DOUBLE_EQ(p50.Values()[0], 499.5);
  EXPECT_DOUBLE_EQ(p50.Values()[1], 1499.5);
  EXPECT_NEAR(p99.Values()[0], 989.01, 1e-9);
  EXPECT_NEAR(p99.Values()[1], 1989.01, 1e-9);
}

TEST(StatsTest, ChunkMedianIgnoresASlowMinority) {
  ChunkedQuantile p99(1000, 9900);
  for (int c = 0; c < 5; ++c) {
    const double slow = c == 2 ? 100.0 : 1.0;  // one chunk of five slowed
    for (int i = 0; i < 1000; ++i) p99.Add(slow * (i % 100));
  }
  EXPECT_NEAR(Median(p99.Values()), 98.01, 1e-9);
}

TEST(StatsTest, LowestChunkHoldsUnderASlowMajority) {
  // Twenty chunks of 500 calls, each with a p50 of 22 (quiet host) or 32
  // (busy host): with eighteen busy the median over chunks is the busy
  // figure, the lowest chunk still the quiet one; a program 1.2x slower
  // moves the lowest chunk by exactly 1.2x.
  const auto chunks = [](double scale) {
    ChunkedQuantile p50(500, 5000);
    for (int c = 0; c < 20; ++c) {
      const double base = c == 3 || c == 11 ? 20.0 : 30.0;
      for (int i = 0; i < 500; ++i) p50.Add((base + (i % 5)) * scale);
    }
    return std::vector<double>(p50.Values().begin(), p50.Values().end());
  };
  const auto lowest = [](const std::vector<double>& v) {
    return *std::min_element(v.begin(), v.end());
  };
  EXPECT_DOUBLE_EQ(Median(chunks(1.0)), 32.0);
  EXPECT_DOUBLE_EQ(lowest(chunks(1.0)), 22.0);
  EXPECT_DOUBLE_EQ(Median(chunks(1.2)), 38.4);
  EXPECT_DOUBLE_EQ(lowest(chunks(1.2)), 26.4);
}

TEST(StatsTest, LonePartialChunkIsClosedWithTheTailItSupports) {
  ChunkedQuantile p50(1000, 5000);
  for (int i = 1; i <= 200; ++i) p50.Add(201 - i);
  EXPECT_EQ(p50.Chunks(), 0u);
  const auto tail = p50.Close();
  EXPECT_EQ(p50.Seen(), 200u);
  ASSERT_EQ(p50.Chunks(), 1u);
  EXPECT_DOUBLE_EQ(p50.Values()[0], 100.5);
  ASSERT_TRUE(tail.has_value());
  EXPECT_DOUBLE_EQ(tail->percentile, 95.0);
}

TEST(StatsTest, ChunkTooSmallForItsPercentileIsRejected) {
  EXPECT_THROW(ChunkedQuantile(901, 9900), std::invalid_argument);
  EXPECT_NO_THROW(ChunkedQuantile(902, 9900));
  EXPECT_THROW(ChunkedQuantile(19, 5000), std::invalid_argument);
  EXPECT_NO_THROW(ChunkedQuantile(20, 5000));
}

}  // namespace
}  // namespace perfbench
