// Tests of the benchmark's own machinery: schedules are a function of the
// seed, reported tails have enough samples beyond them, and throughput is
// completions over wall time.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "harness.h"

namespace perfbench {
namespace {

const std::vector<ClassWeight> kMix = {{OpClass::kTopk, 50},
                                       {OpClass::kFilter, 25},
                                       {OpClass::kJoin, 23},
                                       {OpClass::kGlobal, 2}};

// The op schedule is the class sequence plus the Zipf-drawn users.
std::vector<std::pair<OpClass, size_t>> Schedule(uint64_t seed, size_t n) {
  const auto classes = MakeClassSequence(seed, kMix, n);
  const Zipf users(943, 0.8);
  Rng rng(seed ^ 0x5eedull);
  std::vector<std::pair<OpClass, size_t>> out;
  for (OpClass c : classes) out.emplace_back(c, users.Sample(rng));
  return out;
}

TEST(ScheduleTest, SameSeedSameSchedule) {
  EXPECT_EQ(Schedule(7, 5000), Schedule(7, 5000));
  EXPECT_NE(Schedule(7, 5000), Schedule(8, 5000));
}

TEST(ScheduleTest, PrefixDoesNotDependOnLength) {
  const auto long_run = Schedule(3, 4000);
  const auto short_run = Schedule(3, 1000);
  EXPECT_TRUE(std::equal(short_run.begin(), short_run.end(), long_run.begin()));
}

TEST(ScheduleTest, EveryBlockHoldsTheExactMix) {
  for (uint64_t seed : {1, 2, 3}) {
    const auto classes = MakeClassSequence(seed, kMix, 10000);
    ASSERT_EQ(classes.size(), 10000u);
    for (size_t block = 0; block < 100; ++block) {
      size_t counts[4] = {0, 0, 0, 0};
      for (size_t i = block * 100; i < (block + 1) * 100; ++i) {
        ++counts[static_cast<int>(classes[i])];
      }
      EXPECT_EQ(counts[0], 50u);
      EXPECT_EQ(counts[1], 25u);
      EXPECT_EQ(counts[2], 23u);
      EXPECT_EQ(counts[3], 2u);
    }
  }
}

TEST(ScheduleTest, ZipfFavorsLowRanks) {
  const Zipf z(943, 0.8);
  Rng rng(5);
  std::vector<size_t> hits(943, 0);
  for (int k = 0; k < 20000; ++k) ++hits[z.Sample(rng)];
  EXPECT_GT(hits[0], hits[10]);
  EXPECT_GT(hits[10], hits[900]);
}

TEST(PercentileTest, TailLeavesTenSamplesBeyond) {
  for (size_t n : {20, 50, 99, 100, 101, 199, 200, 999, 1000, 1001, 5000,
                   9999, 10000, 20000}) {
    const double p = TailPercentileFor(n);
    ASSERT_GT(p, 0) << n;
    EXPECT_GE(SamplesBeyond(n, p), 10u) << n;
    // Count directly: samples 1..n, how many exceed the reported value.
    std::vector<double> v;
    for (size_t k = 1; k <= n; ++k) v.push_back(static_cast<double>(k));
    const double value = Percentile(v, p);
    size_t beyond = 0;
    for (double x : v) beyond += x > value ? 1 : 0;
    EXPECT_GE(beyond, 10u) << n << " p" << p;
  }
  EXPECT_EQ(TailPercentileFor(900), 95.0);
  EXPECT_EQ(TailPercentileFor(1000), 99.0);
  EXPECT_EQ(TailPercentileFor(10000), 99.9);
  EXPECT_EQ(TailPercentileFor(5), 0.0);
}

TEST(PercentileTest, Interpolates) {
  EXPECT_EQ(Percentile({3, 1, 2}, 50), 2);
  EXPECT_EQ(Percentile({1, 2, 3, 4}, 50), 2.5);
  EXPECT_EQ(Percentile({}, 50), 0);
}

// Advances by a fixed step every time it is read.
class FakeClock : public Clock {
 public:
  explicit FakeClock(double step) : step_(step) {}
  double Now() const override { return now_ += step_; }

 private:
  double step_;
  mutable double now_ = 100;
};

TEST(ThroughputTest, CompletionsOverWallTime) {
  // Each op takes 0.01 s of fake time (the clock is read once per op after
  // the first read), so a 1 s window completes 100 ops.
  FakeClock clock(0.01);
  const double start = clock.Now();
  size_t calls = 0;
  const LoopResult r = RunClosedLoop(clock, start, 1.0, 1000000, [&](size_t i) {
    EXPECT_EQ(i, calls);
    ++calls;
    return true;
  });
  EXPECT_EQ(r.completed, calls);
  EXPECT_NEAR(r.end_s - r.start_s, 1.0, 0.011);
  EXPECT_DOUBLE_EQ(Throughput(r.completed, r.start_s, r.end_s),
                   r.completed / (r.end_s - r.start_s));
  EXPECT_NEAR(Throughput(r.completed, r.start_s, r.end_s), 100, 1.1);
}

TEST(ThroughputTest, ScheduleExhaustionEndsTheWindowEarly) {
  FakeClock clock(0.01);
  const double start = clock.Now();
  const LoopResult r =
      RunClosedLoop(clock, start, 10.0, 50, [](size_t) { return true; });
  EXPECT_EQ(r.completed, 50u);
  EXPECT_LT(r.end_s - r.start_s, 1.0);
  EXPECT_NEAR(Throughput(r.completed, r.start_s, r.end_s), 100, 2.5);
}

TEST(OutputTest, ResultLineKeepsAllDigits) {
  EXPECT_EQ(FormatNumber(0.1), "0.1");
  EXPECT_EQ(std::stod(FormatNumber(1.0 / 3.0)), 1.0 / 3.0);
  EXPECT_EQ(ResultJson(true, 3, 0, {{"setup_s", "s", 0.5}}),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
            "\"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}");
}

TEST(ChecksumTest, SignOfZeroIgnoredOtherBitsNot) {
  Fnv a, b, c;
  a.AddDouble(0.0);
  b.AddDouble(-0.0);
  c.AddDouble(std::nextafter(0.0, 1.0));
  EXPECT_EQ(a.value(), b.value());
  EXPECT_NE(a.value(), c.value());
}

}  // namespace
}  // namespace perfbench
