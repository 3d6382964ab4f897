// Engine-independent parts of the benchmark: the seeded generators that
// build operation schedules, the closed-loop driver, percentile selection,
// result checksums and the JSON result line. Kept free of recdb types so
// the benchmark's own tests can exercise them with a fake clock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/// SplitMix64: a fixed, portable stream, so a seed names the same schedule
/// on every standard library (std:: distributions are not portable).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n);
  /// Uniform in [0, 1).
  double Unit();

 private:
  uint64_t state_;
};

/// Zipf over ranks [0, n) with exponent s (rank 0 most likely).
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

enum class OpClass { kTopk, kFilter, kJoin, kGlobal, kWrite, kScatter, kRefresh };
const char* OpClassName(OpClass cls);

struct ClassWeight {
  OpClass cls;
  uint32_t weight;
};

/// `n` op classes in consecutive blocks of sum(weight) ops, each block
/// holding exactly `weight` ops of each class in an order shuffled by a
/// stream seeded with `seed`. Every class is spread over the whole timed
/// window, and the mix does not vary from seed to seed.
std::vector<OpClass> MakeClassSequence(uint64_t seed,
                                       const std::vector<ClassWeight>& weights,
                                       size_t n);

/// Linear-interpolated percentile (p in [0, 100]) of unsorted samples;
/// 0 for an empty vector.
double Percentile(std::vector<double> samples, double p);

/// Samples strictly above the p-th percentile of n samples.
size_t SamplesBeyond(size_t n, double p);

/// Highest of {99.9, 99, 95, 90, 50} that leaves at least 10 samples beyond
/// it; 0 when n < 20 and no tail can be reported.
double TailPercentileFor(size_t n);

/// Seconds on some monotonic clock.
class Clock {
 public:
  virtual ~Clock() = default;
  virtual double Now() const = 0;
};

class SteadyClock : public Clock {
 public:
  double Now() const override;
};

struct LoopResult {
  size_t completed = 0;
  double start_s = 0;
  double end_s = 0;
};

/// Closed loop: issues op(i) for i = 0, 1, ... one after another, each only
/// after the previous returned, until `seconds` have passed since `start_s`
/// or `max_ops` ops ran. `op` returns false to stop early.
LoopResult RunClosedLoop(const Clock& clock, double start_s, double seconds,
                         size_t max_ops, const std::function<bool(size_t)>& op);

/// Completed operations over the timed wall time, never an offered rate.
double Throughput(size_t completed, double start_s, double end_s);

/// A fixed mix of hashing, sorting, allocation, string formatting and
/// float dot products (about 1 ms); returns its wall time in ms.
double HostProbeMs(const Clock& clock);

/// FNV-1a over 64-bit words and bytes; used to compare answers bit for bit.
class Fnv {
 public:
  void Add(uint64_t word);
  void AddDouble(double v);  // -0.0 hashes as 0.0
  void AddBytes(const std::string& s);
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// Shortest decimal that reads back as exactly `v`.
std::string FormatNumber(double v);

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace perfbench
