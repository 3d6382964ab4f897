#include "harness.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstring>
#include <unordered_map>

namespace perfbench {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t Rng::Below(uint64_t n) {
  // Rejection keeps the draw exactly uniform.
  const uint64_t limit = UINT64_MAX - UINT64_MAX % n;
  uint64_t x;
  do {
    x = Next();
  } while (x >= limit);
  return x % n;
}

double Rng::Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

Zipf::Zipf(size_t n, double s) : cdf_(n) {
  double sum = 0;
  for (size_t k = 0; k < n; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

size_t Zipf::Sample(Rng& rng) const {
  const double u = rng.Unit();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<size_t>(it - cdf_.begin(), cdf_.size() - 1);
}

const char* OpClassName(OpClass cls) {
  switch (cls) {
    case OpClass::kTopk: return "topk";
    case OpClass::kFilter: return "filter";
    case OpClass::kJoin: return "join";
    case OpClass::kGlobal: return "global";
    case OpClass::kWrite: return "write";
    case OpClass::kScatter: return "scatter";
    case OpClass::kRefresh: return "refresh";
  }
  return "?";
}

std::vector<OpClass> MakeClassSequence(uint64_t seed,
                                       const std::vector<ClassWeight>& weights,
                                       size_t n) {
  std::vector<OpClass> block;
  for (const auto& w : weights) block.insert(block.end(), w.weight, w.cls);
  std::vector<OpClass> out;
  if (block.empty()) return out;
  out.reserve(n + block.size());
  Rng rng(seed);
  while (out.size() < n) {
    // Fisher-Yates over one block: exact class shares per block, random
    // order within it.
    for (size_t k = block.size(); k > 1; --k) {
      std::swap(block[k - 1], block[rng.Below(k)]);
    }
    out.insert(out.end(), block.begin(), block.end());
  }
  out.resize(n);
  return out;
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double pos = p / 100.0 * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

size_t SamplesBeyond(size_t n, double p) {
  if (n == 0) return 0;
  const double pos = p / 100.0 * static_cast<double>(n - 1);
  return n - 1 - static_cast<size_t>(std::floor(pos));
}

double TailPercentileFor(size_t n) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 50.0}) {
    if (SamplesBeyond(n, p) >= 10) return p;
  }
  return 0;
}

double SteadyClock::Now() const {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

LoopResult RunClosedLoop(const Clock& clock, double start_s, double seconds,
                         size_t max_ops,
                         const std::function<bool(size_t)>& op) {
  LoopResult r;
  r.start_s = start_s;
  double now = clock.Now();
  while (r.completed < max_ops && now - start_s < seconds) {
    const bool more = op(r.completed);
    ++r.completed;
    now = clock.Now();
    if (!more) break;
  }
  r.end_s = now;
  return r;
}

double Throughput(size_t completed, double start_s, double end_s) {
  const double wall = end_s - start_s;
  return wall > 0 ? static_cast<double>(completed) / wall : 0;
}

double HostProbeMs(const Clock& clock) {
  const double t0 = clock.Now();
  Rng rng(42);
  std::unordered_map<uint64_t, uint64_t> map;
  for (int i = 0; i < 2000; ++i) map[rng.Next() & 0xffff] += i;
  uint64_t acc = 0;
  for (int i = 0; i < 4000; ++i) {
    auto it = map.find(rng.Next() & 0xffff);
    if (it != map.end()) acc += it->second;
  }
  std::vector<uint64_t> v(4000);
  for (auto& x : v) x = rng.Next();
  std::sort(v.begin(), v.end());
  std::vector<float> users(64 * 8), items(64 * 500);
  for (auto& x : users) x = static_cast<float>(rng.Unit());
  for (auto& x : items) x = static_cast<float>(rng.Unit());
  double dot = 0;
  for (int u = 0; u < 8; ++u) {
    for (int i = 0; i < 500; ++i) {
      float d = 0;
      for (int k = 0; k < 64; ++k) d += users[u * 64 + k] * items[i * 64 + k];
      dot += d;
    }
  }
  std::string text;
  for (int i = 0; i < 300; ++i) text += std::to_string(v[i] % 100000) + ",";
  acc += v[7] + text.size() + static_cast<uint64_t>(dot);
  // Keep the result observable so the compiler cannot drop the work.
  asm volatile("" : : "r"(acc) : "memory");
  return (clock.Now() - t0) * 1e3;
}

void Fnv::Add(uint64_t word) {
  for (int b = 0; b < 8; ++b) {
    h_ ^= (word >> (8 * b)) & 0xff;
    h_ *= 1099511628211ull;
  }
}

void Fnv::AddDouble(double v) {
  if (v == 0) v = 0;  // fold -0.0 into +0.0
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  Add(bits);
}

void Fnv::AddBytes(const std::string& s) {
  for (unsigned char c : s) {
    h_ ^= c;
    h_ *= 1099511628211ull;
  }
  Add(s.size());
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t k = 0; k < metrics.size(); ++k) {
    if (k > 0) out += ", ";
    out += "\"" + metrics[k].name + "\": {\"value\": " +
           FormatNumber(metrics[k].value) + ", \"unit\": \"" +
           metrics[k].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
