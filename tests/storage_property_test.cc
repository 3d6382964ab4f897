// Property-style storage torture tests: random interleavings of heap
// insert/get/delete/update checked against an in-memory oracle, across
// buffer-pool sizes (parameterized), the block-at-a-time scan checked
// against a walk of the live rids through TableHeap::Get, plus tuple
// serialization round-trip properties over randomized values.
#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <random>
#include <set>

#include "common/rng.h"
#include "storage/buffer_pool.h"
#include "storage/table_heap.h"

namespace recdb {
namespace {

Value RandomValue(Rng& rng) {
  switch (rng.UniformInt(0, 4)) {
    case 0:
      return Value::Null();
    case 1:
      return Value::Int(rng.UniformInt(-1000000, 1000000));
    case 2:
      return Value::Double(rng.Gaussian(0, 1e6));
    case 3: {
      std::string s;
      int64_t len = rng.UniformInt(0, 60);
      for (int64_t i = 0; i < len; ++i) {
        s += static_cast<char>(rng.UniformInt(32, 126));
      }
      return Value::String(std::move(s));
    }
    default: {
      if (rng.Bernoulli(0.5)) {
        return Value::Geometry(spatial::Geometry::MakePoint(
            rng.UniformDouble(-100, 100), rng.UniformDouble(-100, 100)));
      }
      std::vector<spatial::Point> ring;
      int64_t n = rng.UniformInt(3, 8);
      for (int64_t i = 0; i < n; ++i) {
        ring.push_back({rng.UniformDouble(-10, 10),
                        rng.UniformDouble(-10, 10)});
      }
      return Value::Geometry(spatial::Geometry::MakePolygon(std::move(ring)));
    }
  }
}

Tuple RandomTuple(Rng& rng, size_t ncols) {
  std::vector<Value> vals;
  for (size_t i = 0; i < ncols; ++i) vals.push_back(RandomValue(rng));
  return Tuple(std::move(vals));
}

TEST(TuplePropertyTest, SerializationRoundTripsRandomTuples) {
  Rng rng(77);
  for (int trial = 0; trial < 300; ++trial) {
    size_t ncols = static_cast<size_t>(rng.UniformInt(1, 8));
    Tuple t = RandomTuple(rng, ncols);
    std::vector<uint8_t> bytes;
    t.SerializeTo(&bytes);
    EXPECT_EQ(bytes.size(), t.SerializedSize());
    auto back = Tuple::DeserializeFrom(bytes.data(), bytes.size(), ncols);
    ASSERT_TRUE(back.ok()) << trial;
    // NaN-free generator, so structural equality must hold exactly.
    ASSERT_EQ(back.value().NumValues(), ncols);
    for (size_t c = 0; c < ncols; ++c) {
      EXPECT_EQ(back.value().At(c).type(), t.At(c).type());
      if (!t.At(c).is_null()) {
        EXPECT_EQ(back.value().At(c), t.At(c)) << trial << ":" << c;
      }
    }
  }
}

TEST(TuplePropertyTest, TruncatedBytesFailCleanly) {
  Rng rng(78);
  Tuple t = RandomTuple(rng, 5);
  std::vector<uint8_t> bytes;
  t.SerializeTo(&bytes);
  for (size_t cut = 0; cut < bytes.size(); cut += 3) {
    auto r = Tuple::DeserializeFrom(bytes.data(), cut, 5);
    EXPECT_FALSE(r.ok()) << "cut=" << cut;
  }
}

class HeapTortureTest : public ::testing::TestWithParam<size_t> {};

// (page, slot) order: the chain's order for a heap alone on its device,
// whose pages are allocated in ascending id.
struct RidLess {
  bool operator()(const Rid& a, const Rid& b) const {
    return a.page_id != b.page_id ? a.page_id < b.page_id : a.slot < b.slot;
  }
};
using RidSet = std::set<Rid, RidLess>;

// The scan's (Rid, Tuple) sequence equals
// a walk of the live rids in (page, slot) order through TableHeap::Get —
// over random inserts, deletes and updates (some displacing the tuple to a
// new page), pages emptied by deletes, and a pool smaller than the heap.
TEST_P(HeapTortureTest, ScanEqualsLiveRidWalk) {
  const size_t pool_pages = GetParam();
  InMemoryDiskManager disk;
  BufferPool pool(pool_pages, &disk);
  auto heap_res = TableHeap::Create(&pool);
  ASSERT_TRUE(heap_res.ok());
  auto& heap = *heap_res.value();
  constexpr size_t kCols = 4;

  auto check_scan = [&](const RidSet& live) {
    auto it = heap.Begin(kCols);
    auto want = live.begin();
    while (true) {
      auto next = it.Next();
      ASSERT_TRUE(next.ok()) << next.status();
      ASSERT_EQ(pool.NumPinned(), 0u);  // no pin held between calls
      if (!next.value().has_value()) break;
      ASSERT_NE(want, live.end()) << "scan emitted past the live set";
      EXPECT_EQ(next.value()->first.ToString(), want->ToString());
      auto got = heap.Get(*want, kCols);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(next.value()->second, got.value());
      ++want;
    }
    EXPECT_EQ(want, live.end()) << "scan stopped short of the live set";
  };

  Rng rng(1900 + pool_pages);
  RidSet live;
  size_t displaced = 0, emptied_pages = 0;
  for (int round = 0; round < 6; ++round) {
    for (int step = 0; step < 500; ++step) {
      const int op = static_cast<int>(rng.UniformInt(0, 99));
      auto pick = [&] {
        auto it = live.begin();
        std::advance(it, rng.UniformInt(
                             0, static_cast<int64_t>(live.size()) - 1));
        return *it;
      };
      if (op < 55 || live.empty()) {
        auto rid = heap.Insert(RandomTuple(rng, kCols));
        ASSERT_TRUE(rid.ok());
        live.insert(rid.value());
      } else if (op < 75) {
        const Rid rid = pick();
        ASSERT_TRUE(heap.Delete(rid).ok());
        live.erase(rid);
      } else {
        const Rid rid = pick();
        auto new_rid = heap.Update(rid, RandomTuple(rng, kCols));
        ASSERT_TRUE(new_rid.ok());
        if (!(new_rid.value() == rid)) ++displaced;
        live.erase(rid);
        live.insert(new_rid.value());
      }
    }
    // Empty one whole page (not the tail) with deletes.
    if (live.size() > 1 && live.begin()->page_id != heap.last_page_id()) {
      const page_id_t victim = live.begin()->page_id;
      while (!live.empty() && live.begin()->page_id == victim) {
        ASSERT_TRUE(heap.Delete(*live.begin()).ok());
        live.erase(live.begin());
      }
      ++emptied_pages;
    }
    check_scan(live);
  }
  std::set<page_id_t> pages;
  for (const Rid& rid : live) pages.insert(rid.page_id);
  EXPECT_GT(displaced, 0u);
  EXPECT_GT(emptied_pages, 0u);
  if (pool_pages <= 8) {
    EXPECT_GT(pages.size(), pool_pages);  // the scan had to evict
  }
  EXPECT_EQ(heap.num_tuples(), live.size());
}

TEST_P(HeapTortureTest, RandomOpsMatchOracle) {
  const size_t pool_pages = GetParam();
  InMemoryDiskManager disk;
  BufferPool pool(pool_pages, &disk);
  auto heap_res = TableHeap::Create(&pool);
  ASSERT_TRUE(heap_res.ok());
  auto& heap = *heap_res.value();
  constexpr size_t kCols = 3;

  Rng rng(900 + pool_pages);
  std::map<std::string, Tuple> oracle;  // rid string -> tuple
  std::vector<Rid> live;

  for (int step = 0; step < 3000; ++step) {
    int op = static_cast<int>(rng.UniformInt(0, 99));
    if (op < 50 || live.empty()) {
      Tuple t = RandomTuple(rng, kCols);
      auto rid = heap.Insert(t);
      ASSERT_TRUE(rid.ok());
      oracle.emplace(rid.value().ToString(), t);
      live.push_back(rid.value());
    } else if (op < 70) {
      size_t pick = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      Rid rid = live[pick];
      ASSERT_TRUE(heap.Delete(rid).ok());
      oracle.erase(rid.ToString());
      live.erase(live.begin() + pick);
    } else if (op < 85) {
      size_t pick = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      Rid rid = live[pick];
      Tuple t = RandomTuple(rng, kCols);
      auto new_rid = heap.Update(rid, t);
      ASSERT_TRUE(new_rid.ok());
      oracle.erase(rid.ToString());
      oracle.emplace(new_rid.value().ToString(), t);
      live[pick] = new_rid.value();
    } else {
      size_t pick = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      Rid rid = live[pick];
      auto got = heap.Get(rid, kCols);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got.value(), oracle.at(rid.ToString()));
    }
    // No pins may leak regardless of operation mix.
    ASSERT_EQ(pool.NumPinned(), 0u) << "step " << step;
  }

  // Full scan must see exactly the oracle's live set.
  EXPECT_EQ(heap.num_tuples(), oracle.size());
  auto it = heap.Begin(kCols);
  size_t seen = 0;
  while (true) {
    auto next = it.Next();
    ASSERT_TRUE(next.ok());
    if (!next.value().has_value()) break;
    auto oit = oracle.find(next.value()->first.ToString());
    ASSERT_NE(oit, oracle.end());
    EXPECT_EQ(next.value()->second, oit->second);
    ++seen;
  }
  EXPECT_EQ(seen, oracle.size());
  ASSERT_TRUE(pool.FlushAll().ok());
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, HeapTortureTest,
                         ::testing::Values(3, 8, 64, 1024));

}  // namespace
}  // namespace recdb
