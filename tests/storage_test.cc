// Unit tests for the storage layer: disk manager, buffer pool (LRU,
// pinning, dirty write-back), slotted pages, table heap round trips.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <random>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/catalog.h"
#include "storage/disk_manager.h"
#include "storage/table_heap.h"

namespace recdb {
namespace {

TEST(DiskManagerTest, AllocateReadWrite) {
  InMemoryDiskManager disk;
  page_id_t p0 = disk.AllocatePage();
  page_id_t p1 = disk.AllocatePage();
  EXPECT_EQ(p0, 0);
  EXPECT_EQ(p1, 1);

  char buf[kPageSize];
  std::memset(buf, 0xAB, kPageSize);
  ASSERT_TRUE(disk.WritePage(p1, buf).ok());

  char out[kPageSize];
  ASSERT_TRUE(disk.ReadPage(p1, out).ok());
  EXPECT_EQ(std::memcmp(buf, out, kPageSize), 0);

  EXPECT_EQ(disk.num_reads(), 1u);
  EXPECT_EQ(disk.num_writes(), 1u);
}

TEST(DiskManagerTest, ReadUnallocatedFails) {
  InMemoryDiskManager disk;
  char out[kPageSize];
  EXPECT_EQ(disk.ReadPage(7, out).code(), StatusCode::kIOError);
  EXPECT_EQ(disk.WritePage(-1, out).code(), StatusCode::kIOError);
}

TEST(DiskManagerTest, PagesWithZeroTailsRoundTripByteIdentical) {
  // Pages are stored up to their last nonzero byte; what reads back must
  // still be the whole page as written, across rewrites that grow and
  // shrink the stored prefix, all-zero pages and never-written ones.
  InMemoryDiskManager disk;
  std::mt19937 gen(11);
  std::vector<std::vector<char>> written;
  for (int p = 0; p < 16; ++p) {
    disk.AllocatePage();
    written.emplace_back(kPageSize, 0);
  }
  std::vector<char> out(kPageSize);
  for (int round = 0; round < 400; ++round) {
    const page_id_t pid = static_cast<page_id_t>(gen() % written.size());
    std::vector<char>& page = written[pid];
    const size_t used = gen() % (kPageSize + 1);
    std::fill(page.begin(), page.end(), 0);
    for (size_t b = 0; b < used; ++b) {
      // Interior zero bytes and zero words stay part of the page.
      page[b] = gen() % 4 == 0 ? 0 : static_cast<char>(gen());
    }
    ASSERT_TRUE(disk.WritePage(pid, page.data()).ok());
    size_t resident = 0;
    for (size_t q = 0; q < written.size(); ++q) {
      ASSERT_TRUE(disk.ReadPage(static_cast<page_id_t>(q), out.data()).ok());
      ASSERT_EQ(std::memcmp(out.data(), written[q].data(), kPageSize), 0)
          << "page " << q << " round " << round;
      size_t len = kPageSize;
      while (len > 0 && written[q][len - 1] == 0) --len;
      resident += len;
    }
    EXPECT_EQ(disk.ResidentBytes(), resident);
  }
}

TEST(BufferPoolTest, NewFetchUnpin) {
  InMemoryDiskManager disk;
  BufferPool pool(4, &disk);
  page_id_t pid;
  auto page = pool.New(&pid);
  ASSERT_TRUE(page.ok());
  std::memset(page.value()->data(), 0x42, kPageSize);
  ASSERT_TRUE(pool.Unpin(pid, true).ok());

  auto again = pool.Fetch(pid);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value()->data()[100], 0x42);
  ASSERT_TRUE(pool.Unpin(pid, false).ok());
  EXPECT_EQ(pool.hits(), 1u);  // refetch was resident
}

TEST(BufferPoolTest, EvictionWritesDirtyPagesBack) {
  InMemoryDiskManager disk;
  BufferPool pool(2, &disk);
  std::vector<page_id_t> pids;
  for (int i = 0; i < 5; ++i) {
    page_id_t pid;
    auto page = pool.New(&pid);
    ASSERT_TRUE(page.ok());
    page.value()->data()[0] = static_cast<char>(i + 1);
    ASSERT_TRUE(pool.Unpin(pid, true).ok());
    pids.push_back(pid);
  }
  // All five pages must read back their byte even though pool holds 2.
  for (int i = 0; i < 5; ++i) {
    auto page = pool.Fetch(pids[i]);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ(page.value()->data()[0], static_cast<char>(i + 1));
    ASSERT_TRUE(pool.Unpin(pids[i], false).ok());
  }
}

TEST(BufferPoolTest, PinnedPagesAreNotEvicted) {
  InMemoryDiskManager disk;
  BufferPool pool(2, &disk);
  page_id_t a, b;
  auto pa = pool.New(&a);
  ASSERT_TRUE(pa.ok());
  auto pb = pool.New(&b);
  ASSERT_TRUE(pb.ok());
  // Both frames pinned: a third page must fail.
  page_id_t c;
  auto pc = pool.New(&c);
  EXPECT_FALSE(pc.ok());
  EXPECT_EQ(pc.status().code(), StatusCode::kResourceExhausted);
  ASSERT_TRUE(pool.Unpin(a, false).ok());
  auto pc2 = pool.New(&c);
  EXPECT_TRUE(pc2.ok());
  ASSERT_TRUE(pool.Unpin(b, false).ok());
  ASSERT_TRUE(pool.Unpin(c, false).ok());
}

TEST(BufferPoolTest, LruEvictsLeastRecentlyUsed) {
  InMemoryDiskManager disk;
  BufferPool pool(2, &disk);
  page_id_t a, b;
  auto pa = pool.New(&a);
  ASSERT_TRUE(pa.ok());
  ASSERT_TRUE(pool.Unpin(a, true).ok());
  auto pb = pool.New(&b);
  ASSERT_TRUE(pb.ok());
  ASSERT_TRUE(pool.Unpin(b, true).ok());
  // Touch a so b becomes the LRU victim.
  ASSERT_TRUE(pool.Fetch(a).ok());
  ASSERT_TRUE(pool.Unpin(a, false).ok());
  disk.ResetCounters();
  page_id_t c;
  auto pc = pool.New(&c);
  ASSERT_TRUE(pc.ok());
  ASSERT_TRUE(pool.Unpin(c, false).ok());
  // Fetching a again must be a hit (it stayed resident).
  pool.ResetCounters();
  ASSERT_TRUE(pool.Fetch(a).ok());
  ASSERT_TRUE(pool.Unpin(a, false).ok());
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.misses(), 0u);
}

TEST(BufferPoolTest, DoubleUnpinIsAnError) {
  InMemoryDiskManager disk;
  BufferPool pool(2, &disk);
  page_id_t a;
  ASSERT_TRUE(pool.New(&a).ok());
  ASSERT_TRUE(pool.Unpin(a, false).ok());
  EXPECT_FALSE(pool.Unpin(a, false).ok());
}

Tuple MakeRow(int64_t id, const std::string& name, double score) {
  return Tuple({Value::Int(id), Value::String(name), Value::Double(score)});
}

TEST(TableHeapTest, InsertAndGet) {
  InMemoryDiskManager disk;
  BufferPool pool(8, &disk);
  auto heap_res = TableHeap::Create(&pool);
  ASSERT_TRUE(heap_res.ok());
  auto& heap = *heap_res.value();

  auto rid = heap.Insert(MakeRow(1, "alice", 3.5));
  ASSERT_TRUE(rid.ok());
  auto got = heap.Get(rid.value(), 3);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().At(0).AsInt(), 1);
  EXPECT_EQ(got.value().At(1).AsString(), "alice");
  EXPECT_DOUBLE_EQ(got.value().At(2).AsDouble(), 3.5);
}

TEST(TableHeapTest, ManyInsertsSpanPagesAndScanSeesAll) {
  InMemoryDiskManager disk;
  BufferPool pool(4, &disk);
  auto heap_res = TableHeap::Create(&pool);
  ASSERT_TRUE(heap_res.ok());
  auto& heap = *heap_res.value();

  constexpr int kN = 2000;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(heap.Insert(MakeRow(i, "user_" + std::to_string(i),
                                    i * 0.25))
                    .ok());
  }
  EXPECT_GT(disk.NumPages(), 4u);  // must have spilled past the pool

  auto it = heap.Begin(3);
  int count = 0;
  while (true) {
    auto next = it.Next();
    ASSERT_TRUE(next.ok());
    if (!next.value().has_value()) break;
    const Tuple& t = next.value()->second;
    EXPECT_EQ(t.At(0).AsInt(), count);
    ++count;
  }
  EXPECT_EQ(count, kN);
  EXPECT_EQ(heap.num_tuples(), static_cast<size_t>(kN));
}

TEST(TableHeapTest, DeleteHidesTupleFromScan) {
  InMemoryDiskManager disk;
  BufferPool pool(8, &disk);
  auto heap_res = TableHeap::Create(&pool);
  ASSERT_TRUE(heap_res.ok());
  auto& heap = *heap_res.value();

  std::vector<Rid> rids;
  for (int i = 0; i < 10; ++i) {
    auto rid = heap.Insert(MakeRow(i, "x", 0));
    ASSERT_TRUE(rid.ok());
    rids.push_back(rid.value());
  }
  ASSERT_TRUE(heap.Delete(rids[3]).ok());
  ASSERT_TRUE(heap.Delete(rids[7]).ok());
  EXPECT_FALSE(heap.Get(rids[3], 3).ok());
  EXPECT_FALSE(heap.Delete(rids[3]).ok());  // double delete

  auto it = heap.Begin(3);
  std::vector<int64_t> ids;
  while (true) {
    auto next = it.Next();
    ASSERT_TRUE(next.ok());
    if (!next.value().has_value()) break;
    ids.push_back(next.value()->second.At(0).AsInt());
  }
  EXPECT_EQ(ids, (std::vector<int64_t>{0, 1, 2, 4, 5, 6, 8, 9}));
}

TEST(TableHeapTest, UpdateInPlaceAndRelocating) {
  InMemoryDiskManager disk;
  BufferPool pool(8, &disk);
  auto heap_res = TableHeap::Create(&pool);
  ASSERT_TRUE(heap_res.ok());
  auto& heap = *heap_res.value();

  auto rid = heap.Insert(MakeRow(1, "short", 1.0));
  ASSERT_TRUE(rid.ok());
  // Same-size update stays in place.
  auto r2 = heap.Update(rid.value(), MakeRow(2, "shore", 2.0));
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.value(), rid.value());
  // Larger update relocates.
  auto r3 = heap.Update(r2.value(),
                        MakeRow(3, std::string(200, 'z'), 3.0));
  ASSERT_TRUE(r3.ok());
  auto got = heap.Get(r3.value(), 3);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().At(0).AsInt(), 3);
  EXPECT_EQ(heap.num_tuples(), 1u);
}

TEST(TableHeapTest, GeometryRoundTrip) {
  InMemoryDiskManager disk;
  BufferPool pool(8, &disk);
  auto heap_res = TableHeap::Create(&pool);
  ASSERT_TRUE(heap_res.ok());
  auto& heap = *heap_res.value();

  Tuple t({Value::Int(9),
           Value::Geometry(spatial::Geometry::MakePoint(1.5, -2.5)),
           Value::Geometry(spatial::Geometry::MakePolygon(
               {{0, 0}, {4, 0}, {4, 4}, {0, 4}}))});
  auto rid = heap.Insert(t);
  ASSERT_TRUE(rid.ok());
  auto got = heap.Get(rid.value(), 3);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().At(1).AsGeometry().point().x, 1.5);
  EXPECT_EQ(got.value().At(2).AsGeometry().ring().size(), 4u);
}

TEST(CatalogTest, CreateGetDrop) {
  InMemoryDiskManager disk;
  BufferPool pool(8, &disk);
  Catalog catalog(&pool);
  Schema schema({{"uid", TypeId::kInt64}, {"name", TypeId::kString}});
  auto t = catalog.CreateTable("Users", schema);
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(catalog.GetTable("users").ok());  // case-insensitive
  EXPECT_TRUE(catalog.GetTable("USERS").ok());
  EXPECT_FALSE(catalog.CreateTable("USERS", schema).ok());
  EXPECT_TRUE(catalog.DropTable("Users").ok());
  EXPECT_FALSE(catalog.GetTable("users").ok());
}

}  // namespace
}  // namespace recdb
