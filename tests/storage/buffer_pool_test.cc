#include "storage/buffer_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "storage/memory_storage_manager.h"

namespace modb::storage {
namespace {

std::shared_ptr<void> Obj(const std::string& s) {
  return std::make_shared<std::string>(s);
}

const std::string& Str(const BufferPool::Handle& h) {
  return *static_cast<const std::string*>(h.get());
}

TEST(BufferPoolTest, CreateFetchRoundTripWithoutStorageTraffic) {
  MemoryStorageManager mgr;
  BufferPool pool(&mgr, StringPageCodec(), BufferPoolOptions{});
  auto h = pool.Create(Obj("cached object"));
  ASSERT_TRUE(h.ok());
  const PageId id = h->id();
  h->Release();

  // A fetch of a resident frame is a pure cache hit: no storage read.
  auto again = pool.Fetch(id);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(Str(*again), "cached object");
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.stats().misses, 0u);
  EXPECT_EQ(mgr.stats().page_reads, 0u);
  EXPECT_EQ(mgr.stats().page_writes, 0u);  // dirty, but not yet written back
}

TEST(BufferPoolTest, PinRefcountsBlockEviction) {
  MemoryStorageManager mgr;
  BufferPoolOptions options;
  options.capacity_pages = 1;  // every admit evicts the previous frame
  BufferPool pool(&mgr, StringPageCodec(), options);

  auto pinned = pool.Create(Obj("pinned"));
  ASSERT_TRUE(pinned.ok());
  auto second = pool.Fetch(pinned->id());  // second pin on the same frame
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(pool.pinned_frames(), 1u);

  // Admitting another frame cannot evict the pinned one: the pool
  // overflows its soft cap instead.
  auto other = pool.Create(Obj("other"));
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(pool.num_frames(), 2u);
  EXPECT_GE(pool.stats().overflow_frames, 1u);
  EXPECT_EQ(pool.stats().evictions, 0u);

  // Dropping one handle keeps the frame pinned; dropping both unpins it.
  second->Release();
  EXPECT_EQ(pool.pinned_frames(), 2u);  // both frames still hold one pin
  other->Release();
  pinned->Release();
  EXPECT_EQ(pool.pinned_frames(), 0u);
}

TEST(BufferPoolTest, ClockEvictsInSecondChanceOrder) {
  MemoryStorageManager mgr;
  BufferPoolOptions options;
  options.capacity_pages = 2;
  BufferPool pool(&mgr, StringPageCodec(), options);

  auto a = pool.Create(Obj("a"));
  auto b = pool.Create(Obj("b"));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const PageId id_a = a->id();
  const PageId id_b = b->id();
  a->Release();
  b->Release();

  // Both frames carry the reference bit. The first admit over budget
  // sweeps the clock: a's bit is cleared first (hand order), then b's,
  // then a — the oldest un-referenced frame — is evicted.
  auto c = pool.Create(Obj("c"));
  ASSERT_TRUE(c.ok());
  c->Release();
  EXPECT_EQ(pool.stats().evictions, 1u);

  // a was evicted (written back), b survived: fetching b is a hit,
  // fetching a is a miss that faults it back in.
  const auto hits_before = pool.stats().hits;
  auto b2 = pool.Fetch(id_b);
  ASSERT_TRUE(b2.ok());
  EXPECT_EQ(pool.stats().hits, hits_before + 1);
  b2->Release();
  const auto misses_before = pool.stats().misses;
  auto a2 = pool.Fetch(id_a);
  ASSERT_TRUE(a2.ok());
  EXPECT_EQ(Str(*a2), "a");
  EXPECT_EQ(pool.stats().misses, misses_before + 1);
}

TEST(BufferPoolTest, ReferenceBitGrantsSecondChance) {
  MemoryStorageManager mgr;
  BufferPoolOptions options;
  options.capacity_pages = 3;
  BufferPool pool(&mgr, StringPageCodec(), options);

  auto a = pool.Create(Obj("a"));
  auto b = pool.Create(Obj("b"));
  auto c = pool.Create(Obj("c"));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());
  const PageId id_b = b->id();
  const PageId id_c = c->id();
  a->Release();
  b->Release();
  c->Release();

  // Admitting d sweeps the full ring (clearing every bit) and evicts a,
  // leaving b and c with cleared bits and d freshly referenced.
  auto d = pool.Create(Obj("d"));
  ASSERT_TRUE(d.ok());
  d->Release();
  ASSERT_EQ(pool.stats().evictions, 1u);

  // Touch b: its reference bit is set again. The next eviction reaches b
  // first, grants it the second chance (clears the bit, moves on), and
  // takes c — the frame that was NOT recently used.
  pool.Fetch(id_b)->Release();
  auto e = pool.Create(Obj("e"));
  ASSERT_TRUE(e.ok());
  e->Release();
  ASSERT_EQ(pool.stats().evictions, 2u);

  const auto misses_before = pool.stats().misses;
  pool.Fetch(id_b)->Release();
  EXPECT_EQ(pool.stats().misses, misses_before) << "b must still be resident";
  auto c2 = pool.Fetch(id_c);
  ASSERT_TRUE(c2.ok());
  EXPECT_EQ(pool.stats().misses, misses_before + 1) << "c must have been evicted";
  EXPECT_EQ(Str(*c2), "c");
}

TEST(BufferPoolTest, DirtyFramesWrittenBackOnEviction) {
  MemoryStorageManager mgr;
  BufferPoolOptions options;
  options.capacity_pages = 1;
  BufferPool pool(&mgr, StringPageCodec(), options);

  auto a = pool.Create(Obj("dirty payload"));
  ASSERT_TRUE(a.ok());
  const PageId id_a = a->id();
  a->Release();  // Create leaves the frame dirty

  auto b = pool.Create(Obj("b"));
  ASSERT_TRUE(b.ok());
  b->Release();
  EXPECT_EQ(pool.stats().evictions, 1u);
  EXPECT_EQ(pool.stats().writebacks, 1u);
  // The evicted object round-trips through storage.
  EXPECT_EQ(*mgr.ReadPage(id_a), "dirty payload");

  // Faulting it back and evicting again without MarkDirty: clean frames
  // are dropped without a second write.
  auto a2 = pool.Fetch(id_a);
  ASSERT_TRUE(a2.ok());
  a2->Release();
  const auto writebacks = pool.stats().writebacks;
  auto c = pool.Create(Obj("c"));
  ASSERT_TRUE(c.ok());
  c->Release();
  EXPECT_EQ(pool.stats().writebacks, writebacks);
}

TEST(BufferPoolTest, FreeRefusesPinnedFrames) {
  MemoryStorageManager mgr;
  BufferPool pool(&mgr, StringPageCodec(), BufferPoolOptions{});
  auto h = pool.Create(Obj("held"));
  ASSERT_TRUE(h.ok());
  const PageId id = h->id();
  const util::Status s = pool.Free(id);
  EXPECT_EQ(s.code(), util::StatusCode::kFailedPrecondition);
  h->Release();
  EXPECT_TRUE(pool.Free(id).ok());
  EXPECT_EQ(pool.num_frames(), 0u);
  EXPECT_EQ(mgr.num_pages(), 0u);
}

// A pool that never fills never sweeps its clock ring, so the stale entries
// freed pages leave behind must be compacted some other way: 100k
// Create/Free cycles over at most 8 live frames keep the ring small, both
// for a bounded pool far from its cap and for an unbounded one. The memory
// manager recycles freed ids, so the same ids are re-admitted again and
// again.
TEST(BufferPoolTest, ClockRingStaysBoundedWhenThePoolNeverFills) {
  for (const std::size_t capacity : {std::size_t{4096}, std::size_t{0}}) {
    MemoryStorageManager mgr;
    BufferPoolOptions options;
    options.capacity_pages = capacity;
    BufferPool pool(&mgr, StringPageCodec(), options);
    std::vector<PageId> live;
    std::size_t max_ring = 0;
    for (int cycle = 0; cycle < 100000; ++cycle) {
      auto h = pool.Create(Obj("page"));
      ASSERT_TRUE(h.ok());
      live.push_back(h->id());
      h->Release();
      if (live.size() > 8 || cycle % 3 == 0) {
        ASSERT_TRUE(pool.Free(live.front()).ok());
        live.erase(live.begin());
      }
      max_ring = std::max(max_ring, pool.clock_ring_size());
    }
    EXPECT_LE(pool.num_frames(), 9u) << "capacity " << capacity;
    EXPECT_LE(max_ring, 2 * 9u + 1) << "capacity " << capacity;
    EXPECT_EQ(pool.stats().evictions, 0u) << "capacity " << capacity;
    // Every surviving frame is still reachable through the ring.
    for (const PageId id : live) {
      auto h = pool.Fetch(id);
      ASSERT_TRUE(h.ok());
      EXPECT_EQ(Str(*h), "page");
    }
  }
}

// After compaction the clock still evicts: a bounded pool that churns
// pages through Free and then fills evicts only live frames, one per
// admission over the cap.
TEST(BufferPoolTest, ClockEvictsCorrectlyAfterCompaction) {
  MemoryStorageManager mgr;
  BufferPoolOptions options;
  options.capacity_pages = 4;
  BufferPool pool(&mgr, StringPageCodec(), options);
  for (int cycle = 0; cycle < 1000; ++cycle) {
    auto h = pool.Create(Obj("churn"));
    ASSERT_TRUE(h.ok());
    const PageId id = h->id();
    h->Release();
    ASSERT_TRUE(pool.Free(id).ok());
  }
  EXPECT_LE(pool.clock_ring_size(), 1u);
  std::vector<PageId> ids;
  for (int i = 0; i < 6; ++i) {
    auto h = pool.Create(Obj("page " + std::to_string(i)));
    ASSERT_TRUE(h.ok());
    ids.push_back(h->id());
  }
  EXPECT_EQ(pool.num_frames(), 4u);
  EXPECT_EQ(pool.stats().evictions, 2u);
  EXPECT_EQ(pool.clock_ring_size(), 4u);
  for (int i = 0; i < 6; ++i) {
    auto h = pool.Fetch(ids[static_cast<std::size_t>(i)]);
    ASSERT_TRUE(h.ok());
    EXPECT_EQ(Str(*h), "page " + std::to_string(i));
  }
}

TEST(BufferPoolTest, DropAllRefusesPinnedAndDropsWithoutWriteback) {
  MemoryStorageManager mgr;
  BufferPool pool(&mgr, StringPageCodec(), BufferPoolOptions{});
  auto h = pool.Create(Obj("x"));
  ASSERT_TRUE(h.ok());
  EXPECT_FALSE(pool.DropAll().ok());
  h->Release();
  ASSERT_TRUE(pool.DropAll().ok());
  EXPECT_EQ(pool.num_frames(), 0u);
  EXPECT_EQ(mgr.stats().page_writes, 0u);  // dropped dirty frame never wrote
}

TEST(BufferPoolTest, FetchMissSurfacesStorageError) {
  MemoryStorageManager mgr;
  BufferPool pool(&mgr, StringPageCodec(), BufferPoolOptions{});
  const auto missing = pool.Fetch(777);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), util::StatusCode::kNotFound);
}

TEST(BufferPoolTest, MoveOnlyHandleTransfersThePin) {
  MemoryStorageManager mgr;
  BufferPool pool(&mgr, StringPageCodec(), BufferPoolOptions{});
  auto h = pool.Create(Obj("moved"));
  ASSERT_TRUE(h.ok());
  BufferPool::Handle stolen = std::move(*h);
  EXPECT_FALSE(h->valid());
  EXPECT_TRUE(stolen.valid());
  EXPECT_EQ(pool.pinned_frames(), 1u);
  stolen.Release();
  EXPECT_EQ(pool.pinned_frames(), 0u);
}

}  // namespace
}  // namespace modb::storage
