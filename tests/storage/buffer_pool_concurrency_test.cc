#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "storage/buffer_pool.h"
#include "storage/memory_storage_manager.h"

namespace modb::storage {
namespace {

std::shared_ptr<void> Obj(const std::string& s) {
  return std::make_shared<std::string>(s);
}

// The pool's contract is "internally synchronised": concurrent readers may
// fault pages in, advance the clock, and pin/unpin simultaneously. These
// tests exist to run under TSan (the `Concurrent` name matches the tsan
// ctest filter), where any lock hole in the pool shows up as a race.

TEST(BufferPoolConcurrentTest, ParallelFetchOfSharedWorkingSet) {
  MemoryStorageManager mgr;
  BufferPool pool(&mgr, StringPageCodec(), BufferPoolOptions{});
  constexpr std::size_t kPages = 64;
  std::vector<PageId> ids;
  for (std::size_t i = 0; i < kPages; ++i) {
    auto h = pool.Create(Obj("page " + std::to_string(i)));
    ASSERT_TRUE(h.ok());
    ids.push_back(h->id());
  }

  constexpr int kThreads = 8;
  constexpr int kReadsPerThread = 2000;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kReadsPerThread; ++i) {
        const std::size_t slot =
            (static_cast<std::size_t>(t) * 31 + static_cast<std::size_t>(i)) %
            kPages;
        auto h = pool.Fetch(ids[slot]);
        if (!h.ok()) {
          ++mismatches;
          continue;
        }
        const auto& s = *static_cast<const std::string*>(h->get());
        if (s != "page " + std::to_string(slot)) ++mismatches;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(pool.stats().hits,
            static_cast<std::uint64_t>(kThreads) * kReadsPerThread);
}

TEST(BufferPoolConcurrentTest, ParallelFaultInUnderEvictionPressure) {
  // Small pool, large working set: threads continuously miss, fault pages
  // in, and push each other's frames out. Pins must keep every frame a
  // thread is reading alive, and the clock state must stay consistent.
  MemoryStorageManager mgr;
  BufferPoolOptions options;
  options.capacity_pages = 8;
  BufferPool pool(&mgr, StringPageCodec(), options);
  constexpr std::size_t kPages = 64;
  std::vector<PageId> ids;
  for (std::size_t i = 0; i < kPages; ++i) {
    auto h = pool.Create(Obj("v" + std::to_string(i)));
    ASSERT_TRUE(h.ok());
    ids.push_back(h->id());
  }
  // Shrink residency down to the cap before the storm; this evicts (and
  // writes back) the last dirty frames, so every page has been written
  // once.
  for (std::size_t i = 0; i + options.capacity_pages < kPages; ++i) {
    auto h = pool.Fetch(ids[i]);
    ASSERT_TRUE(h.ok());
  }

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 1500;
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::uint64_t state = static_cast<std::uint64_t>(t) + 1;
      for (int i = 0; i < kOpsPerThread; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        const std::size_t slot = static_cast<std::size_t>(state >> 33) % kPages;
        auto h = pool.Fetch(ids[slot]);
        if (!h.ok()) {
          ++errors;
          continue;
        }
        if (*static_cast<const std::string*>(h->get()) !=
            "v" + std::to_string(slot)) {
          ++errors;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_GT(pool.stats().evictions, 0u);
  // Clean frames only: eviction pressure must not have written anything
  // beyond each page's first writeback.
  EXPECT_EQ(pool.stats().writebacks, static_cast<std::uint64_t>(kPages));
}

TEST(BufferPoolConcurrentTest, WritersOnDisjointPagesWithSharedPoolState) {
  // One writer per page: each thread repeatedly pins ITS page, mutates the
  // object, marks it dirty, and unpins. The objects are disjoint (mutating
  // a pinned object is the client's concern, and these clients never
  // share one) but the pool bookkeeping — frame map, pin counts, dirty
  // bits, stats — is hammered from every thread at once.
  constexpr int kWriters = 8;
  MemoryStorageManager mgr;
  BufferPoolOptions options;
  options.capacity_pages = kWriters;  // every page fits: the storm never evicts
  BufferPool pool(&mgr, StringPageCodec(), options);
  std::vector<PageId> ids;
  for (int i = 0; i < kWriters; ++i) {
    auto h = pool.Create(Obj("0"));
    ASSERT_TRUE(h.ok());
    ids.push_back(h->id());
  }

  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  threads.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 1; i <= 1000; ++i) {
        auto h = pool.Fetch(ids[static_cast<std::size_t>(w)]);
        if (!h.ok()) {
          ++errors;
          continue;
        }
        *static_cast<std::string*>(h->get()) = std::to_string(i);
        h->MarkDirty();
      }
    });
  }
  for (auto& th : threads) th.join();
  // Admitting kWriters fresh pages evicts every written page, writing its
  // last version back.
  for (int i = 0; i < kWriters; ++i) ASSERT_TRUE(pool.Create(Obj("")).ok());
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(pool.pinned_frames(), 0u);
  for (int w = 0; w < kWriters; ++w) {
    EXPECT_EQ(*mgr.ReadPage(ids[static_cast<std::size_t>(w)]), "1000");
  }
}

}  // namespace
}  // namespace modb::storage
