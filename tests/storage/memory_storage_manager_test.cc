#include "storage/memory_storage_manager.h"

#include <gtest/gtest.h>

#include <string>

#include "storage/storage_manager.h"

namespace modb::storage {
namespace {

TEST(MemoryStorageManagerTest, AllocateWriteReadRoundTrip) {
  MemoryStorageManager mgr{MemoryStorageManager::Options{}};
  const auto id = mgr.AllocatePage();
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(mgr.WritePage(*id, "hello pages").ok());
  const auto back = mgr.ReadPage(*id);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, "hello pages");
  EXPECT_EQ(mgr.num_pages(), 1u);
}

TEST(MemoryStorageManagerTest, ReadBeforeFirstWriteIsNotFound) {
  MemoryStorageManager mgr{MemoryStorageManager::Options{}};
  const auto id = mgr.AllocatePage();
  ASSERT_TRUE(id.ok());
  const auto back = mgr.ReadPage(*id);
  EXPECT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), util::StatusCode::kNotFound);
}

TEST(MemoryStorageManagerTest, ReadOfUnknownIdIsNotFound) {
  MemoryStorageManager mgr{MemoryStorageManager::Options{}};
  EXPECT_EQ(mgr.ReadPage(12345).status().code(), util::StatusCode::kNotFound);
  EXPECT_EQ(mgr.ReadPage(kInvalidPageId).status().code(),
            util::StatusCode::kNotFound);
}

TEST(MemoryStorageManagerTest, WriteReplacesPayload) {
  MemoryStorageManager mgr{MemoryStorageManager::Options{}};
  const auto id = mgr.AllocatePage();
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(mgr.WritePage(*id, "v1").ok());
  ASSERT_TRUE(mgr.WritePage(*id, "version two").ok());
  EXPECT_EQ(*mgr.ReadPage(*id), "version two");
}

TEST(MemoryStorageManagerTest, FreedIdsAreRecycled) {
  MemoryStorageManager mgr{MemoryStorageManager::Options{}};
  const auto a = mgr.AllocatePage();
  const auto b = mgr.AllocatePage();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(mgr.WritePage(*b, "doomed").ok());
  ASSERT_TRUE(mgr.FreePage(*b).ok());
  EXPECT_EQ(mgr.num_pages(), 1u);
  // The freed id comes back, and its old payload does not.
  const auto again = mgr.AllocatePage();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *b);
  EXPECT_EQ(mgr.ReadPage(*again).status().code(), util::StatusCode::kNotFound);
}

TEST(MemoryStorageManagerTest, DoubleFreeAndUnknownFreeFail) {
  MemoryStorageManager mgr{MemoryStorageManager::Options{}};
  const auto id = mgr.AllocatePage();
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(mgr.FreePage(*id).ok());
  EXPECT_FALSE(mgr.FreePage(*id).ok());
  EXPECT_FALSE(mgr.FreePage(999).ok());
}

TEST(MemoryStorageManagerTest, PayloadSizeCapEnforced) {
  MemoryStorageManager::Options options;
  options.page_payload_size = 8;
  MemoryStorageManager mgr{options};
  const auto id = mgr.AllocatePage();
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(mgr.WritePage(*id, "12345678").ok());
  EXPECT_FALSE(mgr.WritePage(*id, "123456789").ok());
}

TEST(MemoryStorageManagerTest, ResetDropsPagesButKeepsStats) {
  MemoryStorageManager mgr{MemoryStorageManager::Options{}};
  const auto id = mgr.AllocatePage();
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(mgr.WritePage(*id, "x").ok());
  ASSERT_TRUE(mgr.ReadPage(*id).ok());
  ASSERT_TRUE(mgr.Reset().ok());
  EXPECT_EQ(mgr.num_pages(), 0u);
  EXPECT_EQ(mgr.ReadPage(*id).status().code(), util::StatusCode::kNotFound);
  // Stats are monotonic across Reset (the metrics contract).
  const StorageStats stats = mgr.stats();
  EXPECT_EQ(stats.page_allocs, 1u);
  EXPECT_EQ(stats.page_writes, 1u);
  EXPECT_EQ(stats.page_reads, 1u);
}

TEST(MemoryStorageManagerTest, StatsCountOperations) {
  MemoryStorageManager mgr{MemoryStorageManager::Options{}};
  const auto id = mgr.AllocatePage();
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(mgr.WritePage(*id, "abcd").ok());
  ASSERT_TRUE(mgr.ReadPage(*id).ok());
  const StorageStats stats = mgr.stats();
  EXPECT_EQ(stats.page_allocs, 1u);
  EXPECT_EQ(stats.page_writes, 1u);
  EXPECT_EQ(stats.page_reads, 1u);
  EXPECT_EQ(stats.bytes_written, 4u);
  EXPECT_EQ(stats.bytes_read, 4u);
}

TEST(MemoryStorageManagerTest, OpenStorageBuildsMemoryByDefault) {
  StorageConfig config;
  const auto mgr = OpenStorage(config);
  ASSERT_TRUE(mgr.ok());
  EXPECT_EQ((*mgr)->name(), "memory");
}

TEST(MemoryStorageManagerTest, OpenStorageDiskRequiresPath) {
  StorageConfig config;
  config.kind = StorageKind::kDisk;
  EXPECT_FALSE(OpenStorage(config).ok());
}

}  // namespace
}  // namespace modb::storage
