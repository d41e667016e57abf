#include "storage/disk_storage_manager.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "util/fault_injection.h"

namespace modb::storage {
namespace {

namespace fs = std::filesystem;

class DiskStorageManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("modb_disk_mgr_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string PageFile() const { return (dir_ / "index.pages").string(); }

  fs::path dir_;
};

TEST_F(DiskStorageManagerTest, WriteReadRoundTripAndPayloadCap) {
  DiskStorageManager::Options options;
  options.page_size = 512;
  auto mgr = DiskStorageManager::Open(PageFile(), options);
  ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
  EXPECT_EQ((*mgr)->page_payload_size(), 512 - kPageHeaderSize);

  const auto id = (*mgr)->AllocatePage();
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE((*mgr)->WritePage(*id, "paged bytes").ok());
  EXPECT_EQ(*(*mgr)->ReadPage(*id), "paged bytes");

  const std::string too_big(512 - kPageHeaderSize + 1, 'x');
  EXPECT_FALSE((*mgr)->WritePage(*id, too_big).ok());
  const std::string max_fit(512 - kPageHeaderSize, 'y');
  EXPECT_TRUE((*mgr)->WritePage(*id, max_fit).ok());
  EXPECT_EQ(*(*mgr)->ReadPage(*id), max_fit);
}

TEST_F(DiskStorageManagerTest, UnsyncedPagesAreReadableBeforeFlush) {
  // Nothing is ever synced: a page reads back as soon as it is written.
  DiskStorageManager::Options options;
  options.page_size = 512;
  auto mgr = DiskStorageManager::Open(PageFile(), options);
  ASSERT_TRUE(mgr.ok());
  for (int i = 0; i < 10; ++i) {
    const auto id = (*mgr)->AllocatePage();
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE((*mgr)->WritePage(*id, "p" + std::to_string(i)).ok());
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(*(*mgr)->ReadPage(static_cast<PageId>(i)),
              "p" + std::to_string(i));
  }
}

TEST_F(DiskStorageManagerTest, CorruptedPageDetectedByCrc) {
  DiskStorageManager::Options options;
  options.page_size = 512;
  auto mgr = DiskStorageManager::Open(PageFile(), options);
  ASSERT_TRUE(mgr.ok());
  const auto id = (*mgr)->AllocatePage();
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE((*mgr)->WritePage(*id, "precious payload").ok());
  // Rot a payload byte in the page's slot on disk (page 0's slot starts the
  // file; its header is kPageHeaderSize bytes).
  ASSERT_TRUE(util::FlipFileByte(PageFile(), kPageHeaderSize + 3).ok());
  const auto back = (*mgr)->ReadPage(*id);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), util::StatusCode::kInternal);
  EXPECT_NE(back.status().message().find("corrupt"), std::string::npos);
}

TEST_F(DiskStorageManagerTest, PageIdAddressesItsSlotAndWritesOverwrite) {
  DiskStorageManager::Options options;
  options.page_size = 512;
  auto mgr = DiskStorageManager::Open(PageFile(), options);
  ASSERT_TRUE(mgr.ok());
  const auto a = (*mgr)->AllocatePage();
  const auto b = (*mgr)->AllocatePage();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE((*mgr)->WritePage(*b, "second slot").ok());
  EXPECT_EQ(*util::FileSize(PageFile()), 2u * 512);
  // 50 versions of one page land in one slot: the file does not grow.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE((*mgr)->WritePage(*a, "v" + std::to_string(i)).ok());
  }
  EXPECT_EQ(*util::FileSize(PageFile()), 2u * 512);
  EXPECT_EQ(*(*mgr)->ReadPage(*a), "v49");
  EXPECT_EQ(*(*mgr)->ReadPage(*b), "second slot");
}

TEST_F(DiskStorageManagerTest, FreedIdsAreReusedBeforeTheFileGrows) {
  DiskStorageManager::Options options;
  options.page_size = 512;
  auto mgr = DiskStorageManager::Open(PageFile(), options);
  ASSERT_TRUE(mgr.ok());
  for (int i = 0; i < 4; ++i) {
    const auto id = (*mgr)->AllocatePage();
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE((*mgr)->WritePage(*id, "page " + std::to_string(i)).ok());
  }
  ASSERT_TRUE((*mgr)->FreePage(1).ok());
  ASSERT_TRUE((*mgr)->FreePage(2).ok());
  EXPECT_EQ((*mgr)->num_pages(), 2u);
  EXPECT_EQ((*mgr)->ReadPage(1).status().code(), util::StatusCode::kNotFound);
  for (int i = 0; i < 2; ++i) {
    const auto id = (*mgr)->AllocatePage();
    ASSERT_TRUE(id.ok());
    EXPECT_LT(*id, 4u) << "a freed id is handed out again";
    // Allocated but not yet written: the old occupant is not served.
    EXPECT_EQ((*mgr)->ReadPage(*id).status().code(),
              util::StatusCode::kNotFound);
    ASSERT_TRUE((*mgr)->WritePage(*id, "reused").ok());
  }
  EXPECT_EQ(*util::FileSize(PageFile()), 4u * 512);
  EXPECT_EQ(*(*mgr)->ReadPage(3), "page 3");
}

TEST_F(DiskStorageManagerTest, UnallocatedAndDoublyFreedIdsAreRejected) {
  DiskStorageManager::Options options;
  options.page_size = 512;
  auto mgr = DiskStorageManager::Open(PageFile(), options);
  ASSERT_TRUE(mgr.ok());
  EXPECT_EQ((*mgr)->WritePage(0, "x").code(),
            util::StatusCode::kInvalidArgument);
  const auto id = (*mgr)->AllocatePage();
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE((*mgr)->FreePage(*id).ok());
  EXPECT_EQ((*mgr)->FreePage(*id).code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ((*mgr)->WritePage(*id, "x").code(),
            util::StatusCode::kInvalidArgument);
}

TEST_F(DiskStorageManagerTest, SlotHoldingAnotherPageIsCorrupt) {
  // A slot whose frame is intact but names another page id (a misdirected
  // write) passes the CRC and fails the id check.
  DiskStorageManager::Options options;
  options.page_size = 512;
  auto mgr = DiskStorageManager::Open(PageFile(), options);
  ASSERT_TRUE(mgr.ok());
  ASSERT_TRUE((*mgr)->AllocatePage().ok());
  ASSERT_TRUE((*mgr)->AllocatePage().ok());
  ASSERT_TRUE((*mgr)->WritePage(0, "zero").ok());
  ASSERT_TRUE((*mgr)->WritePage(1, "one").ok());
  std::string image;
  {
    std::ifstream in(PageFile(), std::ios::binary);
    image.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_EQ(image.size(), 1024u);
  {
    std::ofstream out(PageFile(), std::ios::binary | std::ios::in);
    out.write(image.data() + 512, 512);  // slot 1's bytes into slot 0
  }
  const auto back = (*mgr)->ReadPage(0);
  ASSERT_FALSE(back.ok());
  EXPECT_NE(back.status().message().find("corrupt"), std::string::npos);
  EXPECT_EQ(*(*mgr)->ReadPage(1), "one");
}

TEST_F(DiskStorageManagerTest, ResetTruncatesTheFile) {
  DiskStorageManager::Options options;
  options.page_size = 512;
  auto mgr = DiskStorageManager::Open(PageFile(), options);
  ASSERT_TRUE(mgr.ok());
  for (int i = 0; i < 3; ++i) {
    const auto id = (*mgr)->AllocatePage();
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE((*mgr)->WritePage(*id, "p").ok());
  }
  ASSERT_TRUE((*mgr)->Reset().ok());
  EXPECT_EQ(*util::FileSize(PageFile()), 0u);
  EXPECT_EQ((*mgr)->num_pages(), 0u);
  EXPECT_EQ((*mgr)->ReadPage(0).status().code(), util::StatusCode::kNotFound);
  const auto id = (*mgr)->AllocatePage();
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 0u);
}

TEST_F(DiskStorageManagerTest, OpeningAPathLeavesItsPreviousHolderIntact) {
  // A store rebuilt over the same path (a shard being remediated) gets a
  // new, empty file; the store it replaces keeps reading its own pages
  // until it closes.
  DiskStorageManager::Options options;
  options.page_size = 512;
  auto old_store = DiskStorageManager::Open(PageFile(), options);
  ASSERT_TRUE(old_store.ok());
  ASSERT_TRUE((*old_store)->AllocatePage().ok());
  ASSERT_TRUE((*old_store)->WritePage(0, "old").ok());
  auto new_store = DiskStorageManager::Open(PageFile(), options);
  ASSERT_TRUE(new_store.ok());
  EXPECT_EQ(*util::FileSize(PageFile()), 0u);
  ASSERT_TRUE((*new_store)->AllocatePage().ok());
  ASSERT_TRUE((*new_store)->WritePage(0, "new").ok());
  EXPECT_EQ(*(*old_store)->ReadPage(0), "old");
  EXPECT_EQ(*(*new_store)->ReadPage(0), "new");
}

TEST_F(DiskStorageManagerTest, InjectedAppendFaultPoisonsWriterButKeepsReads) {
  util::FaultPlan plan;
  plan.fail_appends_after = 2;  // page 0, page 1, then the window opens
  plan.fail_appends_count = 1;
  util::FaultInjector injector(plan);
  DiskStorageManager::Options options;
  options.page_size = 512;
  options.write_hook = injector.write_hook();
  auto mgr = DiskStorageManager::Open(PageFile(), options);
  ASSERT_TRUE(mgr.ok());
  const auto a = (*mgr)->AllocatePage();
  const auto b = (*mgr)->AllocatePage();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE((*mgr)->WritePage(*a, "safe").ok());
  ASSERT_TRUE((*mgr)->WritePage(*b, "also safe").ok());
  // This write dies in the fault window; the writer is poisoned.
  EXPECT_FALSE((*mgr)->WritePage(*b, "doomed").ok());
  EXPECT_EQ(injector.injected_append_faults(), 1u);
  EXPECT_FALSE((*mgr)->WritePage(*a, "still doomed").ok());
  // Previously written pages stay readable.
  EXPECT_EQ(*(*mgr)->ReadPage(*a), "safe");
  EXPECT_EQ(*(*mgr)->ReadPage(*b), "also safe");
  // Reset empties the file and clears the poison.
  ASSERT_TRUE((*mgr)->Reset().ok());
  const auto fresh = (*mgr)->AllocatePage();
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE((*mgr)->WritePage(*fresh, "recovered").ok());
  EXPECT_EQ(*(*mgr)->ReadPage(*fresh), "recovered");
}

TEST_F(DiskStorageManagerTest, RejectsUndersizedPageSize) {
  DiskStorageManager::Options options;
  options.page_size = 64;  // < kMinPageSize
  EXPECT_FALSE(DiskStorageManager::Open(PageFile(), options).ok());
}

TEST_F(DiskStorageManagerTest, StatsTrackPageTraffic) {
  DiskStorageManager::Options options;
  options.page_size = 512;
  auto mgr = DiskStorageManager::Open(PageFile(), options);
  ASSERT_TRUE(mgr.ok());
  const auto id = (*mgr)->AllocatePage();
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE((*mgr)->WritePage(*id, "abcd").ok());
  ASSERT_TRUE((*mgr)->ReadPage(*id).ok());
  const StorageStats stats = (*mgr)->stats();
  EXPECT_EQ(stats.page_allocs, 1u);
  EXPECT_EQ(stats.page_writes, 1u);
  EXPECT_EQ(stats.page_reads, 1u);
  EXPECT_EQ(stats.bytes_written, 4u);
  EXPECT_EQ(stats.bytes_read, 4u);
}

}  // namespace
}  // namespace modb::storage
