// Golden bytes of the three little-endian on-disk encodings: one WAL
// frame, one R-tree node page and one disk page slot. Each is produced
// through the public write path, read back from its file, and compared
// byte for byte, so a change to any encoder (or to the shared codec they
// use) that moves a single byte fails here.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "core/position_attribute.h"
#include "db/wal.h"
#include "geo/box.h"
#include "index/rtree3.h"
#include "storage/disk_storage_manager.h"

namespace modb {
namespace {

namespace fs = std::filesystem;

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

std::string Hex(std::string_view bytes) {
  std::string out;
  char buf[3];
  for (const char c : bytes) {
    std::snprintf(buf, sizeof(buf), "%02x", static_cast<unsigned char>(c));
    out += buf;
  }
  return out;
}

class CodecGoldenTest : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("modb_codec_golden_" + std::string(testing::UnitTest::GetInstance()
                                                   ->current_test_info()
                                                   ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

// `[u32 payload length][u32 masked CRC32C][payload]`; the payload is the
// type byte, then object, time, route, route distance, x, y, direction
// and speed.
TEST_F(CodecGoldenTest, WalFrame) {
  {
    auto wal = db::WalWriter::Open(dir_.string(), 3, {});
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    core::PositionUpdate update;
    update.object = 0x0102030405060708ull;
    update.time = 12.5;
    update.route = 0x0a0b0c0d;
    update.route_distance = -0.25;
    update.position = {1.0, -2.0};
    update.direction = core::TravelDirection::kBackward;
    update.speed = 3.75;
    ASSERT_TRUE((*wal)->AppendUpdate(update).ok());
    ASSERT_TRUE((*wal)->Close().ok());
  }
  EXPECT_EQ(Hex(ReadFile(dir_ / db::WalSegmentFileName(3, 1))),
            "36000000120019bf"                  // length 54, CRC
            "02"                                // kUpdate
            "0807060504030201"                  // object
            "0000000000002940"                  // time 12.5
            "0d0c0b0a"                          // route
            "000000000000d0bf"                  // route distance -0.25
            "000000000000f03f"                  // x 1.0
            "00000000000000c0"                  // y -2.0
            "00"                                // backward
            "0000000000000e40");                // speed 3.75
}

// `u32 level | u64 parent (all ones) | u32 count`, then per entry the
// box's three minima and three maxima as f64 and the u64 value; read from
// the page slot's payload, after its 20-byte header.
TEST_F(CodecGoldenTest, RTreeNodePage) {
  index::RTree3::Options options;
  options.max_entries = 4;
  options.min_entries = 2;
  options.storage.kind = storage::StorageKind::kDisk;
  options.storage.path = (dir_ / "tree.pages").string();
  options.storage.page_size = 512;
  options.storage.pool_pages = 1;
  index::RTree3 tree(options);
  // Eight entries split the root leaf twice; the one-frame pool writes
  // evicted nodes back, page 0 (the first leaf) among them. Entry 0's y
  // minimum is -0.0, so the sign bit is pinned too.
  for (int i = 0; i < 8; ++i) {
    const double x = 10.0 * i;
    tree.Insert(geo::Box3(x, -x, 0.5, x + 1.0, 1.0 - x, 2.0 + i),
                static_cast<index::RTree3::Value>(100 + i));
  }
  ASSERT_TRUE(tree.storage_status().ok());
  const std::string file = ReadFile(options.storage.path);
  ASSERT_GE(file.size(), 512u);
  EXPECT_EQ(Hex(file.substr(0, 204)),
            "4744504d0000000000000000b80000009b5e184c"  // slot header
            "00000000ffffffffffffffff03000000"          // leaf, 3 entries
            // entry 0: x, y, t minima; x, y, t maxima; value
            "00000000000000000000000000000080000000000000e03f"
            "000000000000f03f000000000000f03f0000000000000040"
            "6400000000000000"
            // entry 1: x, y, t minima; x, y, t maxima; value
            "000000000000244000000000000024c0000000000000e03f"
            "000000000000264000000000000022c00000000000000840"
            "6500000000000000"
            // entry 2: x, y, t minima; x, y, t maxima; value
            "000000000000344000000000000034c0000000000000e03f"
            "000000000000354000000000000033c00000000000001040"
            "6600000000000000");
  EXPECT_EQ(file.substr(204, 512 - 204), std::string(512 - 204, '\0'));
}

// `u32 magic | u64 page id | u32 payload length | u32 masked CRC32C`, then
// the payload, zero-padded to the page size, at byte offset id × size.
TEST_F(CodecGoldenTest, DiskPageSlot) {
  storage::DiskStorageManager::Options options;
  options.page_size = 512;
  const fs::path path = dir_ / "index.pages";
  {
    auto mgr = storage::DiskStorageManager::Open(path.string(), options);
    ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
    ASSERT_TRUE((*mgr)->AllocatePage().ok());
    const auto id = (*mgr)->AllocatePage();
    ASSERT_TRUE(id.ok());
    ASSERT_EQ(*id, 1u);
    ASSERT_TRUE((*mgr)->WritePage(*id, "golden page").ok());
  }
  const std::string file = ReadFile(path);
  ASSERT_EQ(file.size(), 1024u);
  EXPECT_EQ(Hex(file.substr(512, 48)),
            "4744504d"                          // magic "GDPM"
            "0100000000000000"                  // page id 1
            "0b000000"                          // payload length 11
            "f0290e53"                          // CRC
            "676f6c64656e2070616765"            // "golden page"
            "0000000000000000000000000000000000");
  EXPECT_EQ(file.substr(512 + 48), std::string(512 - 48, '\0'));
}

}  // namespace
}  // namespace modb
