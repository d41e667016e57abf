#include "storage/disk_storage_manager.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>

#include "util/crc32c.h"
#include "util/little_endian.h"

namespace modb::storage {

namespace {

constexpr std::uint32_t kPageMagic = 0x4d504447;  // "GDPM"

/// Masked CRC32C of a slot's first 16 header bytes and its payload.
std::uint32_t SlotCrc(const char* slot, std::string_view payload) {
  const std::uint32_t crc = util::Crc32cExtend(
      util::Crc32c(std::string_view(slot, kPageHeaderSize - 4)), payload);
  return util::Crc32cMask(crc);
}

/// `err` is the errno of the failed call, read before anything else can
/// overwrite it.
util::Status IoError(int err, const std::string& what,
                     const std::string& path) {
  return util::Status::Internal("page file " + path + " " + what + ": " +
                                std::strerror(err));
}

}  // namespace

util::Result<std::unique_ptr<DiskStorageManager>> DiskStorageManager::Open(
    const std::string& path, const Options& options) {
  if (options.page_size < kMinPageSize) {
    return util::Status::InvalidArgument(
        "page size " + std::to_string(options.page_size) + " below minimum " +
        std::to_string(kMinPageSize));
  }
  if (path.empty()) {
    return util::Status::InvalidArgument("empty page file path");
  }
  std::error_code ec;
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  // A new inode, not a truncated one: a store still holding the old file
  // (a shard being remediated) keeps reading its own pages until it closes.
  ::unlink(path.c_str());
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) {
    const int err = errno;
    return util::Status::NotFound("cannot open page file " + path + ": " +
                                  std::strerror(err));
  }
  return std::unique_ptr<DiskStorageManager>(
      new DiskStorageManager(path, options, fd));
}

DiskStorageManager::DiskStorageManager(std::string path, Options options,
                                       int fd)
    : path_(std::move(path)), options_(std::move(options)), fd_(fd) {}

DiskStorageManager::~DiskStorageManager() { ::close(fd_); }

util::Result<PageId> DiskStorageManager::AllocatePage() {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.page_allocs;
  if (!free_.empty()) {
    const PageId id = free_.back();
    free_.pop_back();
    slots_[id] = Slot::kAllocated;
    return id;
  }
  slots_.push_back(Slot::kAllocated);
  return static_cast<PageId>(slots_.size() - 1);
}

util::Status DiskStorageManager::WritePage(PageId id,
                                           std::string_view payload) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= slots_.size() || slots_[id] == Slot::kFree) {
    return util::Status::InvalidArgument("write of unallocated page " +
                                         std::to_string(id));
  }
  if (payload.size() > page_payload_size()) {
    return util::Status::InvalidArgument(
        "payload of " + std::to_string(payload.size()) +
        " bytes exceeds page payload size " +
        std::to_string(page_payload_size()));
  }
  if (!poison_.ok()) return poison_;
  if (options_.write_hook) {
    if (util::Status s = options_.write_hook(path_); !s.ok()) {
      poison_ = util::Status(s.code(),
                             "page file " + path_ + " write: " + s.message());
      return poison_;
    }
  }
  buffer_.assign(options_.page_size, '\0');
  char* slot = buffer_.data();
  util::StoreU32(slot, kPageMagic);
  util::StoreU64(slot + 4, id);
  util::StoreU32(slot + 12, static_cast<std::uint32_t>(payload.size()));
  util::StoreU32(slot + 16, SlotCrc(slot, payload));
  std::memcpy(slot + kPageHeaderSize, payload.data(), payload.size());

  const auto offset = static_cast<off_t>(id * options_.page_size);
  for (std::size_t done = 0; done < buffer_.size();) {
    const ssize_t n = ::pwrite(fd_, slot + done, buffer_.size() - done,
                               offset + static_cast<off_t>(done));
    const int err = n < 0 ? errno : EIO;
    if (n < 0 && err == EINTR) continue;
    if (n <= 0) {
      poison_ = IoError(err, "write of page " + std::to_string(id), path_);
      return poison_;
    }
    done += static_cast<std::size_t>(n);
  }
  slots_[id] = Slot::kWritten;
  ++stats_.page_writes;
  stats_.bytes_written += payload.size();
  return util::Status::Ok();
}

util::Result<std::string> DiskStorageManager::ReadPage(PageId id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= slots_.size() || slots_[id] != Slot::kWritten) {
    return util::Status::NotFound("page " + std::to_string(id));
  }
  std::string slot(options_.page_size, '\0');
  const auto offset = static_cast<off_t>(id * options_.page_size);
  std::size_t done = 0;
  while (done < slot.size()) {
    const ssize_t n = ::pread(fd_, slot.data() + done, slot.size() - done,
                              offset + static_cast<off_t>(done));
    const int err = n < 0 ? errno : 0;
    if (n < 0 && err == EINTR) continue;
    if (n < 0) return IoError(err, "read of page " + std::to_string(id), path_);
    if (n == 0) break;  // a short file leaves zeros, which fail the checks
    done += static_cast<std::size_t>(n);
  }
  const std::uint32_t length = util::GetU32(slot.data() + 12);
  if (util::GetU32(slot.data()) != kPageMagic ||
      util::GetU64(slot.data() + 4) != id ||
      length > page_payload_size() ||
      util::GetU32(slot.data() + 16) !=
          SlotCrc(slot.data(), std::string_view(slot).substr(
                                   kPageHeaderSize, length))) {
    return util::Status::Internal("page " + std::to_string(id) +
                                  " corrupt at offset " +
                                  std::to_string(offset) + " in " + path_);
  }
  ++stats_.page_reads;
  stats_.bytes_read += length;
  slot.erase(0, kPageHeaderSize);
  slot.resize(length);
  return slot;
}

util::Status DiskStorageManager::FreePage(PageId id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= slots_.size() || slots_[id] == Slot::kFree) {
    return util::Status::InvalidArgument("free of unallocated page " +
                                         std::to_string(id));
  }
  slots_[id] = Slot::kFree;
  free_.push_back(id);
  ++stats_.page_frees;
  return util::Status::Ok();
}

util::Status DiskStorageManager::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  slots_.clear();
  free_.clear();
  if (::ftruncate(fd_, 0) != 0) {
    poison_ = IoError(errno, "truncate", path_);
    return poison_;
  }
  poison_ = util::Status::Ok();
  return util::Status::Ok();
}

std::size_t DiskStorageManager::num_pages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_.size() - free_.size();
}

StorageStats DiskStorageManager::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace modb::storage
