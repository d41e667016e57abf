#include "storage/memory_storage_manager.h"

namespace modb::storage {

util::Result<PageId> MemoryStorageManager::AllocatePage() {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.page_allocs;
  if (!free_.empty()) {
    const PageId id = free_.back();
    free_.pop_back();
    freed_[id] = 0;
    return id;
  }
  pages_.emplace_back(std::nullopt);
  freed_.push_back(0);
  return static_cast<PageId>(pages_.size() - 1);
}

util::Status MemoryStorageManager::WritePage(PageId id,
                                             std::string_view payload) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= pages_.size() || freed_[id] != 0) {
    return util::Status::InvalidArgument("write of unallocated page " +
                                         std::to_string(id));
  }
  if (payload.size() > options_.page_payload_size) {
    return util::Status::InvalidArgument(
        "payload of " + std::to_string(payload.size()) +
        " bytes exceeds page payload size " +
        std::to_string(options_.page_payload_size));
  }
  pages_[id] = std::string(payload);
  ++stats_.page_writes;
  stats_.bytes_written += payload.size();
  return util::Status::Ok();
}

util::Result<std::string> MemoryStorageManager::ReadPage(PageId id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= pages_.size() || !pages_[id].has_value()) {
    return util::Status::NotFound("page " + std::to_string(id));
  }
  ++stats_.page_reads;
  stats_.bytes_read += pages_[id]->size();
  return *pages_[id];
}

util::Status MemoryStorageManager::FreePage(PageId id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= pages_.size() || freed_[id] != 0) {
    return util::Status::InvalidArgument("free of unallocated page " +
                                         std::to_string(id));
  }
  pages_[id].reset();
  freed_[id] = 1;
  free_.push_back(id);
  ++stats_.page_frees;
  return util::Status::Ok();
}

util::Status MemoryStorageManager::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  pages_.clear();
  freed_.clear();
  free_.clear();
  return util::Status::Ok();
}

std::size_t MemoryStorageManager::num_pages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pages_.size() - free_.size();
}

StorageStats MemoryStorageManager::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace modb::storage
