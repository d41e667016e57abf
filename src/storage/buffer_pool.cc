#include "storage/buffer_pool.h"

#include <utility>

namespace modb::storage {

PageCodec StringPageCodec() {
  PageCodec codec;
  codec.encode = [](const void* object, std::string* out) {
    *out = *static_cast<const std::string*>(object);
    return util::Status::Ok();
  };
  codec.decode = [](std::string_view bytes) -> util::Result<std::shared_ptr<void>> {
    return std::shared_ptr<void>(std::make_shared<std::string>(bytes));
  };
  return codec;
}

BufferPool::BufferPool(IStorageManager* storage, PageCodec codec,
                       BufferPoolOptions options)
    : storage_(storage), codec_(std::move(codec)), options_(options) {}

BufferPool::~BufferPool() = default;

BufferPool::Handle& BufferPool::Handle::operator=(Handle&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    id_ = other.id_;
    object_ = other.object_;
    other.pool_ = nullptr;
    other.object_ = nullptr;
    other.id_ = kInvalidPageId;
  }
  return *this;
}

void BufferPool::Handle::MarkDirty() {
  if (pool_ != nullptr) pool_->MarkDirtyInternal(id_);
}

void BufferPool::Handle::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(id_);
    pool_ = nullptr;
    object_ = nullptr;
    id_ = kInvalidPageId;
  }
}

util::Result<BufferPool::Handle> BufferPool::Fetch(PageId id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (auto it = frames_.find(id); it != frames_.end()) {
    ++stats_.hits;
    it->second.referenced = true;
    ++it->second.pins;
    return Handle(this, id, it->second.object.get());
  }
  ++stats_.misses;
  auto bytes = storage_->ReadPage(id);
  if (!bytes.ok()) return bytes.status();
  auto object = codec_.decode(*bytes);
  if (!object.ok()) {
    return util::Status(object.status().code(),
                        "page " + std::to_string(id) +
                            " decode: " + object.status().message());
  }
  Frame frame;
  frame.object = std::move(*object);
  frame.pins = 1;
  if (util::Status s = AdmitLocked(id, std::move(frame)); !s.ok()) return s;
  return Handle(this, id, frames_[id].object.get());
}

util::Result<BufferPool::Handle> BufferPool::Create(
    std::shared_ptr<void> object) {
  std::lock_guard<std::mutex> lock(mu_);
  auto id = storage_->AllocatePage();
  if (!id.ok()) return id.status();
  Frame frame;
  frame.object = std::move(object);
  frame.pins = 1;
  frame.dirty = true;
  if (util::Status s = AdmitLocked(*id, std::move(frame)); !s.ok()) return s;
  ++stats_.creates;
  return Handle(this, *id, frames_[*id].object.get());
}

util::Status BufferPool::Free(PageId id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (auto it = frames_.find(id); it != frames_.end()) {
    if (it->second.pins > 0) {
      return util::Status::FailedPrecondition(
          "page " + std::to_string(id) + " freed while pinned");
    }
    frames_.erase(it);  // the clock ring entry goes stale
    if (clock_.size() > 2 * frames_.size()) CompactClockLocked();
  }
  if (util::Status s = storage_->FreePage(id); !s.ok()) return s;
  ++stats_.frees;
  return util::Status::Ok();
}

util::Status BufferPool::DropAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [id, frame] : frames_) {
    if (frame.pins > 0) {
      return util::Status::FailedPrecondition(
          "page " + std::to_string(id) + " dropped while pinned");
    }
  }
  frames_.clear();
  clock_.clear();
  clock_hand_ = 0;
  return util::Status::Ok();
}

void BufferPool::Unpin(PageId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = frames_.find(id);
  if (it != frames_.end() && it->second.pins > 0) --it->second.pins;
}

void BufferPool::MarkDirtyInternal(PageId id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (auto it = frames_.find(id); it != frames_.end()) it->second.dirty = true;
}

util::Status BufferPool::AdmitLocked(PageId id, Frame frame) {
  if (options_.capacity_pages > 0) {
    while (frames_.size() >= options_.capacity_pages) {
      bool evicted = false;
      if (util::Status s = EvictOneLocked(&evicted); !s.ok()) return s;
      if (!evicted) {
        // Every frame is pinned: admit over budget rather than fail — the
        // cap is a target, pins are correctness.
        ++stats_.overflow_frames;
        break;
      }
    }
  }
  frame.admission = ++admissions_;
  clock_.push_back({id, frame.admission});
  frames_.emplace(id, std::move(frame));
  return util::Status::Ok();
}

BufferPool::Frame* BufferPool::LiveFrameLocked(const ClockEntry& entry) {
  auto it = frames_.find(entry.id);
  if (it == frames_.end() || it->second.admission != entry.admission) {
    return nullptr;
  }
  return &it->second;
}

void BufferPool::CompactClockLocked() {
  std::size_t kept = 0;
  std::size_t hand = 0;
  for (std::size_t i = 0; i < clock_.size(); ++i) {
    if (i == clock_hand_) hand = kept;
    if (LiveFrameLocked(clock_[i]) != nullptr) clock_[kept++] = clock_[i];
  }
  clock_.resize(kept);
  clock_hand_ = hand;
}

util::Status BufferPool::EvictOneLocked(bool* evicted) {
  *evicted = false;
  // Two full sweeps: the first may only clear reference bits.
  std::size_t budget = 2 * clock_.size();
  while (budget-- > 0 && !clock_.empty()) {
    if (clock_hand_ >= clock_.size()) clock_hand_ = 0;
    const PageId id = clock_[clock_hand_].id;
    Frame* live = LiveFrameLocked(clock_[clock_hand_]);
    if (live == nullptr) {
      // Stale ring entry (frame freed, or its id recycled and re-admitted).
      clock_.erase(clock_.begin() +
                   static_cast<std::ptrdiff_t>(clock_hand_));
      continue;
    }
    Frame& frame = *live;
    if (frame.pins > 0) {
      ++clock_hand_;
      continue;
    }
    if (frame.referenced) {
      frame.referenced = false;
      ++clock_hand_;
      continue;
    }
    if (frame.dirty) {
      if (util::Status s = WriteBackLocked(id, frame); !s.ok()) return s;
    }
    frames_.erase(id);
    clock_.erase(clock_.begin() + static_cast<std::ptrdiff_t>(clock_hand_));
    ++stats_.evictions;
    *evicted = true;
    return util::Status::Ok();
  }
  return util::Status::Ok();
}

util::Status BufferPool::WriteBackLocked(PageId id, Frame& frame) {
  std::string bytes;
  if (util::Status s = codec_.encode(frame.object.get(), &bytes); !s.ok()) {
    return util::Status(s.code(), "page " + std::to_string(id) +
                                      " encode: " + s.message());
  }
  if (util::Status s = storage_->WritePage(id, bytes); !s.ok()) return s;
  frame.dirty = false;
  ++stats_.writebacks;
  return util::Status::Ok();
}

BufferPoolStats BufferPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t BufferPool::num_frames() const {
  std::lock_guard<std::mutex> lock(mu_);
  return frames_.size();
}

std::size_t BufferPool::clock_ring_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return clock_.size();
}

std::size_t BufferPool::pinned_frames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& [id, frame] : frames_) n += frame.pins > 0 ? 1 : 0;
  return n;
}

}  // namespace modb::storage
