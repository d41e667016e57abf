#include "util/fault_injection.h"

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <utility>

namespace modb::util {

namespace {

/// Buffered stdio file; `Sync` reaches the platters (well, fsync).
class StdioWritableFile : public WritableFile {
 public:
  explicit StdioWritableFile(std::FILE* file) : file_(file) {}
  ~StdioWritableFile() override {
    if (file_ != nullptr) std::fclose(file_);
  }

  Status Append(std::string_view data) override {
    if (file_ == nullptr) return Status::FailedPrecondition("file closed");
    if (std::fwrite(data.data(), 1, data.size(), file_) != data.size()) {
      return Status::Internal("write failed");
    }
    return Status::Ok();
  }

  Status Sync() override {
    if (file_ == nullptr) return Status::FailedPrecondition("file closed");
    if (std::fflush(file_) != 0) return Status::Internal("fflush failed");
    if (::fsync(::fileno(file_)) != 0) return Status::Internal("fsync failed");
    return Status::Ok();
  }

  Status Close() override {
    if (file_ == nullptr) return Status::Ok();
    const int rc = std::fclose(file_);
    file_ = nullptr;
    return rc == 0 ? Status::Ok() : Status::Internal("close failed");
  }

 private:
  std::FILE* file_;
};

}  // namespace

WritableFileFactory DefaultWritableFileFactory() {
  return [](const std::string& path) -> Result<std::unique_ptr<WritableFile>> {
    std::FILE* file = std::fopen(path.c_str(), "wb");
    if (file == nullptr) return Status::NotFound("cannot open " + path);
    return std::unique_ptr<WritableFile>(
        std::make_unique<StdioWritableFile>(file));
  };
}

FileReader DefaultFileReader() {
  return [](const std::string& path) -> Result<std::string> {
    std::ifstream file(path, std::ios::binary);
    if (!file) return Status::NotFound("cannot open " + path);
    std::string data((std::istreambuf_iterator<char>(file)),
                     std::istreambuf_iterator<char>());
    return data;
  };
}

/// Wraps one base file; all fault state lives in the owning injector so the
/// plan's byte offsets span file rotations. Every operation holds the
/// injector mutex — parallel shard recovery funnels many files through one
/// injector.
class FaultInjector::File : public WritableFile {
 public:
  File(FaultInjector* injector, std::string path,
       std::unique_ptr<WritableFile> base)
      : injector_(injector), path_(std::move(path)), base_(std::move(base)) {}

  Status Append(std::string_view data) override {
    FaultInjector& inj = *injector_;
    std::lock_guard<std::mutex> lock(inj.mu_);
    if (inj.crashed_) return Status::Internal("injected crash");
    if (InWindow(inj.appends_++, inj.plan_.fail_appends_after,
                 inj.plan_.fail_appends_count)) {
      ++inj.injected_append_faults_;
      return Status::Internal("injected append failure on " + path_);
    }

    std::string buffered(data);
    if (inj.plan_.bit_flip_probability > 0.0) {
      for (char& c : buffered) {
        if (inj.rng_.Bernoulli(inj.plan_.bit_flip_probability)) {
          c = static_cast<char>(
              static_cast<std::uint8_t>(c) ^
              static_cast<std::uint8_t>(1u << inj.rng_.UniformInt(0, 7)));
          ++inj.bits_flipped_;
        }
      }
    }

    std::string_view to_write = buffered;
    const std::uint64_t budget =
        inj.plan_.crash_after_bytes == FaultPlan::kNever
            ? FaultPlan::kNever
            : inj.plan_.crash_after_bytes - inj.bytes_written_;
    const bool crash_now = to_write.size() > budget;
    if (crash_now) to_write = to_write.substr(0, budget);

    const Status s = base_->Append(to_write);
    if (s.ok()) {
      inj.bytes_written_ += to_write.size();
      file_bytes_ += to_write.size();
    }
    if (crash_now) {
      inj.crashed_ = true;
      // A torn write is on disk; make it visible the way a real crash
      // would (the page cache does not outlive the machine).
      (void)base_->Close();
      if (inj.plan_.lose_unsynced_on_crash) {
        // The unsynced tail of this file never reached the platters.
        (void)TruncateFile(path_, synced_bytes_);
      }
      return Status::Internal("injected crash (torn write)");
    }
    return s;
  }

  Status Sync() override {
    FaultInjector& inj = *injector_;
    std::lock_guard<std::mutex> lock(inj.mu_);
    if (inj.crashed_) return Status::Internal("injected crash");
    if (InWindow(inj.syncs_++, inj.plan_.fail_syncs_after,
                 inj.plan_.fail_syncs_count)) {
      ++inj.injected_sync_faults_;
      return Status::Internal("injected fsync failure on " + path_);
    }
    const Status s = base_->Sync();
    if (s.ok()) synced_bytes_ = file_bytes_;
    return s;
  }

  Status Close() override { return base_->Close(); }

 private:
  FaultInjector* injector_;
  std::string path_;
  std::unique_ptr<WritableFile> base_;
  std::uint64_t file_bytes_ = 0;    // appended to this file
  std::uint64_t synced_bytes_ = 0;  // file_bytes_ at the last good Sync
};

FaultInjector::FaultInjector(FaultPlan plan, WritableFileFactory base)
    : plan_(plan),
      base_(std::move(base)),
      base_reader_(DefaultFileReader()),
      rng_(plan.seed) {}

bool FaultInjector::InWindow(std::uint64_t n, std::uint64_t after,
                             std::uint64_t count) {
  if (after == FaultPlan::kNever || n < after) return false;
  return count == FaultPlan::kNever || n - after < count;
}

WritableFileFactory FaultInjector::factory() {
  return [this](const std::string& path)
             -> Result<std::unique_ptr<WritableFile>> {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (crashed_) return Status::Internal("injected crash");
      if (InWindow(opens_++, plan_.fail_opens_after, plan_.fail_opens_count)) {
        ++injected_open_faults_;
        return Status::Internal("injected open failure on " + path);
      }
    }
    auto base = base_(path);
    if (!base.ok()) return base.status();
    return std::unique_ptr<WritableFile>(
        std::make_unique<File>(this, path, std::move(*base)));
  };
}

FileReader FaultInjector::reader() {
  return [this](const std::string& path) -> Result<std::string> {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (InWindow(reads_++, plan_.fail_reads_after, plan_.fail_reads_count)) {
        ++injected_read_faults_;
        return Status::Internal("injected read failure on " + path);
      }
    }
    return base_reader_(path);
  };
}

WriteHook FaultInjector::write_hook() {
  return [this](const std::string& path) -> Status {
    std::lock_guard<std::mutex> lock(mu_);
    if (crashed_) return Status::Internal("injected crash");
    if (InWindow(appends_++, plan_.fail_appends_after,
                 plan_.fail_appends_count)) {
      ++injected_append_faults_;
      return Status::Internal("injected write failure on " + path);
    }
    return Status::Ok();
  };
}

Status TruncateFile(const std::string& path, std::uint64_t new_size) {
  std::error_code ec;
  std::filesystem::resize_file(path, new_size, ec);
  if (ec) return Status::NotFound("truncate " + path + ": " + ec.message());
  return Status::Ok();
}

Status FlipFileByte(const std::string& path, std::uint64_t offset,
                    std::uint8_t mask) {
  if (mask == 0) mask = 0xff;
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  if (!file) return Status::NotFound("cannot open " + path);
  file.seekg(static_cast<std::streamoff>(offset));
  const int byte = file.get();
  if (byte == EOF) return Status::OutOfRange("offset past end of " + path);
  file.seekp(static_cast<std::streamoff>(offset));
  file.put(static_cast<char>(static_cast<std::uint8_t>(byte) ^ mask));
  file.flush();
  if (!file) return Status::Internal("flip failed on " + path);
  return Status::Ok();
}

Result<std::uint64_t> FileSize(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) return Status::NotFound("stat " + path + ": " + ec.message());
  return static_cast<std::uint64_t>(size);
}

}  // namespace modb::util
