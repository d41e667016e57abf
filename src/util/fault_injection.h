#ifndef MODB_UTIL_FAULT_INJECTION_H_
#define MODB_UTIL_FAULT_INJECTION_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "util/rng.h"
#include "util/status.h"

namespace modb::util {

/// Append-only file abstraction the durability layer writes through. The
/// indirection exists so tests can interpose seeded faults (torn writes,
/// bit rot, failing fsync) between the WAL and the disk — corruption paths
/// are exercised deterministically instead of hoped-for.
class WritableFile {
 public:
  virtual ~WritableFile() = default;

  /// Appends `data` at the end of the file.
  virtual Status Append(std::string_view data) = 0;

  /// Flushes buffered data to durable storage (fflush + fsync).
  virtual Status Sync() = 0;

  /// Flushes and closes. Idempotent; the destructor closes without sync.
  virtual Status Close() = 0;
};

/// Creates the `WritableFile` at `path`, truncating any existing file.
using WritableFileFactory =
    std::function<Result<std::unique_ptr<WritableFile>>(const std::string&)>;

/// The real thing: buffered stdio writes, fsync-backed `Sync`.
WritableFileFactory DefaultWritableFileFactory();

/// Reads the whole file at `path`. WAL replay (`ReplayWal`) reads through
/// this so chaos schedules can fail reads the same way they fail writes;
/// checkpoints load with `std::ifstream` and do not.
using FileReader = std::function<Result<std::string>(const std::string&)>;

/// The real thing: one binary read of the whole file.
FileReader DefaultFileReader();

/// Consulted before each write to the file at `path` that writes in place
/// rather than appending (the index page file); a non-OK status fails that
/// write before any byte reaches the file.
using WriteHook = std::function<Status(const std::string& path)>;

/// One deterministic fault scenario. Byte counts address the cumulative
/// stream written through a single `FaultInjector` (across file rotations),
/// so a plan can place a crash at any offset of a multi-segment log.
struct FaultPlan {
  static constexpr std::uint64_t kNever =
      std::numeric_limits<std::uint64_t>::max();

  /// Simulated power loss: the append that crosses this cumulative byte
  /// offset writes only the prefix up to it (a torn write), then every
  /// later operation on every file of the injector fails.
  std::uint64_t crash_after_bytes = kNever;
  /// The Nth and all later `Sync` calls fail (0 = every sync fails).
  std::uint64_t fail_syncs_after = kNever;
  /// Per-byte probability of flipping one (seeded) bit on its way to disk.
  double bit_flip_probability = 0.0;
  /// Seed for the bit-flip stream.
  std::uint64_t seed = 1;
  /// When the crash fires, bytes appended to the *current* file since its
  /// last successful `Sync` are truncated away — the page cache dies with
  /// the machine. Off (default): every appended byte up to the crash
  /// offset survives, modelling synced appends or lucky writeback. Group-
  /// commit tests need this on, or deferred fsyncs would look free.
  bool lose_unsynced_on_crash = false;

  /// Transient fault windows, the chaos-schedule vocabulary: each counts
  /// operations of its kind through the injector (0-based, across all
  /// files), and operations with index in `[after, after + count)` fail
  /// with an injected error while everything outside the window passes
  /// through. Unlike `crash_after_bytes`, nothing is sticky — the
  /// supervisor's remediation loop can succeed once the window closes.
  /// `kNever` in an `after` field disables that window.
  std::uint64_t fail_appends_after = kNever;
  std::uint64_t fail_appends_count = 1;
  std::uint64_t fail_opens_after = kNever;
  std::uint64_t fail_opens_count = 1;
  std::uint64_t fail_reads_after = kNever;
  std::uint64_t fail_reads_count = 1;
  /// Width of the sync-failure window opened by `fail_syncs_after`.
  /// `kNever` (the default) keeps the historical sticky semantics: the
  /// Nth and every later sync fails.
  std::uint64_t fail_syncs_count = kNever;
};

/// Factory + shared fault state: every `WritableFile` created through
/// `factory()` draws from the same plan and the same cumulative byte
/// counter. Must outlive the files it creates. Thread-safe: the shared
/// state is mutex-guarded so one injector can back every shard of a
/// database recovered or checkpointed in parallel.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan,
                         WritableFileFactory base = DefaultWritableFileFactory());

  /// Factory handing out fault-wrapped files (capturing `this`).
  WritableFileFactory factory();

  /// Reader injecting the plan's read faults (capturing `this`).
  FileReader reader();

  /// Write hook drawing from the plan's append-fault window: each call
  /// counts as one append, and a call inside the window (or after the
  /// crash) fails (capturing `this`).
  WriteHook write_hook();

  /// True once the planned crash fired; all subsequent writes fail.
  bool crashed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return crashed_;
  }
  std::uint64_t bytes_written() const {
    std::lock_guard<std::mutex> lock(mu_);
    return bytes_written_;
  }
  std::uint64_t bits_flipped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return bits_flipped_;
  }
  std::uint64_t syncs_attempted() const {
    std::lock_guard<std::mutex> lock(mu_);
    return syncs_;
  }
  std::uint64_t appends_attempted() const {
    std::lock_guard<std::mutex> lock(mu_);
    return appends_;
  }
  std::uint64_t opens_attempted() const {
    std::lock_guard<std::mutex> lock(mu_);
    return opens_;
  }
  std::uint64_t reads_attempted() const {
    std::lock_guard<std::mutex> lock(mu_);
    return reads_;
  }

  /// Faults actually injected, per kind — tests assert the plan fired
  /// (a window placed past the workload's operation count silently never
  /// fires; these make that a test failure instead of a vacuous pass).
  std::uint64_t injected_append_faults() const {
    std::lock_guard<std::mutex> lock(mu_);
    return injected_append_faults_;
  }
  std::uint64_t injected_open_faults() const {
    std::lock_guard<std::mutex> lock(mu_);
    return injected_open_faults_;
  }
  std::uint64_t injected_sync_faults() const {
    std::lock_guard<std::mutex> lock(mu_);
    return injected_sync_faults_;
  }
  std::uint64_t injected_read_faults() const {
    std::lock_guard<std::mutex> lock(mu_);
    return injected_read_faults_;
  }
  /// Total injected faults of every kind (crash excluded).
  std::uint64_t injected_faults() const {
    std::lock_guard<std::mutex> lock(mu_);
    return injected_append_faults_ + injected_open_faults_ +
           injected_sync_faults_ + injected_read_faults_;
  }

 private:
  class File;

  /// True when 0-based operation index `n` falls in `[after, after+count)`.
  static bool InWindow(std::uint64_t n, std::uint64_t after,
                       std::uint64_t count);

  mutable std::mutex mu_;
  FaultPlan plan_;
  WritableFileFactory base_;
  FileReader base_reader_;
  Rng rng_;
  bool crashed_ = false;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t bits_flipped_ = 0;
  std::uint64_t syncs_ = 0;
  std::uint64_t appends_ = 0;
  std::uint64_t opens_ = 0;
  std::uint64_t reads_ = 0;
  std::uint64_t injected_append_faults_ = 0;
  std::uint64_t injected_open_faults_ = 0;
  std::uint64_t injected_sync_faults_ = 0;
  std::uint64_t injected_read_faults_ = 0;
};

/// Post-hoc corruption helpers for closed files (simulating bit rot and
/// short reads discovered at recovery time).
/// Truncates the file at `path` to `new_size` bytes (<= current size).
Status TruncateFile(const std::string& path, std::uint64_t new_size);
/// XORs the byte at `offset` with `mask` (mask 0 is promoted to 0xff).
Status FlipFileByte(const std::string& path, std::uint64_t offset,
                    std::uint8_t mask = 0xff);
/// Size of the file at `path` in bytes.
Result<std::uint64_t> FileSize(const std::string& path);

}  // namespace modb::util

#endif  // MODB_UTIL_FAULT_INJECTION_H_
