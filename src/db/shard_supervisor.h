#ifndef MODB_DB_SHARD_SUPERVISOR_H_
#define MODB_DB_SHARD_SUPERVISOR_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "util/metrics.h"
#include "util/retry.h"
#include "util/status.h"

namespace modb::db {

/// Health of one failure domain (= one shard of `ShardedModDatabase`).
///
///   healthy ──fault──▶ quarantined ──attempt──▶ recovering ──ok──▶ healthy
///      │                    ▲                        │
///      ▼                    └────────── fail ────────┘
///   degraded ──fault──▶ (quarantined)
///
/// `degraded` is the soft tier: the shard still serves reads and writes but
/// lost something an operator should know about (durability bootstrap
/// failed, a checkpoint failed, recovery was unclean). `quarantined` is the
/// hard tier: writes are rejected with `Unavailable`, reads exclude the
/// shard (answers turn partial), and the remediation loop owns it until a
/// re-recovery succeeds.
enum class ShardHealth : int {
  kHealthy = 0,
  kDegraded = 1,
  kQuarantined = 2,
  kRecovering = 3,
};

/// Canonical lowercase name ("healthy", "degraded", ...).
std::string_view ShardHealthName(ShardHealth health);

/// Knobs of the shard supervisor.
struct ShardSupervisorOptions {
  /// Run the background remediation loop. Off = quarantined shards stay
  /// down until `TryRecoverShard` is called explicitly (tests do this to
  /// step the state machine deterministically).
  bool auto_remediate = true;
  /// Backoff between re-recovery attempts of one shard. Each shard gets
  /// its own policy instance seeded with `retry.seed + shard`, so a fleet
  /// of quarantined shards spreads its attempts (jitter) yet every run
  /// with the same seed retries at identical offsets.
  util::RetryPolicy::Options retry;
};

/// Per-shard health state machine + background re-recovery driver.
///
/// The supervisor owns *when* a shard is retried; *how* a shard recovers is
/// the owner's business, injected as the `RemediateFn` callback (for
/// `ShardedModDatabase`: reopen the poisoned WAL or replay the epoch chain
/// into a fresh store, under the shard's exclusive lock). The callback runs
/// on the supervisor thread with no supervisor lock held, so it may block
/// on shard locks freely.
///
/// Health reads are lock-free (one relaxed atomic per shard) — they sit on
/// every query/write path. Transitions take the supervisor mutex.
///
/// Observability: per-shard `sharded.shard<k>.state` gauges (numeric
/// `ShardHealth`), `shard.quarantine_total` / `shard.recoveries` /
/// `shard.recovery_failures` counters, and `shard.quarantine_duration` /
/// `shard.recovery_duration` histograms (µs; quarantine duration is
/// fault-to-readmission wall time).
class ShardSupervisor {
 public:
  /// One re-recovery attempt for `shard`; OK re-admits the shard.
  using RemediateFn = std::function<util::Status(std::size_t shard)>;

  ShardSupervisor(std::size_t num_shards, ShardSupervisorOptions options,
                  util::MetricsRegistry* metrics);
  ~ShardSupervisor();
  ShardSupervisor(const ShardSupervisor&) = delete;
  ShardSupervisor& operator=(const ShardSupervisor&) = delete;

  /// Installs the remediation callback and, when `auto_remediate` is on,
  /// starts the background loop. Call once, after the owner is ready to
  /// take callbacks.
  void Start(RemediateFn remediate);

  /// Stops the background loop (idempotent; the destructor calls it). Any
  /// in-flight remediation attempt finishes first.
  void Stop();

  std::size_t num_shards() const { return states_.size(); }

  ShardHealth health(std::size_t shard) const {
    return static_cast<ShardHealth>(
        states_[shard]->health.load(std::memory_order_relaxed));
  }
  /// Quarantined and recovering shards reject writes...
  bool writable(std::size_t shard) const {
    const ShardHealth h = health(shard);
    return h == ShardHealth::kHealthy || h == ShardHealth::kDegraded;
  }
  /// ...and are excluded from read fan-outs (their store may be mid-swap;
  /// excluding them is what makes the partial answers honest).
  bool readable(std::size_t shard) const { return writable(shard); }

  /// Hard fault: healthy/degraded → quarantined (recorded reason, backoff
  /// armed, loop woken). Already-down shards keep their first reason.
  void ReportFault(std::size_t shard, const util::Status& reason);

  /// Soft fault: healthy → degraded. No-op on any other state.
  void ReportDegraded(std::size_t shard, const util::Status& reason);

  /// Degraded → healthy (e.g. the next checkpoint succeeded). No-op on
  /// any other state.
  void ClearDegraded(std::size_t shard);

  /// The typed rejection a caller writing to a quarantined shard gets:
  /// `kUnavailable`, naming the shard, the quarantine reason, and a
  /// `retry_after_ms=<n>` hint (time until the supervisor's own next
  /// attempt — retrying sooner cannot succeed).
  util::Status UnavailableStatus(std::size_t shard) const;

  /// First fault that took the shard down (OK when healthy/degraded-only).
  util::Status reason(std::size_t shard) const;

  /// One remediation attempt, now, on the caller's thread. OK re-admits
  /// the shard; a failure re-arms the backoff. FailedPrecondition when the
  /// shard is not quarantined (healthy shards have nothing to recover;
  /// a concurrent attempt is already running when recovering).
  util::Status TryRecoverShard(std::size_t shard);

  /// Quarantined + recovering shards, ascending — the excluded-shard set
  /// a partial answer reports.
  std::vector<std::size_t> UnavailableShards() const;
  std::size_t num_unavailable() const;

  /// Blocks until no shard is quarantined/recovering, or `timeout` runs
  /// out. True on all-healthy. (Tests and the E18 driver poll with this.)
  bool AwaitAllAvailable(std::chrono::milliseconds timeout);

  const ShardSupervisorOptions& options() const { return options_; }

 private:
  struct State {
    std::atomic<int> health{static_cast<int>(ShardHealth::kHealthy)};
    util::Status reason;  // first fault; OK while up
    util::RetryPolicy retry;
    std::chrono::steady_clock::time_point next_attempt{};
    std::chrono::steady_clock::time_point quarantined_at{};
    util::Gauge* state_gauge = nullptr;

    explicit State(util::RetryPolicy::Options retry_options)
        : retry(retry_options) {}
  };

  void SetHealth(State& state, ShardHealth health);
  void Loop();
  /// The locked core of `TryRecoverShard`; `lock` is held on entry/exit
  /// but released around the remediation callback.
  util::Status RecoverLocked(std::size_t shard,
                             std::unique_lock<std::mutex>& lock);

  ShardSupervisorOptions options_;
  std::vector<std::unique_ptr<State>> states_;
  RemediateFn remediate_;

  mutable std::mutex mu_;
  std::condition_variable wake_;      // remediation loop
  std::condition_variable all_up_;    // AwaitAllAvailable waiters
  bool stop_ = false;
  bool started_ = false;
  std::thread loop_;

  // Shared instruments (may all be null when no registry was given).
  util::Counter* quarantine_total_ = nullptr;
  util::Counter* recoveries_ = nullptr;
  util::Counter* recovery_failures_ = nullptr;
  util::Gauge* quarantined_now_ = nullptr;
  util::LatencyHistogram* quarantine_duration_ = nullptr;
  util::LatencyHistogram* recovery_duration_ = nullptr;
};

}  // namespace modb::db

#endif  // MODB_DB_SHARD_SUPERVISOR_H_
