#ifndef MODB_UTIL_THREAD_POOL_H_
#define MODB_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace modb::util {

/// Fixed-size pool of worker threads that share one published job.
///
/// Built for the sharded database's query fan-out: `ParallelFor` spreads a
/// loop over the workers *and* the calling thread, so a pool of size 0 is a
/// valid configuration that simply runs everything inline (the right choice
/// on single-core hosts, where fan-out threads only add context switches).
///
/// A worker that has just run part of a job stays awake for a short fixed
/// window (about 50 µs), so back-to-back fan-outs reach it without a
/// wake-up; after the window it parks on a condition variable. While awake
/// it spins with `pause` and yields the core every few turns, so it does
/// not starve client threads on an oversubscribed host. A publisher
/// signals only parked workers, so a fan-out to awake workers makes no
/// syscall, and an idle pool burns no CPU.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (0 is allowed; all work then runs on the
  /// caller inside `ParallelFor`).
  explicit ThreadPool(std::size_t num_threads);

  /// Joins the workers. Must not run concurrently with `ParallelFor`.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return threads_.size(); }

  /// Runs `fn(0) ... fn(n-1)`, distributing indices over the workers and
  /// the calling thread, and blocks until all `n` calls have returned.
  /// Indices are claimed one at a time from a shared counter, so the
  /// per-call work may be uneven. The pool holds one job at a time: a call
  /// that finds it taken (a concurrent caller, or a nested call from inside
  /// `fn`) runs its whole loop on the calling thread, so nested loops
  /// cannot deadlock. `fn` must be safe to invoke concurrently from
  /// multiple threads, and must not throw.
  void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void WorkerLoop();
  /// Claims and runs indices of the published job until none are left;
  /// returns how many this thread ran.
  std::size_t RunClaims();

  // The published job. `claim_` packs the job's size (high 32 bits) with
  // its next unclaimed index (low 32 bits), so one fetch_add both claims an
  // index and tells the claimer whether it is in range. A claim below the
  // size keeps the job (and `fn_`) alive until its completion is counted
  // in `done_`.
  alignas(64) std::atomic<std::uint64_t> claim_{0};
  const std::function<void(std::size_t)>* fn_ = nullptr;
  alignas(64) std::atomic<std::size_t> done_{0};
  // Bumped once per published job; written only by publishers (under
  // mu_), read by spinning and parking workers.
  alignas(64) std::atomic<std::uint64_t> epoch_{0};
  // Held by the caller whose job is published.
  std::atomic<bool> busy_{false};

  std::mutex mu_;
  // Guarded by mu_.
  std::size_t sleepers_ = 0;
  bool caller_parked_ = false;
  std::atomic<bool> stopping_{false};  // written under mu_
  std::condition_variable work_cv_;    // workers park here
  std::condition_variable done_cv_;    // the publishing caller parks here

  // Declared last: the workers use every member above.
  std::vector<std::thread> threads_;
};

}  // namespace modb::util

#endif  // MODB_UTIL_THREAD_POOL_H_
