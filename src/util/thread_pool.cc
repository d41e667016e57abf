#include "util/thread_pool.h"

#include <chrono>
#include <thread>

namespace modb::util {

namespace {

// How long a worker that has just run work, or a caller waiting for
// indices still in flight, spins before it parks. Long enough to bridge
// the gap between one client's back-to-back fan-outs, short enough that
// an idle pool costs no measurable CPU. Workers fresh from thread start
// or from a wake-up that found no work park at once.
constexpr std::chrono::microseconds kStayAwake{50};

constexpr std::uint64_t kIndexMask = 0xffffffffu;

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

// Spins until `ready()` holds or kStayAwake has passed; returns whether it
// holds. Every 16th turn yields the core instead of pausing, so on a host
// with more runnable threads than cores a spinner lets a waiting client
// thread run rather than burning its slice.
template <typename Ready>
bool SpinFor(const Ready& ready) {
  const auto deadline = std::chrono::steady_clock::now() + kStayAwake;
  for (unsigned i = 1;; ++i) {
    if (ready()) return true;
    if (i % 16 != 0) {
      CpuRelax();
      continue;
    }
    if (std::chrono::steady_clock::now() >= deadline) return ready();
    std::this_thread::yield();
  }
}

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  threads_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_.store(true, std::memory_order_relaxed);
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::WorkerLoop() {
  std::uint64_t seen = 0;  // the last epoch this worker claimed from
  bool ran = false;
  const auto published = [&] {
    return epoch_.load(std::memory_order_acquire) != seen ||
           stopping_.load(std::memory_order_relaxed);
  };
  for (;;) {
    // Only a worker that has just run work stays awake for the next job.
    const bool awake = ran && SpinFor(published);
    if (!awake) {
      std::unique_lock<std::mutex> lock(mu_);
      ++sleepers_;
      work_cv_.wait(lock, published);
      --sleepers_;
    }
    if (stopping_.load(std::memory_order_relaxed)) return;
    seen = epoch_.load(std::memory_order_acquire);
    ran = RunClaims() > 0;
  }
}

std::size_t ThreadPool::RunClaims() {
  std::size_t ran = 0;
  std::uint64_t size = 0;
  for (;;) {
    const std::uint64_t word = claim_.fetch_add(1, std::memory_order_acq_rel);
    size = word >> 32;
    const std::uint64_t i = word & kIndexMask;
    if (i >= size) break;
    (*fn_)(static_cast<std::size_t>(i));
    ++ran;
  }
  // Every claim above came from one job: it cannot finish, and no other
  // job can be published, before this thread's count lands in done_.
  if (ran > 0 &&
      done_.fetch_add(ran, std::memory_order_acq_rel) + ran == size) {
    std::lock_guard<std::mutex> lock(mu_);
    if (caller_parked_) done_cv_.notify_one();
  }
  return ran;
}

void ThreadPool::ParallelFor(std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  // A job's size must fit the claim word's high half. The exchange comes
  // last, so only a call that will publish takes the slot.
  if (threads_.empty() || n == 1 || n > kIndexMask ||
      busy_.exchange(true, std::memory_order_acquire)) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  fn_ = &fn;
  done_.store(0, std::memory_order_relaxed);
  claim_.store(static_cast<std::uint64_t>(n) << 32,
               std::memory_order_release);
  bool wake = false;
  {
    // Publishing under mu_ orders it against a worker's park predicate: a
    // worker either sees the new epoch or is already counted in sleepers_.
    std::lock_guard<std::mutex> lock(mu_);
    epoch_.store(epoch_.load(std::memory_order_relaxed) + 1,
                 std::memory_order_release);
    wake = sleepers_ > 0;
  }
  if (wake) work_cv_.notify_all();

  RunClaims();  // the caller claims indices too
  const auto finished = [&] {
    return done_.load(std::memory_order_acquire) == n;
  };
  if (!SpinFor(finished)) {
    std::unique_lock<std::mutex> lock(mu_);
    caller_parked_ = true;
    done_cv_.wait(lock, finished);
    caller_parked_ = false;
  }
  busy_.store(false, std::memory_order_release);
}

}  // namespace modb::util
