#ifndef MODB_UTIL_RETRY_H_
#define MODB_UTIL_RETRY_H_

#include <cstdint>

#include "util/rng.h"

namespace modb::util {

/// Capped exponential backoff with deterministic, seeded jitter.
///
/// The shard supervisor uses one policy instance per shard to pace
/// re-recovery attempts: the first retry waits `initial_delay_ms`, each
/// further attempt doubles it up to `max_delay_ms`, and
/// every delay is jittered by up to `jitter_fraction` of itself so a fleet
/// of quarantined shards does not re-recover in lockstep. Jitter draws from
/// a seeded xoshiro stream, so a given (seed, attempt) pair always yields
/// the same delay — tests and the E18 chaos schedule are reproducible
/// bit-for-bit.
class RetryPolicy {
 public:
  struct Options {
    /// Delay before the first retry.
    std::uint64_t initial_delay_ms = 10;
    /// Upper bound any single delay is clamped to (pre-jitter).
    std::uint64_t max_delay_ms = 5000;
    /// Each delay is scaled by a factor drawn uniformly from
    /// [1 - jitter_fraction, 1 + jitter_fraction], clamped to [0, 1].
    double jitter_fraction = 0.2;
    /// Seed for the jitter stream.
    std::uint64_t seed = 7;
  };

  RetryPolicy() : RetryPolicy(Options()) {}
  explicit RetryPolicy(Options options);

  /// Delay (ms) to wait before the next attempt, then advances the attempt
  /// counter. The first call returns ~initial_delay_ms.
  std::uint64_t NextDelayMs();

  /// Attempts consumed so far (number of `NextDelayMs` calls).
  std::uint64_t attempts() const { return attempts_; }

  /// Resets the attempt counter and jitter stream, as after a successful
  /// recovery re-admits the shard.
  void Reset();

  const Options& options() const { return options_; }

 private:
  std::uint64_t JitteredDelay(std::uint64_t attempt);

  Options options_;
  Rng rng_;
  std::uint64_t attempts_ = 0;
};

}  // namespace modb::util

#endif  // MODB_UTIL_RETRY_H_
