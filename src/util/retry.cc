#include "util/retry.h"

#include <algorithm>
#include <cmath>

namespace modb::util {

RetryPolicy::RetryPolicy(Options options)
    : options_(options), rng_(options.seed) {}

std::uint64_t RetryPolicy::JitteredDelay(std::uint64_t attempt) {
  double delay = static_cast<double>(options_.initial_delay_ms) *
                 std::pow(2.0, static_cast<double>(attempt));
  const double cap = static_cast<double>(options_.max_delay_ms);
  delay = std::min(delay, cap);
  const double jitter =
      std::clamp(options_.jitter_fraction, 0.0, 1.0);
  if (jitter > 0.0) {
    delay *= rng_.Uniform(1.0 - jitter, 1.0 + jitter);
  } else {
    // Keep the stream position identical whether or not jitter is on, so
    // flipping jitter_fraction never re-times later attempts.
    (void)rng_.Uniform();
  }
  delay = std::min(std::max(delay, 0.0),
                   cap * (1.0 + jitter));
  return static_cast<std::uint64_t>(std::llround(delay));
}

std::uint64_t RetryPolicy::NextDelayMs() {
  return JitteredDelay(attempts_++);
}

void RetryPolicy::Reset() {
  attempts_ = 0;
  rng_ = Rng(options_.seed);
}

}  // namespace modb::util
