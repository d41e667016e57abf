#include "db/shard_supervisor.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace modb::db {

namespace {

std::int64_t ElapsedMicros(std::chrono::steady_clock::time_point since,
                           std::chrono::steady_clock::time_point now) {
  return std::chrono::duration_cast<std::chrono::microseconds>(now - since)
      .count();
}

}  // namespace

std::string_view ShardHealthName(ShardHealth health) {
  switch (health) {
    case ShardHealth::kHealthy:
      return "healthy";
    case ShardHealth::kDegraded:
      return "degraded";
    case ShardHealth::kQuarantined:
      return "quarantined";
    case ShardHealth::kRecovering:
      return "recovering";
  }
  return "unknown";
}

ShardSupervisor::ShardSupervisor(std::size_t num_shards,
                                 ShardSupervisorOptions options,
                                 util::MetricsRegistry* metrics)
    : options_(options) {
  states_.reserve(num_shards);
  for (std::size_t i = 0; i < num_shards; ++i) {
    util::RetryPolicy::Options retry = options_.retry;
    retry.seed = options_.retry.seed + i;  // de-synchronise shard backoffs
    states_.push_back(std::make_unique<State>(retry));
  }
  if (metrics != nullptr) {
    quarantine_total_ = metrics->GetCounter("shard.quarantine_total");
    recoveries_ = metrics->GetCounter("shard.recoveries");
    recovery_failures_ = metrics->GetCounter("shard.recovery_failures");
    quarantined_now_ = metrics->GetGauge("shard.quarantined");
    quarantine_duration_ = metrics->GetLatency("shard.quarantine_duration");
    recovery_duration_ = metrics->GetLatency("shard.recovery_duration");
    for (std::size_t i = 0; i < num_shards; ++i) {
      char name[64];
      std::snprintf(name, sizeof(name), "sharded.shard%zu.state", i);
      states_[i]->state_gauge = metrics->GetGauge(name);
      states_[i]->state_gauge->Set(static_cast<std::int64_t>(
          ShardHealth::kHealthy));
    }
  }
}

ShardSupervisor::~ShardSupervisor() { Stop(); }

void ShardSupervisor::Start(RemediateFn remediate) {
  std::unique_lock<std::mutex> lock(mu_);
  remediate_ = std::move(remediate);
  if (options_.auto_remediate && !started_) {
    started_ = true;
    stop_ = false;
    loop_ = std::thread([this] { Loop(); });
  }
}

void ShardSupervisor::Stop() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!started_) return;
    stop_ = true;
  }
  wake_.notify_all();
  if (loop_.joinable()) loop_.join();
  std::unique_lock<std::mutex> lock(mu_);
  started_ = false;
}

void ShardSupervisor::SetHealth(State& state, ShardHealth health) {
  state.health.store(static_cast<int>(health), std::memory_order_relaxed);
  if (state.state_gauge != nullptr) {
    state.state_gauge->Set(static_cast<std::int64_t>(health));
  }
}

void ShardSupervisor::ReportFault(std::size_t shard,
                                  const util::Status& reason) {
  if (shard >= states_.size()) return;
  {
    std::unique_lock<std::mutex> lock(mu_);
    State& state = *states_[shard];
    const ShardHealth h = health(shard);
    if (h == ShardHealth::kQuarantined || h == ShardHealth::kRecovering) {
      return;  // keep the first fault as the quarantine reason
    }
    SetHealth(state, ShardHealth::kQuarantined);
    state.reason = reason;
    state.quarantined_at = std::chrono::steady_clock::now();
    state.retry.Reset();
    state.next_attempt = state.quarantined_at +
                         std::chrono::milliseconds(state.retry.NextDelayMs());
    if (quarantine_total_ != nullptr) quarantine_total_->Increment();
    if (quarantined_now_ != nullptr) quarantined_now_->Add(1);
  }
  wake_.notify_all();
}

void ShardSupervisor::ReportDegraded(std::size_t shard,
                                     const util::Status& reason) {
  if (shard >= states_.size()) return;
  std::unique_lock<std::mutex> lock(mu_);
  State& state = *states_[shard];
  if (health(shard) != ShardHealth::kHealthy) return;
  SetHealth(state, ShardHealth::kDegraded);
  state.reason = reason;
}

void ShardSupervisor::ClearDegraded(std::size_t shard) {
  if (shard >= states_.size()) return;
  std::unique_lock<std::mutex> lock(mu_);
  State& state = *states_[shard];
  if (health(shard) != ShardHealth::kDegraded) return;
  SetHealth(state, ShardHealth::kHealthy);
  state.reason = util::Status::Ok();
}

util::Status ShardSupervisor::UnavailableStatus(std::size_t shard) const {
  std::unique_lock<std::mutex> lock(mu_);
  const State& state = *states_[shard];
  const auto now = std::chrono::steady_clock::now();
  std::int64_t retry_after_ms = 0;
  if (state.next_attempt > now) {
    retry_after_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                         state.next_attempt - now)
                         .count();
  }
  std::string msg = "shard " + std::to_string(shard) + " quarantined (" +
                    state.reason.message() +
                    "); retry_after_ms=" + std::to_string(retry_after_ms);
  return util::Status::Unavailable(std::move(msg));
}

util::Status ShardSupervisor::reason(std::size_t shard) const {
  std::unique_lock<std::mutex> lock(mu_);
  return states_[shard]->reason;
}

util::Status ShardSupervisor::TryRecoverShard(std::size_t shard) {
  if (shard >= states_.size()) {
    return util::Status::FailedPrecondition("no shard " +
                                            std::to_string(shard));
  }
  std::unique_lock<std::mutex> lock(mu_);
  return RecoverLocked(shard, lock);
}

util::Status ShardSupervisor::RecoverLocked(
    std::size_t shard, std::unique_lock<std::mutex>& lock) {
  State& state = *states_[shard];
  if (health(shard) != ShardHealth::kQuarantined) {
    return util::Status::FailedPrecondition(
        "shard " + std::to_string(shard) + " is " +
        std::string(ShardHealthName(health(shard))) + ", not quarantined");
  }
  if (!remediate_) {
    return util::Status::FailedPrecondition("no remediator installed");
  }
  SetHealth(state, ShardHealth::kRecovering);
  RemediateFn remediate = remediate_;
  lock.unlock();

  const auto attempt_start = std::chrono::steady_clock::now();
  util::Status status = remediate(shard);
  const auto attempt_end = std::chrono::steady_clock::now();

  lock.lock();
  if (status.ok()) {
    SetHealth(state, ShardHealth::kHealthy);
    state.reason = util::Status::Ok();
    state.retry.Reset();
    if (recoveries_ != nullptr) recoveries_->Increment();
    if (quarantined_now_ != nullptr) quarantined_now_->Add(-1);
    if (recovery_duration_ != nullptr) {
      recovery_duration_->RecordNanos(
          ElapsedMicros(attempt_start, attempt_end) * 1000);
    }
    if (quarantine_duration_ != nullptr) {
      quarantine_duration_->RecordNanos(
          ElapsedMicros(state.quarantined_at, attempt_end) * 1000);
    }
    all_up_.notify_all();
  } else {
    SetHealth(state, ShardHealth::kQuarantined);
    // Keep the original fault as the reason; the failed attempt only
    // re-arms the backoff.
    state.next_attempt =
        attempt_end + std::chrono::milliseconds(state.retry.NextDelayMs());
    if (recovery_failures_ != nullptr) recovery_failures_->Increment();
    // The loop may be waiting with no attempt due (this one ran on a
    // caller's thread): wake it to re-arm.
    wake_.notify_all();
  }
  return status;
}

std::vector<std::size_t> ShardSupervisor::UnavailableShards() const {
  std::vector<std::size_t> down;
  for (std::size_t i = 0; i < states_.size(); ++i) {
    if (!readable(i)) down.push_back(i);
  }
  return down;
}

std::size_t ShardSupervisor::num_unavailable() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < states_.size(); ++i) {
    if (!readable(i)) ++n;
  }
  return n;
}

bool ShardSupervisor::AwaitAllAvailable(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  std::unique_lock<std::mutex> lock(mu_);
  return all_up_.wait_until(lock, deadline,
                            [this] { return num_unavailable() == 0; });
}

void ShardSupervisor::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    // Earliest due attempt among quarantined shards, if any.
    bool have_due = false;
    std::chrono::steady_clock::time_point next{};
    for (const auto& state : states_) {
      if (static_cast<ShardHealth>(state->health.load(
              std::memory_order_relaxed)) != ShardHealth::kQuarantined) {
        continue;
      }
      if (!have_due || state->next_attempt < next) {
        have_due = true;
        next = state->next_attempt;
      }
    }
    if (!have_due) {
      // Every change that arms an attempt notifies `wake_`: a fault, and a
      // failed attempt made by `TryRecoverShard` on another thread.
      wake_.wait(lock);
      continue;
    }
    const auto now = std::chrono::steady_clock::now();
    if (next > now) {
      wake_.wait_until(lock, next);
      continue;  // re-scan: faults/stop may have arrived while waiting
    }
    for (std::size_t i = 0; i < states_.size() && !stop_; ++i) {
      State& state = *states_[i];
      if (static_cast<ShardHealth>(state.health.load(
              std::memory_order_relaxed)) != ShardHealth::kQuarantined) {
        continue;
      }
      if (state.next_attempt > std::chrono::steady_clock::now()) continue;
      // Outcome is recorded in the state machine + metrics; nothing to
      // propagate from the background loop.
      (void)RecoverLocked(i, lock);
    }
  }
}

}  // namespace modb::db
