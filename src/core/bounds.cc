#include "core/bounds.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/thresholds.h"

namespace modb::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// min{ sqrt(2 * rate * C), rate * t } with clamping for degenerate inputs.
double SqrtStyleBound(double rate, double C, double t) {
  if (rate <= 0.0 || t <= 0.0) return 0.0;
  return std::min(std::sqrt(2.0 * rate * C), rate * t);
}

// min{ 2C / t, rate * t }.
double HyperbolaStyleBound(double rate, double C, double t) {
  if (rate <= 0.0 || t <= 0.0) return 0.0;
  return std::min(2.0 * C / t, rate * t);
}

// The fast-deviation growth rate is V - v; a database speed above the
// declared maximum (possible if V was configured too low) clamps to 0.
double FastRate(double V, double v) { return std::max(V - v, 0.0); }

}  // namespace

double DlSlowBound(double v, double C, double t) {
  return SqrtStyleBound(v, C, t);
}

double DlFastBound(double V, double v, double C, double t) {
  return SqrtStyleBound(FastRate(V, v), C, t);
}

double DlBound(double V, double v, double C, double t) {
  const double D = std::max(v, FastRate(V, v));
  return SqrtStyleBound(D, C, t);
}

double IlSlowBound(double v, double C, double t) {
  return HyperbolaStyleBound(v, C, t);
}

double IlFastBound(double V, double v, double C, double t) {
  return HyperbolaStyleBound(FastRate(V, v), C, t);
}

double IlBound(double V, double v, double C, double t) {
  const double D = std::max(v, FastRate(V, v));
  return HyperbolaStyleBound(D, C, t);
}

double IlSlowBoundPeakTime(double v, double C) {
  if (v <= 0.0) return kInf;
  return std::sqrt(2.0 * C / v);
}

double IlFastBoundPeakTime(double V, double v, double C) {
  const double rate = FastRate(V, v);
  if (rate <= 0.0) return kInf;
  return std::sqrt(2.0 * C / rate);
}

double SlowDeviationBound(const PositionAttribute& attr, Duration t) {
  const double v = attr.speed;
  const double C = attr.update_cost;
  switch (attr.policy) {
    case PolicyKind::kDelayedLinear:
      return DlSlowBound(v, C, t);
    case PolicyKind::kAverageImmediateLinear:
    case PolicyKind::kCurrentImmediateLinear:
      return IlSlowBound(v, C, t);
    case PolicyKind::kHybridAdaptive:
      // The hybrid switches between dl and ail; the dl bound dominates the
      // ail bound for all t, so it is safe whichever mode is active.
      return DlSlowBound(v, C, t);
    case PolicyKind::kFixedThreshold:
      return std::min(attr.fixed_threshold, v > 0.0 ? v * std::max(t, 0.0)
                                                    : 0.0);
    case PolicyKind::kPeriodic:
      // The database position is static (speed 0): the object can only be
      // ahead of it, never behind.
      return 0.0;
    case PolicyKind::kStepThreshold:
      return StepThresholdBound(v, attr.step_threshold, C, t);
  }
  return kInf;
}

double FastDeviationBound(const PositionAttribute& attr, Duration t) {
  const double v = attr.speed;
  const double C = attr.update_cost;
  const double V = attr.max_speed;
  switch (attr.policy) {
    case PolicyKind::kDelayedLinear:
      return DlFastBound(V, v, C, t);
    case PolicyKind::kAverageImmediateLinear:
    case PolicyKind::kCurrentImmediateLinear:
      return IlFastBound(V, v, C, t);
    case PolicyKind::kHybridAdaptive:
      return DlFastBound(V, v, C, t);
    case PolicyKind::kFixedThreshold:
      return std::min(attr.fixed_threshold,
                      FastRate(V, v) * std::max(t, 0.0));
    case PolicyKind::kPeriodic:
      // One reporting period at most elapses between raw-position reports.
      return V * std::min(std::max(t, 0.0), attr.period);
    case PolicyKind::kStepThreshold:
      return StepThresholdBound(FastRate(V, v), attr.step_threshold, C, t);
  }
  return kInf;
}

double DeviationBound(const PositionAttribute& attr, Duration t) {
  return std::max(SlowDeviationBound(attr, t), FastDeviationBound(attr, t));
}

CriticalTimes BoundCriticalTimes(const PositionAttribute& attr) {
  CriticalTimes times;
  auto push = [&times](double t) {
    if (t > 0.0 && std::isfinite(t)) times.at[times.count++] = t;
  };
  const double v = attr.speed;
  const double C = attr.update_cost;
  const double fast_rate = FastRate(attr.max_speed, v);
  switch (attr.policy) {
    case PolicyKind::kDelayedLinear:
    case PolicyKind::kHybridAdaptive:
    case PolicyKind::kAverageImmediateLinear:
    case PolicyKind::kCurrentImmediateLinear:
      // Both families switch analytic form at sqrt(2C/rate) per direction.
      if (v > 0.0) push(std::sqrt(2.0 * C / v));
      if (fast_rate > 0.0) push(std::sqrt(2.0 * C / fast_rate));
      break;
    case PolicyKind::kFixedThreshold:
      if (v > 0.0) push(attr.fixed_threshold / v);
      if (fast_rate > 0.0) push(attr.fixed_threshold / fast_rate);
      break;
    case PolicyKind::kPeriodic:
      push(attr.period);
      break;
    case PolicyKind::kStepThreshold:
      // The bound knees at h/rate when the update-at-h regime is active.
      if (v > 0.0 && C < attr.step_threshold / v) {
        push(attr.step_threshold / v);
      }
      if (fast_rate > 0.0 && C < attr.step_threshold / fast_rate) {
        push(attr.step_threshold / fast_rate);
      }
      break;
  }
  return times;
}

BandReach MaxBandReach(const PositionAttribute& attr, Duration span) {
  double slow = std::max(SlowDeviationBound(attr, 0.0),
                         SlowDeviationBound(attr, span));
  double fast = std::max(FastDeviationBound(attr, 0.0),
                         FastDeviationBound(attr, span));
  for (const Duration c : BoundCriticalTimes(attr)) {
    if (c >= span) continue;
    slow = std::max(slow, SlowDeviationBound(attr, c));
    fast = std::max(fast, FastDeviationBound(attr, c));
  }
  if (attr.direction == TravelDirection::kForward) return {slow, fast};
  return {fast, slow};
}

}  // namespace modb::core
