#ifndef MODB_SIM_SPEED_CURVE_H_
#define MODB_SIM_SPEED_CURVE_H_

#include <string>
#include <vector>

#include "core/types.h"
#include "util/rng.h"

namespace modb::sim {

/// The actual speed of a moving object as a function of time (paper §3.4:
/// "each trip is represented by a speed-curve").
///
/// Speeds are piecewise-constant over steps of width `step`; distance is the
/// exact integral of the curve (precomputed cumulative sums). Time 0 is the
/// start of the trip.
class SpeedCurve {
 public:
  SpeedCurve() = default;
  /// `speeds[i]` applies on [i*step, (i+1)*step); `step` > 0.
  SpeedCurve(std::vector<double> speeds, core::Duration step);

  /// Constant speed `v` for `duration` time units.
  static SpeedCurve Constant(double v, core::Duration duration,
                             core::Duration step = 1.0);

  /// Speed at time `t` (0 before the trip, last value after its end).
  double SpeedAt(core::Time t) const;

  /// Distance covered from time 0 to `t` (exact integral; clamped to the
  /// trip duration).
  double DistanceAt(core::Time t) const;

  /// Largest speed in the curve (the V of propositions 3 / 4).
  double MaxSpeed() const { return max_speed_; }

  /// Mean speed over the whole trip.
  double MeanSpeed() const;

  core::Duration duration() const {
    return step_ * static_cast<double>(speeds_.size());
  }
  core::Duration step() const { return step_; }
  const std::vector<double>& speeds() const { return speeds_; }
  bool Empty() const { return speeds_.empty(); }

 private:
  std::vector<double> speeds_;
  std::vector<double> cumulative_;  // distance at step boundaries
  core::Duration step_ = 1.0;
  double max_speed_ = 0.0;
};

/// Parameters shared by the synthetic speed-curve generators. Speeds are in
/// route-distance per time unit; the paper's worked examples use 1 =
/// 60 mi/h with minutes as the time unit.
struct CurveGenOptions {
  core::Duration duration = 60.0;  // one-hour trips (paper §3.4)
  core::Duration step = 1.0;
  double cruise_speed = 1.0;  // 60 mi/h
  double max_speed = 1.5;     // hard cap (the V the DBMS knows)
};

/// Highway driving in non-rush hour: the speed fluctuates only mildly
/// around the cruise speed (paper §3.1's motivation for predicting with the
/// current speed), with occasional brief slowdowns.
SpeedCurve MakeHighwayCurve(util::Rng& rng, const CurveGenOptions& options);

/// City stop-and-go driving: alternating go phases (speed near cruise,
/// strongly jittered) and stop phases (speed 0), with geometric phase
/// lengths — the speed fluctuates sharply but the average is stable
/// (the paper's motivation for the ail policy).
SpeedCurve MakeCityCurve(util::Rng& rng, const CurveGenOptions& options);

/// Example 1's pattern: travel at cruise speed, then hit a traffic jam
/// (speed 0 or crawling) for an extended period, then resume.
SpeedCurve MakeTrafficJamCurve(util::Rng& rng, const CurveGenOptions& options);

/// Rush-hour mix: city-like congestion for the first and last parts of the
/// trip with a highway-like middle.
SpeedCurve MakeRushHourCurve(util::Rng& rng, const CurveGenOptions& options);

/// Shared platoon profile for a convoy: cruise at a constant speed broken by
/// isolated single-step stop-and-go dips (shockwaves) that hit the whole
/// platoon at once. Because dips never occupy consecutive steps, a
/// dead-reckoning policy observes the accrued deviation on a cruise step and
/// its update re-declares the common cruise speed — so every member of a
/// convoy that shares the curve keeps declaring the same speed no matter
/// which tick its policy fires on. Randomness (dip times and crawl speeds)
/// is per-curve: generate one curve per convoy and copy it to the members.
SpeedCurve MakeConvoyCurve(util::Rng& rng, const CurveGenOptions& options);

/// A labelled speed curve.
struct NamedCurve {
  std::string name;
  SpeedCurve curve;
};

/// The standard evaluation suite (paper §3.4: "a set of one-hour trips"):
/// `per_kind` curves of each generator above, deterministically derived
/// from `rng`.
std::vector<NamedCurve> MakeStandardSuite(util::Rng& rng, int per_kind,
                                          const CurveGenOptions& options);

}  // namespace modb::sim

#endif  // MODB_SIM_SPEED_CURVE_H_
