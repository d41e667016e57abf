#ifndef MODB_CORE_BOUNDS_H_
#define MODB_CORE_BOUNDS_H_

#include <array>
#include <cstddef>

#include "core/position_attribute.h"
#include "core/types.h"

namespace modb::core {

// Deviation bounds the DBMS can compute from values it knows: the database
// speed v (= P.speed), the update cost C, the object's maximum speed V, and
// the time t elapsed since the last update (paper §3.3). A *slow* deviation
// means the object is behind its database position; a *fast* deviation
// means it is ahead.

/// Proposition 2 — delayed-linear policy, slow deviation:
///   k <= min{ sqrt(2 v C), v t }.
double DlSlowBound(double v, double C, double t);

/// Proposition 3 — delayed-linear policy, fast deviation (V = max speed):
///   k <= min{ sqrt(2 (V - v) C), (V - v) t }.
double DlFastBound(double V, double v, double C, double t);

/// Corollary 1 — delayed-linear policy, either direction; D = max{v, V - v}:
///   k <= min{ sqrt(2 D C), D t }.
double DlBound(double V, double v, double C, double t);

/// Proposition 4 — immediate-linear policies (ail / cil), slow deviation:
///   k <= min{ 2C / t, v t }.
/// The first term *decreases* as t grows — the surprising positive result of
/// the paper: the uncertainty shrinks the longer the object goes without
/// updating.
double IlSlowBound(double v, double C, double t);

/// Proposition 4 — immediate-linear policies, fast deviation:
///   k <= min{ 2C / t, (V - v) t }.
double IlFastBound(double V, double v, double C, double t);

/// Proposition 4 — immediate-linear policies, either direction:
///   k <= min{ 2C / t, D t }, D = max{v, V - v}.
double IlBound(double V, double v, double C, double t);

/// Time at which the il slow bound peaks: t* = sqrt(2C / v) (the bound grows
/// as v t until t*, then decays as 2C/t). Returns infinity when v <= 0.
double IlSlowBoundPeakTime(double v, double C);

/// Time at which the il fast bound peaks: t* = sqrt(2C / (V - v)).
double IlFastBoundPeakTime(double V, double v, double C);

/// Offsets (relative to the last update) at which the slow/fast bound
/// functions of `attr` change analytic form — the dl plateau start
/// sqrt(2C/rate), the il peak sqrt(2C/rate), the fixed-threshold knee B/rate,
/// or the periodic reporting period. Between consecutive critical times the
/// bounds are monotone, which lets the o-plane builder cover a time slab
/// exactly by sampling slab edges plus the critical times inside it.
/// Only finite positive offsets are returned, at most one per direction;
/// the result is a fixed-capacity value, so the per-candidate callers
/// allocate nothing.
struct CriticalTimes {
  std::array<Duration, 2> at{};
  std::size_t count = 0;

  const Duration* begin() const { return at.data(); }
  const Duration* end() const { return at.data() + count; }
  std::size_t size() const { return count; }
  bool empty() const { return count == 0; }
  Duration operator[](std::size_t i) const { return at[i]; }
};
CriticalTimes BoundCriticalTimes(const PositionAttribute& attr);

/// Policy-dispatching bounds: everything the DBMS needs is in the stored
/// position attribute. `t` is the time elapsed since `attr.start_time`.
/// For `kFixedThreshold` the bound is min{B, rate * t} (classical dead
/// reckoning: fixed bound, never shrinking). For `kPeriodic` the database
/// models no motion (speed 0), so the slow bound is 0 and the fast bound is
/// V * min(t, period).
double SlowDeviationBound(const PositionAttribute& attr, Duration t);
double FastDeviationBound(const PositionAttribute& attr, Duration t);
/// Bound on the deviation in either direction.
double DeviationBound(const PositionAttribute& attr, Duration t);

/// How far below (`behind`) and above (`ahead`) its database route
/// distance the uncertainty interval of `attr` reaches, at most, over the
/// elapsed times [0, span], before it is clamped to the route: the slow
/// bound is behind for forward travel and ahead for backward travel, as in
/// `ComputeUncertainty`. The bounds are monotone between their critical
/// times, so the maxima are taken at 0, span and the critical times
/// inside. With w the signed speed, every uncertainty interval over
/// [ts, ts + span] thus lies in the band s0 + w·(t − ts) + [−behind,
/// +ahead]: the route-band index's entry and the subscription engine's
/// join key. This needs bounds that are never negative, which holds for
/// non-negative speeds, costs, thresholds and periods (what
/// `ModDatabase` accepts); a negative bound swaps the interval's ends.
struct BandReach {
  double behind = 0.0;
  double ahead = 0.0;
};
BandReach MaxBandReach(const PositionAttribute& attr, Duration span);

}  // namespace modb::core

#endif  // MODB_CORE_BOUNDS_H_
