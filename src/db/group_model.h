#ifndef MODB_DB_GROUP_MODEL_H_
#define MODB_DB_GROUP_MODEL_H_

#include <cstdint>
#include <vector>

#include "core/types.h"
#include "geo/route.h"

namespace modb::db {

/// Identifier of a convoy/group tracked by `db::GroupTracker`.
using GroupId = std::uint64_t;

/// Synthetic object-id namespace for group-envelope index entries. The
/// envelope of group g is stored in the `ObjectIndex` under
/// `EnvelopeIdFor(g)` — never under the leader's id, so the leader's own
/// per-object index state keeps evolving (as a hidden row) without
/// clobbering the envelope boxes. Real object ids with the top bit set are
/// never grouped (the tracker refuses them), so the namespaces stay
/// disjoint; query refinement recognises envelope candidates by this bit
/// and expands them into exact member candidacies.
inline constexpr core::ObjectId kEnvelopeIdBase = core::ObjectId{1} << 63;

constexpr bool IsEnvelopeId(core::ObjectId id) {
  return id != core::kInvalidObjectId && (id & kEnvelopeIdBase) != 0;
}
constexpr core::ObjectId EnvelopeIdFor(GroupId group) {
  return kEnvelopeIdBase | group;
}
constexpr GroupId GroupOfEnvelopeId(core::ObjectId id) {
  return id & ~kEnvelopeIdBase;
}

/// The shared motion model of a convoy: a line in (time, route-distance)
/// space plus the cohesion tube around it. Every member's uncertainty
/// interval over its policy horizon is contained in
/// [LineAt(t) - width, LineAt(t) + width] (the cohesion invariant the
/// tracker enforces on every membership change), which is what makes the
/// single envelope index entry a sound cover for all members.
struct GroupModel {
  geo::RouteId route = geo::kInvalidRouteId;
  core::TravelDirection direction = core::TravelDirection::kForward;
  /// Shared speed v_g (the leader's declared speed at formation).
  double speed = 0.0;
  core::Time anchor_time = 0.0;
  double anchor_distance = 0.0;
  /// Time window the envelope entry covers; every member's
  /// [start_time, start_time + horizon] lies inside it.
  core::Time window_lo = 0.0;
  core::Time window_hi = 0.0;
  /// Max member max_speed, fixed at formation (joins faster than this are
  /// rejected so the envelope padding never needs to grow).
  double vmax = 0.0;
  /// Cohesion half-width W: bound on |member position ± deviation bound -
  /// LineAt(t)| over the member's horizon.
  double width = 0.0;

  /// Route-distance of the group line at `t` (unclamped; clamping is
  /// 1-Lipschitz, so bounds proved on the raw line hold clamped too).
  double LineAt(core::Time t) const {
    return anchor_distance +
           core::DirectionSign(direction) * speed * (t - anchor_time);
  }
};

/// Kind of a group-membership transition. Update-driven transitions are
/// logged in the WAL (`kGroupBatch`) and applied verbatim on replay;
/// erase-driven ones are deterministic consequences of `kErase` records and
/// are reproduced, not logged.
enum class GroupTransitionKind : std::uint8_t {
  kForm = 1,          // group created; `members` incl. leader; carries model
  kJoin = 2,          // `members[0]` joined `group`
  kLeave = 3,         // `members[0]` left `group` (cohesion broke)
  kDissolve = 4,      // group fell below min size; members re-materialize
  kLeaderChange = 5,  // `leader` is the new leader
  kRefresh = 6,       // window extended; carries the updated model
};

/// One group-membership transition, in the order it happened within a
/// batch. `model` is meaningful for kForm and kRefresh only.
struct GroupTransition {
  GroupTransitionKind kind = GroupTransitionKind::kForm;
  GroupId group = 0;
  core::ObjectId leader = core::kInvalidObjectId;
  GroupModel model;
  std::vector<core::ObjectId> members;
};

/// Snapshot form of one group (snapshot v5 `groups` section).
struct PersistedGroup {
  GroupId id = 0;
  core::ObjectId leader = core::kInvalidObjectId;
  GroupModel model;
  /// Sorted ascending, leader included.
  std::vector<core::ObjectId> members;
};

/// Knobs of the online convoy detector. Distances are route-distance
/// units, times are simulation time units (the paper's minutes).
struct GroupTrackingOptions {
  /// Master switch; off reproduces the ungrouped write path byte-for-byte.
  bool enabled = false;
  /// Cohesion half-width W members must stay within to remain grouped.
  double cohesion_window = 8.0;
  /// Tighter half-width applied when joining/forming (hysteresis: a member
  /// admitted at `join_window` has `cohesion_window - join_window` of room
  /// before it splits off, so boundary members do not thrash).
  double join_window = 6.0;
  /// Minimum members (leader included) to form or keep a group.
  std::size_t min_group_size = 3;
  /// Width of the coarse speed band in the detection cell key
  /// (route, direction, floor(speed / speed_band_width)).
  double speed_band_width = 0.25;
  /// Extra time the envelope window extends past the newest member's
  /// horizon, so in-cohesion member updates need no window refresh.
  /// <= 0 means "one index horizon".
  double window_slack = 0.0;
  /// Cap on detection-cell peers scanned per formation attempt.
  std::size_t max_form_scan = 64;
};

}  // namespace modb::db

#endif  // MODB_DB_GROUP_MODEL_H_
