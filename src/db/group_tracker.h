#ifndef MODB_DB_GROUP_TRACKER_H_
#define MODB_DB_GROUP_TRACKER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/position_attribute.h"
#include "core/types.h"
#include "db/group_model.h"
#include "geo/box.h"
#include "geo/polygon.h"
#include "geo/route_network.h"
#include "index/object_index.h"
#include "index/oplane.h"
#include "util/metrics.h"
#include "util/status.h"

namespace modb::db {

/// Online convoy detector and group-state machine — the layer between
/// batch ingest and the indexes (MOIST's "school" trick over the paper's
/// motion models). Vehicles on the same route at similar declared speeds
/// carry near-identical position attributes; the tracker clusters them
/// behind one shared `GroupModel` so the index stores a single envelope
/// entry per convoy (under a synthetic id) plus box-less "hidden" member
/// rows, and the WAL logs compact member rows plus the membership
/// transitions.
///
/// Soundness invariant (what keeps MUST/MAY answers byte-identical):
/// a member m is only admitted / retained while, over its whole policy
/// horizon [m.start_time, m.start_time + H],
///     |m's database position - LineAt(t)| + DeviationBound(m, t) <= W,
/// i.e. member uncertainty = group line ⊕ W. The envelope entry covers the
/// line over the group window inflated by W plus a slab-discretisation
/// margin, so every member's o-plane boxes lie inside the envelope's —
/// an envelope candidate is produced whenever any member would have been.
/// Query refinement then expands an envelope candidate into exactly the
/// members whose own (hidden, still-maintained) index state would have
/// matched, via `ObjectIndex::WouldMatchWindow` — candidate sets, and
/// therefore answers, match the group-tracking-off configuration exactly.
///
/// Detection is a heuristic (a missed convoy costs performance, never
/// correctness): the cluster key is (route, direction, speed band), a
/// coarse cell map over ungrouped objects; a formation attempt anchors the
/// line at the updating object and admits up to `max_form_scan` cell peers
/// that fit the tube at the tighter `join_window`.
///
/// Thread-compatibility matches the database: mutating methods require
/// external exclusion (the sharded layer's exclusive shard lock); const
/// methods (`ExpandCandidates`, `ExportGroups`, accessors) are safe
/// concurrently with each other.
class GroupTracker {
 private:
  // State structs live up front so the Plan's undo journal can hold them
  // by value.
  struct ObjState {
    core::PositionAttribute attr;
    GroupId group = 0;  // 0 = ungrouped
  };
  struct GroupState {
    core::ObjectId leader = core::kInvalidObjectId;
    GroupModel model;
    std::vector<core::ObjectId> members;  // sorted ascending, incl. leader
  };

 public:
  /// One structural index row the write path must apply beyond the batch's
  /// own (rewritten) rows: passive-peer hidden installs at formation,
  /// member re-materialisations at dissolve, envelope upserts/removals.
  /// `attr`/`boxes` point into the owning `Plan`'s stable storage.
  struct IndexRow {
    core::ObjectId id = core::kInvalidObjectId;
    const core::PositionAttribute* attr = nullptr;  // null = remove
    const std::vector<geo::Box3>* boxes = nullptr;  // envelope override
    bool hidden = false;
  };

  /// Per-batch plan: the transitions to log, the structural index rows to
  /// apply, and the undo journal that makes the whole batch's group-state
  /// mutation revertible when a later write stage fails. One `Plan` spans
  /// one `ApplyUpdateBatch` (or one `Erase`).
  class Plan {
   public:
    std::vector<GroupTransition> transitions;
    std::vector<IndexRow> rows;
    /// Erase-driven membership changes (not logged: kErase replay
    /// reproduces them) — counted so metrics still see them.
    std::size_t unlogged_splits = 0;

    bool Empty() const { return transitions.empty() && rows.empty(); }

   private:
    friend class GroupTracker;
    // Stable storage the rows point into (deque: no reallocation moves).
    std::deque<core::PositionAttribute> attr_store_;
    std::deque<std::vector<geo::Box3>> box_store_;
    // First-touch undo journal.
    std::map<core::ObjectId, std::optional<ObjState>> saved_objects_;
    std::map<GroupId, std::optional<GroupState>> saved_groups_;
    std::map<std::uint64_t, std::optional<std::vector<core::ObjectId>>>
        saved_cells_;
    std::map<std::uint64_t, std::optional<std::vector<GroupId>>>
        saved_group_cells_;
    GroupId saved_next_group_id_ = 0;
    bool journaling_ = false;
  };

  /// `network` must outlive the tracker. `base_oplane` is the attached
  /// index's base o-plane parameterisation: its horizon H is the cohesion
  /// look-ahead, its slab width the widest time slab any attached index
  /// builds boxes with (the envelope's discretisation margin is sized for
  /// it), and its padding is inherited into the envelope's padding.
  GroupTracker(const geo::RouteNetwork* network, GroupTrackingOptions options,
               index::OPlaneOptions base_oplane);

  bool enabled() const { return options_.enabled; }
  const GroupTrackingOptions& options() const { return options_; }

  // -- Write path -----------------------------------------------------

  /// Folds one accepted update record (in input order) into the group
  /// state: cohesion re-check for members (split on violation), join /
  /// formation attempts for the ungrouped, window refreshes. Appends the
  /// resulting transitions and structural rows to `plan`. Call once per
  /// accepted record between the validate and WAL stages.
  void PlanUpdate(core::ObjectId id, const core::PositionAttribute& attr,
                  Plan* plan);

  /// Attribute-only fold for replay (`bulk` ingest): keeps the tracker's
  /// attribute mirror and detection cells in sync without planning — the
  /// logged transitions are applied verbatim instead.
  void ObserveAttrOnly(core::ObjectId id, const core::PositionAttribute& attr);

  /// Registers a newly inserted object as ungrouped (detection-cell entry).
  void ObserveInsert(core::ObjectId id, const core::PositionAttribute& attr);

  /// Removes an erased object. A member erase cascades deterministically
  /// (leader re-election: freshest start_time, ties to the lowest id;
  /// dissolve below `min_group_size`) so WAL `kErase` replay reproduces it
  /// without logging; the cascade's structural rows are appended to `plan`.
  void ObserveErase(core::ObjectId id, Plan* plan);

  /// Reverts every group-state mutation recorded in `plan`'s journal (WAL
  /// append or index stage failed mid-batch).
  void Rollback(Plan& plan);

  /// Finalises a successfully applied plan: bumps the transition counters
  /// and pushes the group gauges. (State was already mutated by planning.)
  void Commit(const Plan& plan);

  /// Counts batch rows rewritten to hidden member installs (metrics only).
  void NoteHiddenRows(std::size_t n);

  // -- Replay / persistence -------------------------------------------

  /// Applies logged transitions verbatim (recovery replay). No cohesion
  /// checks, no index rows — the caller is mid bulk-ingest and the index
  /// is rebuilt at `FinishBulkIngest`.
  void ApplyTransitions(const std::vector<GroupTransition>& transitions);

  /// Installs snapshot-persisted groups (members must already be observed
  /// via `ObserveInsert`; unknown members are dropped — the revalidation
  /// sweep would evict them anyway).
  void RestoreGroups(const std::vector<PersistedGroup>& groups,
                     GroupId next_group_id);

  /// Snapshot form of the current groups, id-ascending, members sorted.
  std::vector<PersistedGroup> ExportGroups() const;
  GroupId next_group_id() const { return next_group_id_; }

  /// Post-replay soundness sweep (`FinishBulkIngest`): re-checks every
  /// member against its group's persisted model and evicts violators with
  /// the deterministic cascade. A clean replay is a no-op; a torn-tail
  /// prefix (rows applied, transitions lost) is repaired here.
  void Revalidate();

  /// Appends the index rows of the collapsed groups for the rebuild's
  /// packed load (`FinishBulkIngest`): a hidden row per member plus each
  /// group's envelope row.
  void AppendCollapseRows(Plan* plan) const;

  // -- Query path ------------------------------------------------------

  bool has_groups() const { return !groups_.empty(); }

  /// Replaces envelope candidates in `ids` with the exact member
  /// candidacies (`index.WouldMatchWindow` per member); output sorted and
  /// deduplicated. No-op when `ids` carries no envelope ids.
  void ExpandCandidates(std::vector<core::ObjectId>* ids,
                        const geo::Polygon& region, core::Time t1,
                        core::Time t2, const index::ObjectIndex& index) const;

  // -- Introspection / metrics -----------------------------------------

  std::size_t num_groups() const { return groups_.size(); }
  std::size_t num_grouped_objects() const { return grouped_objects_; }
  /// Group currently holding `id`, or 0 when ungrouped/unknown.
  GroupId GroupOf(core::ObjectId id) const;
  bool IsGrouped(core::ObjectId id) const { return GroupOf(id) != 0; }

  /// Registers `<prefix>count` / `<prefix>size` (signed-delta gauges, so
  /// shards sharing a registry aggregate as sums) and the transition
  /// counters `<prefix>forms`, `<prefix>splits`, `<prefix>joins`,
  /// `<prefix>leader_upserts`, `<prefix>member_skips`.
  void SetMetrics(util::MetricsRegistry* registry, const std::string& prefix);

 private:
  // Detection-cell key (route, direction, coarse speed band) packed into
  // one integer so the journal can index cells cheaply.
  std::uint64_t CellKeyOf(const core::PositionAttribute& attr) const;
  std::uint64_t CellKeyOf(const GroupModel& model) const;

  void StartJournal(Plan* plan);
  void JournalObject(Plan* plan, core::ObjectId id);
  void JournalGroup(Plan* plan, GroupId group);
  void JournalCell(Plan* plan, std::uint64_t key);
  void JournalGroupCell(Plan* plan, std::uint64_t key);

  void CellInsert(Plan* plan, core::ObjectId id,
                  const core::PositionAttribute& attr);
  void CellRemove(Plan* plan, core::ObjectId id,
                  const core::PositionAttribute& attr);
  void GroupCellInsert(Plan* plan, GroupId group, const GroupModel& model);
  void GroupCellRemove(Plan* plan, GroupId group, const GroupModel& model);

  /// Peak of |member line - group line| + deviation bound over the
  /// member's horizon (endpoints + bound critical times — both pieces are
  /// monotone between them, so the sample set is exact for each piece and
  /// the sum of the two maxima is a sound bound on the sum's maximum).
  double CohesionPeak(const core::PositionAttribute& member,
                      const GroupModel& model) const;
  bool Cohesive(const core::PositionAttribute& member, const GroupModel& model,
                double width) const;
  bool WindowContains(const GroupModel& model,
                      const core::PositionAttribute& member) const;

  /// Recomputes the window from current member starts and emits kRefresh +
  /// an envelope re-upsert.
  void RefreshWindow(Plan* plan, GroupId group);
  /// Builds the envelope attribute + padded box cover for `group` into the
  /// plan's storage and appends the upsert row.
  void AppendEnvelopeRow(Plan* plan, GroupId group);
  void AppendEnvelopeRowTo(Plan* plan, const GroupState& g, GroupId id) const;

  void TryJoinOrForm(Plan* plan, core::ObjectId id,
                     const core::PositionAttribute& attr);
  /// Removes `id` from `group` with the full cascade (leader re-election:
  /// freshest start_time, ties to the lowest id; dissolve below min size).
  /// `log` controls whether the kLeave/kLeaderChange/kDissolve transitions
  /// are recorded in the plan (update-driven: yes; erase-driven and
  /// revalidation: no — replay reproduces them deterministically);
  /// structural rows are appended when `plan` is non-null. `erased`
  /// suppresses the leaver's re-insertion into the detection cells.
  void RemoveFromGroup(Plan* plan, GroupId group, core::ObjectId id, bool log,
                       bool erased);
  void DissolveGroup(Plan* plan, GroupId group, bool log);

  void SyncGauges();
  void DetachMetrics();

  const geo::RouteNetwork* network_;
  GroupTrackingOptions options_;
  index::OPlaneOptions base_oplane_;
  core::Duration horizon_;
  core::Duration slack_;

  std::unordered_map<core::ObjectId, ObjState> objects_;
  std::map<GroupId, GroupState> groups_;  // ordered: deterministic export
  std::unordered_map<std::uint64_t, std::vector<core::ObjectId>> cells_;
  std::unordered_map<std::uint64_t, std::vector<GroupId>> group_cells_;
  GroupId next_group_id_ = 1;
  std::size_t grouped_objects_ = 0;

  util::Counter* forms_counter_ = nullptr;           // non-owning
  util::Counter* splits_counter_ = nullptr;          // non-owning
  util::Counter* joins_counter_ = nullptr;           // non-owning
  util::Counter* leader_upserts_counter_ = nullptr;  // non-owning
  util::Counter* member_skips_counter_ = nullptr;    // non-owning
  util::Gauge* count_gauge_ = nullptr;               // non-owning
  util::Gauge* size_gauge_ = nullptr;                // non-owning
  std::int64_t pushed_count_ = 0;
  std::int64_t pushed_size_ = 0;
};

}  // namespace modb::db

#endif  // MODB_DB_GROUP_TRACKER_H_
