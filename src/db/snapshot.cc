#include "db/snapshot.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <vector>

namespace modb::db {

namespace {

// v8 dropped the convoy-tracking fields from the options line and the
// `groups` section (convoy tracking was removed). v7 allows index kind 2,
// the route-band index (the options line is v6's). v6 dropped
// `max_log_history` and the velocity-partitioned index fields from the
// options line and allows only index kinds 0 and 1. v5 appended the
// group-tracking configuration to the options line and a `groups` section
// (convoy membership + shared motion models). v4 appended the
// velocity-partitioned index configuration (band count and band speed
// bounds) and allowed index_kind 2. v3 appended `max_trajectory_versions`;
// v2 snapshots (which lacked the field, silently dropping the cap on
// restore) are still readable and default it to 0 (unlimited).
//
// Reading v2–v5: `max_log_history` is discarded. The v4/v5 velocity fields
// are still bounds-checked, then discarded, and index_kind 2 loads as the
// time-space R*-tree — the index is derived state, rebuilt on restore, so
// a banded store's old checkpoints answer identically from one tree. In
// v2, v3 and v6 files kind 2 is rejected. Reading v5–v7: the group
// options and the `groups` section are parsed and bounds-checked, then
// discarded — the store loads ungrouped, and groups never changed an
// answer.
constexpr int kSnapshotVersion = 8;
constexpr int kMinReadableSnapshotVersion = 2;

void WriteAttribute(std::ostream& out, const core::PositionAttribute& a) {
  out << a.start_time << ' ' << a.route << ' ' << a.start_route_distance
      << ' ' << a.start_position.x << ' ' << a.start_position.y << ' '
      << static_cast<int>(a.direction) << ' ' << a.speed << ' '
      << static_cast<int>(a.policy) << ' ' << a.update_cost << ' '
      << a.max_speed << ' ' << a.fixed_threshold << ' ' << a.period << ' '
      << a.step_threshold;
}

bool ReadAttribute(std::istream& in, core::PositionAttribute* a) {
  int direction = 0;
  int policy = 0;
  if (!(in >> a->start_time >> a->route >> a->start_route_distance >>
        a->start_position.x >> a->start_position.y >> direction >> a->speed >>
        policy >> a->update_cost >> a->max_speed >> a->fixed_threshold >>
        a->period >> a->step_threshold)) {
    return false;
  }
  // A corrupted file must not smuggle out-of-range values into the enums.
  if (direction != +1 && direction != -1) return false;
  if (policy < 0 ||
      policy > static_cast<int>(core::PolicyKind::kStepThreshold)) {
    return false;
  }
  a->direction = static_cast<core::TravelDirection>(direction);
  a->policy = static_cast<core::PolicyKind>(policy);
  return true;
}

// Length-prefixed string: "<len> <raw bytes>".
void WriteString(std::ostream& out, const std::string& s) {
  out << s.size() << ' ' << s;
}

// Strings in a snapshot are object labels — human-scale. A length prefix
// past this cap is a corrupted (or hostile) file, and `resize(len)` would
// commit the whole claimed allocation before a single payload byte is
// checked, so the cap must be enforced *before* resizing.
constexpr std::size_t kMaxSnapshotStringLen = std::size_t{1} << 20;  // 1 MiB

bool ReadString(std::istream& in, std::string* s) {
  std::size_t len = 0;
  if (!(in >> len)) return false;
  if (in.get() != ' ') return false;
  if (len > kMaxSnapshotStringLen) return false;
  // Seekable streams also know how many bytes remain: a length past the
  // end of the file is corruption rejectable without allocating anything.
  if (const auto pos = in.tellg(); pos != std::istream::pos_type(-1)) {
    in.seekg(0, std::ios::end);
    const auto end = in.tellg();
    in.seekg(pos);
    if (end != std::istream::pos_type(-1) && end >= pos &&
        static_cast<std::size_t>(end - pos) < len) {
      return false;
    }
  }
  s->resize(len);
  in.read(s->data(), static_cast<std::streamsize>(len));
  return static_cast<bool>(in);
}

bool ExpectToken(std::istream& in, const char* token) {
  std::string word;
  return (in >> word) && word == token;
}

}  // namespace

util::Status WriteSnapshot(const ModDatabase& db, std::ostream& out) {
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  out << "modb-snapshot " << kSnapshotVersion << '\n';

  const ModDatabaseOptions& options = db.options();
  out << "options " << static_cast<int>(options.index_kind) << ' '
      << options.oplane_horizon << ' ' << options.oplane_slab_width << ' '
      << (options.keep_trajectory ? 1 : 0) << ' '
      << options.max_trajectory_versions << '\n';

  const geo::RouteNetwork& network = db.network();
  out << "routes " << network.size() << '\n';
  for (const geo::Route& route : network.routes()) {
    out << "route " << route.id() << ' ' << route.shape().points().size();
    for (const geo::Point2& p : route.shape().points()) {
      out << ' ' << p.x << ' ' << p.y;
    }
    out << ' ';
    WriteString(out, route.name());
    out << '\n';
  }

  // Deterministic object order for stable snapshots.
  std::vector<const MovingObjectRecord*> records;
  records.reserve(db.num_objects());
  db.ForEachRecord(
      [&records](const MovingObjectRecord& r) { records.push_back(&r); });
  std::sort(records.begin(), records.end(),
            [](const MovingObjectRecord* a, const MovingObjectRecord* b) {
              return a->id < b->id;
            });

  out << "objects " << records.size() << '\n';
  for (const MovingObjectRecord* r : records) {
    out << "object " << r->id << ' ';
    WriteString(out, r->label);
    out << ' ';
    WriteAttribute(out, r->attr);
    out << ' ' << r->insert_time << ' ' << r->update_count << ' '
        << r->past.size();
    for (const core::PositionAttribute& version : r->past) {
      out << ' ';
      WriteAttribute(out, version);
    }
    out << '\n';
  }
  if (!out) return util::Status::Internal("snapshot write failed");
  return util::Status::Ok();
}

util::Status SaveSnapshot(const ModDatabase& db, const std::string& path) {
  std::ofstream file(path);
  if (!file) return util::Status::NotFound("cannot open " + path);
  return WriteSnapshot(db, file);
}

namespace {

/// `ReadSnapshot` up to, not including, the `FinishBulkIngest` that builds
/// the index.
util::Result<LoadedSnapshot> ReadSnapshotInBulkIngest(std::istream& in) {
  const auto malformed = [](const std::string& what) {
    return util::Status::InvalidArgument("malformed snapshot: " + what);
  };

  if (!ExpectToken(in, "modb-snapshot")) return malformed("magic");
  int version = 0;
  if (!(in >> version) || version < kMinReadableSnapshotVersion ||
      version > kSnapshotVersion) {
    return malformed("unsupported version");
  }

  if (!ExpectToken(in, "options")) return malformed("options");
  int index_kind = 0;
  int keep_trajectory = 0;
  ModDatabaseOptions options;
  if (!(in >> index_kind >> options.oplane_horizon >>
        options.oplane_slab_width)) {
    return malformed("options fields");
  }
  // A non-positive horizon or slab width would index no boxes at all, and
  // an absurd slab count would make every upsert reserve that many boxes
  // (the widest configuration in the experiments builds 60).
  constexpr double kMaxOPlaneSlabs = 4096;
  if (!std::isfinite(options.oplane_horizon) ||
      !std::isfinite(options.oplane_slab_width) ||
      options.oplane_horizon <= 0.0 || options.oplane_slab_width <= 0.0 ||
      std::ceil(options.oplane_horizon / options.oplane_slab_width) >
          kMaxOPlaneSlabs) {
    return malformed("o-plane options");
  }
  if (version <= 5) {
    std::size_t max_log_history = 0;  // retired update-log cap, discarded
    if (!(in >> max_log_history)) return malformed("options fields");
  }
  if (!(in >> keep_trajectory)) return malformed("options fields");
  if (version >= 3 && !(in >> options.max_trajectory_versions)) {
    return malformed("options fields");
  }
  if (version == 4 || version == 5) {
    // Velocity-partitioned index configuration: validated so a corrupt
    // file is still rejected, then discarded.
    std::size_t velocity_bands = 0;
    std::size_t num_bounds = 0;
    if (!(in >> velocity_bands >> num_bounds)) {
      return malformed("options fields");
    }
    if (num_bounds > 1024) return malformed("band bound count");
    double prev = -std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < num_bounds; ++i) {
      double bound = 0.0;
      if (!(in >> bound) || !std::isfinite(bound) || bound < prev) {
        return malformed("band bounds");
      }
      prev = bound;
    }
  }
  const bool has_groups = version >= 5 && version <= 7;
  if (has_groups) {
    // Retired group-tracking configuration: parsed, then discarded.
    int enabled = 0;
    double cohesion_window = 0.0;
    double join_window = 0.0;
    std::size_t min_group_size = 0;
    double speed_band_width = 0.0;
    double window_slack = 0.0;
    std::size_t max_form_scan = 0;
    if (!(in >> enabled >> cohesion_window >> join_window >> min_group_size >>
          speed_band_width >> window_slack >> max_form_scan)) {
      return malformed("options fields");
    }
  }
  // An out-of-range kind would leave the database without an index (the
  // factory switch has no such case) — reject it here instead. Kind 2 is
  // the route-band index from v7 on; in v4/v5 it named the velocity-
  // partitioned index, which loads as the time-space R*-tree.
  if ((version == 4 || version == 5) && index_kind == 2) {
    index_kind = static_cast<int>(IndexKind::kTimeSpaceRTree);
  }
  const IndexKind last_kind =
      version >= 7 ? IndexKind::kRouteBand : IndexKind::kLinearScan;
  if (index_kind < 0 || index_kind > static_cast<int>(last_kind)) {
    return malformed("index kind");
  }
  options.index_kind = static_cast<IndexKind>(index_kind);
  options.keep_trajectory = keep_trajectory != 0;

  LoadedSnapshot snapshot;
  snapshot.network = std::make_unique<geo::RouteNetwork>();

  if (!ExpectToken(in, "routes")) return malformed("routes");
  std::size_t num_routes = 0;
  if (!(in >> num_routes)) return malformed("route count");
  for (std::size_t i = 0; i < num_routes; ++i) {
    if (!ExpectToken(in, "route")) return malformed("route record");
    geo::RouteId id = 0;
    std::size_t num_points = 0;
    if (!(in >> id >> num_points)) return malformed("route header");
    // Counts come from the file: grow as elements parse, so a count the
    // file does not back with data fails at its end instead of sizing an
    // allocation.
    std::vector<geo::Point2> points;
    for (std::size_t j = 0; j < num_points; ++j) {
      geo::Point2 p;
      if (!(in >> p.x >> p.y)) return malformed("route point");
      points.push_back(p);
    }
    std::string name;
    if (!ReadString(in, &name)) return malformed("route name");
    const geo::RouteId assigned =
        snapshot.network->AddRoute(geo::Polyline(std::move(points)), name);
    if (assigned != id) return malformed("non-sequential route ids");
  }

  snapshot.database =
      std::make_unique<ModDatabase>(snapshot.network.get(), options);

  if (!ExpectToken(in, "objects")) return malformed("objects");
  std::size_t num_objects = 0;
  if (!(in >> num_objects)) return malformed("object count");
  // Stage all objects at record-map speed; the caller builds the index
  // once at the end with the packed bulk path — restore time is dominated
  // by the index build otherwise.
  if (util::Status s = snapshot.database->BeginBulkIngest(); !s.ok()) {
    return s;
  }
  for (std::size_t i = 0; i < num_objects; ++i) {
    if (!ExpectToken(in, "object")) return malformed("object record");
    core::ObjectId id = 0;
    if (!(in >> id)) return malformed("object id");
    std::string label;
    if (!ReadString(in, &label)) return malformed("object label");
    core::PositionAttribute a;
    core::Time insert_time = 0.0;
    std::uint64_t update_count = 0;
    std::size_t past_count = 0;
    if (!ReadAttribute(in, &a)) return malformed("object attribute");
    if (!(in >> insert_time >> update_count >> past_count)) {
      return malformed("object fields");
    }
    std::vector<core::PositionAttribute> past;
    for (std::size_t j = 0; j < past_count; ++j) {
      core::PositionAttribute version;
      if (!ReadAttribute(in, &version)) return malformed("past version");
      past.push_back(version);
    }
    // Re-insert rejections (unknown route, duplicate id, bad attribute)
    // mean the file is corrupt — surface them uniformly as malformed
    // rather than leaking the database's own error codes.
    if (util::Status s = snapshot.database->Insert(id, label, a); !s.ok()) {
      return malformed("object " + std::to_string(id) + ": " + s.message());
    }
    if (!past.empty()) {
      if (util::Status s =
              snapshot.database->RestoreTrajectory(id, std::move(past));
          !s.ok()) {
        return malformed("object " + std::to_string(id) + ": " + s.message());
      }
    }
    (void)insert_time;   // Insert() re-derives it from the attribute.
    (void)update_count;  // restored records count updates from 0
  }
  if (has_groups) {
    // Retired convoy section: "groups <count> <next id>", then per group
    // "group <id> <leader> <route> <direction> <7 model reals> <member
    // count> <members...>". Parsed and checked, then discarded.
    if (!ExpectToken(in, "groups")) return malformed("groups");
    std::size_t num_groups = 0;
    std::uint64_t next_group_id = 0;
    if (!(in >> num_groups >> next_group_id)) return malformed("group count");
    if (num_groups > num_objects) return malformed("group count");
    for (std::size_t i = 0; i < num_groups; ++i) {
      if (!ExpectToken(in, "group")) return malformed("group record");
      std::uint64_t group_id = 0;
      core::ObjectId leader = 0;
      geo::RouteId route = 0;
      int direction = 0;
      double model[7] = {};
      std::size_t member_count = 0;
      if (!(in >> group_id >> leader >> route >> direction)) {
        return malformed("group header");
      }
      for (double& field : model) {
        if (!(in >> field)) return malformed("group header");
      }
      if (!(in >> member_count)) return malformed("group header");
      if (direction != +1 && direction != -1) return malformed("group header");
      if (member_count > num_objects) return malformed("group members");
      for (std::size_t j = 0; j < member_count; ++j) {
        core::ObjectId member = 0;
        if (!(in >> member)) return malformed("group members");
      }
    }
  }
  return snapshot;
}

}  // namespace

util::Result<LoadedSnapshot> ReadSnapshot(std::istream& in) {
  auto loaded = ReadSnapshotInBulkIngest(in);
  if (!loaded.ok()) return loaded;
  if (util::Status s = loaded->database->FinishBulkIngest(); !s.ok()) return s;
  return loaded;
}

util::Result<LoadedSnapshot> LoadSnapshot(const std::string& path) {
  std::ifstream file(path);
  if (!file) return util::Status::NotFound("cannot open " + path);
  return ReadSnapshot(file);
}

util::Result<LoadedSnapshot> LoadSnapshotInBulkIngest(const std::string& path) {
  std::ifstream file(path);
  if (!file) return util::Status::NotFound("cannot open " + path);
  return ReadSnapshotInBulkIngest(file);
}

}  // namespace modb::db
