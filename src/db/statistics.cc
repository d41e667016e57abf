#include "db/statistics.h"

#include <algorithm>

#include "core/bounds.h"

namespace modb::db {

DatabaseStats ComputeStatistics(const ModDatabase& db, core::Time now) {
  DatabaseStats stats;
  stats.as_of = now;
  stats.num_objects = db.num_objects();
  stats.total_updates = db.total_updates();

  db.ForEachRecord([&stats, now](const MovingObjectRecord& record) {
    const core::PositionAttribute& attr = record.attr;
    const auto policy_index = static_cast<std::size_t>(attr.policy);
    if (policy_index < stats.objects_per_policy.size()) {
      ++stats.objects_per_policy[policy_index];
    }
    const core::Duration since = std::max(0.0, now - attr.start_time);
    stats.staleness.Add(since);
    stats.bound.Add(core::DeviationBound(attr, since));
    stats.declared_speed.Add(attr.speed);
    stats.updates_per_object.Add(static_cast<double>(record.update_count));
  });
  return stats;
}

util::Table StatisticsTable(const DatabaseStats& stats) {
  util::Table table({"metric", "value"});
  table.NewRow().Add(std::string("as of t")).Add(stats.as_of, 2);
  table.NewRow().Add(std::string("objects")).Add(stats.num_objects);
  table.NewRow()
      .Add(std::string("updates received"))
      .Add(static_cast<std::size_t>(stats.total_updates));
  for (std::size_t i = 0; i < stats.objects_per_policy.size(); ++i) {
    if (stats.objects_per_policy[i] == 0) continue;
    table.NewRow()
        .Add("objects using " +
             std::string(core::PolicyKindName(
                 static_cast<core::PolicyKind>(i))))
        .Add(stats.objects_per_policy[i]);
  }
  if (stats.num_objects > 0) {
    table.NewRow()
        .Add(std::string("bound mean / max"))
        .Add(std::to_string(stats.bound.mean()) + " / " +
             std::to_string(stats.bound.max()));
    table.NewRow()
        .Add(std::string("staleness mean / max"))
        .Add(std::to_string(stats.staleness.mean()) + " / " +
             std::to_string(stats.staleness.max()));
    table.NewRow()
        .Add(std::string("declared speed mean"))
        .Add(stats.declared_speed.mean(), 3);
    table.NewRow()
        .Add(std::string("updates/object mean / max"))
        .Add(std::to_string(stats.updates_per_object.mean()) + " / " +
             std::to_string(stats.updates_per_object.max()));
  }
  return table;
}

}  // namespace modb::db
