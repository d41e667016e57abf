#ifndef MODB_TESTS_DB_REOPEN_H_
#define MODB_TESTS_DB_REOPEN_H_

#include <memory>
#include <string>

#include "db/mod_database.h"
#include "db/recovery.h"
#include "geo/route_network.h"
#include "util/status.h"

namespace modb::db {

/// A store recovered from a durable directory with its live manager. The
/// manager is declared after the store, so it is destroyed first and
/// detaches the WAL from a live store.
struct ReopenedStore {
  std::unique_ptr<ModDatabase> database;
  std::unique_ptr<DurabilityManager> durability;

  const RecoveryReport& report() const {
    return durability->recovery_report();
  }
};

/// Builds an empty default-options store on `network` and opens `dir` as
/// its durable home (`DurabilityManager::Open`): recovery when `dir` holds
/// a checkpoint, bootstrap otherwise.
inline util::Result<ReopenedStore> Reopen(
    const geo::RouteNetwork* network, const std::string& dir,
    const DurabilityOptions& options = {}) {
  ReopenedStore store;
  store.database = std::make_unique<ModDatabase>(network);
  auto manager = DurabilityManager::Open(store.database.get(), dir, options);
  if (!manager.ok()) return manager.status();
  store.durability = std::move(*manager);
  return store;
}

}  // namespace modb::db

#endif  // MODB_TESTS_DB_REOPEN_H_
