#ifndef MODB_DB_SNAPSHOT_H_
#define MODB_DB_SNAPSHOT_H_

#include <iosfwd>
#include <memory>
#include <string>

#include "db/mod_database.h"
#include "geo/route_network.h"
#include "util/status.h"

namespace modb::db {

/// A database loaded from a snapshot, bundled with the route network it
/// references (the network must outlive the database, so both travel
/// together; destruction order — members in reverse — is correct).
struct LoadedSnapshot {
  std::unique_ptr<geo::RouteNetwork> network;
  std::unique_ptr<ModDatabase> database;
};

/// Writes the full database state — options, every route of the network,
/// and every moving object's position attribute — to `out` in a versioned
/// line-oriented text format. Update counters restart from 0 on load
/// (they are measurement instruments, not state).
util::Status WriteSnapshot(const ModDatabase& db, std::ostream& out);

/// `WriteSnapshot` to a file path.
util::Status SaveSnapshot(const ModDatabase& db, const std::string& path);

/// Reads a snapshot produced by `WriteSnapshot`. Returns a fresh network
/// plus a database populated with the saved objects, or InvalidArgument on
/// malformed input.
util::Result<LoadedSnapshot> ReadSnapshot(std::istream& in);

/// `ReadSnapshot` from a file path (NotFound when unreadable).
util::Result<LoadedSnapshot> LoadSnapshot(const std::string& path);

/// `LoadSnapshot` without the index build: the database stays inside its
/// bulk-ingest session, so recovery replays the WAL into it before the one
/// `FinishBulkIngest` that builds the index.
util::Result<LoadedSnapshot> LoadSnapshotInBulkIngest(const std::string& path);

}  // namespace modb::db

#endif  // MODB_DB_SNAPSHOT_H_
