#ifndef MODB_DB_QUERY_LANGUAGE_H_
#define MODB_DB_QUERY_LANGUAGE_H_

#include <string>
#include <string_view>
#include <variant>

#include "db/mod_database.h"
#include "db/sharded_database.h"
#include "db/subscription_engine.h"
#include "geo/polygon.h"
#include "util/status.h"

namespace modb::db {

// A small textual query language over the moving-objects database — the
// paper's conclusion names "developing query languages ... for these
// databases" as the next step; this is the minimal concrete instance
// covering every query form the engine supports.
//
// Grammar (keywords case-insensitive; numbers are plain doubles, except
// that <id> and <k> are spelled as decimal digits and must fit 64 bits):
//
//   query     := position | range | nearest | subscribe | unsubscribe
//              | events
//   position  := POSITION OF <id> AT <time>
//   range     := SELECT scope INSIDE region when partiality?
//   scope     := ALL | MUST | MAY
//   when      := AT <time> | DURING <t1> TO <t2>
//   nearest   := NEAREST <k> TO point AT <time> partiality?
//   subscribe := SUBSCRIBE <id> TO scope INSIDE region when
//   unsubscribe := UNSUBSCRIBE <id>
//   events    := EVENTS
//   region    := RECT ( x0 , y0 , x1 , y1 ) | CIRCLE ( x , y , r )
//   point     := POINT ( x , y )
//   partiality := ALLOW PARTIAL | STRICT
//
// Examples:
//   POSITION OF 7 AT 6
//   SELECT MUST INSIDE RECT(0, -1, 20, 1) AT 6
//   SELECT ALL INSIDE CIRCLE(3, 4, 1.5) DURING 10 TO 20
//   SELECT ALL INSIDE RECT(0, -1, 20, 1) AT 6 ALLOW PARTIAL
//   NEAREST 3 TO POINT(5, 5) AT 12
//   SUBSCRIBE 42 TO MAY INSIDE RECT(0, -1, 20, 1) AT 6
//   UNSUBSCRIBE 42
//   EVENTS
//
// The `partiality` modifier matters only on a sharded database with
// quarantined shards: STRICT (the default) refuses a partial answer with
// `Unavailable` naming the excluded shards; ALLOW PARTIAL answers from
// the surviving shards and annotates the rendering. On a fully healthy
// store (or an unsharded one) both behave identically.
//
// SUBSCRIBE registers a standing query on the database's attached
// `SubscriptionEngine` (scope maps to the engine's transition mode);
// EVENTS drains the engine's pending transition events. Both fail with
// FailedPrecondition when no engine is attached.

/// Parsed form of `POSITION OF <id> AT <t>`.
struct PositionQuerySpec {
  core::ObjectId id = core::kInvalidObjectId;
  core::Time time = 0.0;
};

/// Parsed form of `SELECT <scope> INSIDE <region> <when>`.
struct RangeQuerySpec {
  enum class Scope { kAll, kMust, kMay };
  Scope scope = Scope::kAll;
  geo::Polygon region;
  std::string region_text;  // original spelling, for echoing
  bool windowed = false;
  core::Time time = 0.0;      // AT form
  core::Time window_end = 0.0;  // DURING form: [time, window_end]
  /// ALLOW PARTIAL: accept (and annotate) an answer that excludes
  /// quarantined shards. Default is STRICT — refuse with `Unavailable`.
  bool allow_partial = false;
};

/// Parsed form of `NEAREST <k> TO POINT(x, y) AT <t>`.
struct NearestQuerySpec {
  std::size_t k = 0;
  geo::Point2 point;
  core::Time time = 0.0;
  /// See `RangeQuerySpec::allow_partial`.
  bool allow_partial = false;
};

/// Parsed form of `SUBSCRIBE <id> TO <scope> INSIDE <region> <when>`.
struct SubscribeSpec {
  SubscriptionId id = 0;
  SubscriptionSpec subscription;
};

/// Parsed form of `UNSUBSCRIBE <id>`.
struct UnsubscribeSpec {
  SubscriptionId id = 0;
};

/// Parsed form of `EVENTS`.
struct EventsSpec {};

using ParsedQuery =
    std::variant<PositionQuerySpec, RangeQuerySpec, NearestQuerySpec,
                 SubscribeSpec, UnsubscribeSpec, EventsSpec>;

/// Parses `text` into a query, or InvalidArgument with a message that
/// points at the offending token.
util::Result<ParsedQuery> ParseQuery(std::string_view text);

/// Executes a textual query against `db` and renders a human-readable
/// answer. Parse errors and unknown objects surface as error statuses.
util::Result<std::string> ExecuteQuery(const ModDatabase& db,
                                       std::string_view text);

/// Sharded overload with degraded-read semantics: fan-out answers carry a
/// `QueryCompleteness`; a STRICT query (the default) over a partial answer
/// fails `Unavailable` naming the excluded shards, while `ALLOW PARTIAL`
/// renders the surviving shards' answer with a `partial (excluded shards:
/// ...)` annotation. SUBSCRIBE/UNSUBSCRIBE/EVENTS route to the sharded
/// subscription API (non-const for the same reason that API is).
util::Result<std::string> ExecuteQuery(ShardedModDatabase& db,
                                       std::string_view text);

}  // namespace modb::db

#endif  // MODB_DB_QUERY_LANGUAGE_H_
