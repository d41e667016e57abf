#ifndef MODB_TESTS_DB_ANSWER_TEXT_H_
#define MODB_TESTS_DB_ANSWER_TEXT_H_

#include <gtest/gtest.h>

#include <cstddef>
#include <sstream>
#include <string>

#include "db/mod_database.h"

namespace modb::db {

/// Every query form over one probe grid (x in [0, 85], y in [-2, 45],
/// t in {5, 10, 15}): range ids with MAY probabilities, nearest items with
/// their distances, interval ids. Doubles print in hex, so equal text means
/// equal bits. Fails the calling test when the grid sees no MUST or no MAY
/// answer, so a comparison of two stores is never vacuous.
inline std::string AnswerText(const ModDatabase& db) {
  std::ostringstream out;
  out << std::hexfloat;
  std::size_t must = 0;
  std::size_t may = 0;
  for (const double x0 : {0.0, 20.0, 40.0, 60.0}) {
    const geo::Polygon region =
        geo::Polygon::Rectangle(x0, -2.0, x0 + 25.0, 45.0);
    for (const double t : {5.0, 10.0, 15.0}) {
      const RangeAnswer r = db.QueryRange(region, t);
      must += r.must.size();
      may += r.may.size();
      out << "R " << x0 << ' ' << t << ':';
      for (core::ObjectId id : r.must) out << ' ' << id;
      out << " |";
      for (std::size_t i = 0; i < r.may.size(); ++i) {
        out << ' ' << r.may[i] << '~' << r.may_probability[i];
      }
      out << "\nN " << x0 << ' ' << t << ':';
      for (const NearestAnswer::Item& item :
           db.QueryNearest({x0 + 10.0, 5.0}, 3, t).items) {
        out << ' ' << item.id << '~' << item.db_distance << '~'
            << item.min_possible_distance << '~' << item.max_possible_distance;
      }
      out << '\n';
    }
    const IntervalRangeAnswer w = db.QueryRangeInterval(region, 2.0, 12.0);
    out << "W " << x0 << ':';
    for (core::ObjectId id : w.may) out << ' ' << id;
    out << " |";
    for (core::ObjectId id : w.must_at_some_time) out << ' ' << id;
    out << '\n';
  }
  EXPECT_GT(must, 0u);
  EXPECT_GT(may, 0u);
  return out.str();
}

}  // namespace modb::db

#endif  // MODB_TESTS_DB_ANSWER_TEXT_H_
