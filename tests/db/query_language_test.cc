#include "db/query_language.h"

#include <gtest/gtest.h>

#include <ostream>
#include <set>
#include <sstream>
#include <string>

#include "db/subscription_engine.h"

namespace modb::db {
namespace {

// ---- Parser ----

TEST(ParseQueryTest, PositionForm) {
  const auto parsed = ParseQuery("POSITION OF 7 AT 6.5");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const auto* spec = std::get_if<PositionQuerySpec>(&*parsed);
  ASSERT_NE(spec, nullptr);
  EXPECT_EQ(spec->id, 7u);
  EXPECT_DOUBLE_EQ(spec->time, 6.5);
}

// Ids and k are read from their spelling as exact 64-bit integers: as a
// double, 2^53 + 1 would round to 2^53, and 1e20 would overflow the cast.
TEST(ParseQueryTest, IdsAndKParseExactly) {
  const auto position = ParseQuery("POSITION OF 9007199254740993 AT 0");
  ASSERT_TRUE(position.ok()) << position.status().ToString();
  EXPECT_EQ(std::get<PositionQuerySpec>(*position).id, 9007199254740993u);
  const auto largest = ParseQuery("POSITION OF 18446744073709551615 AT 0");
  ASSERT_TRUE(largest.ok()) << largest.status().ToString();
  EXPECT_EQ(std::get<PositionQuerySpec>(*largest).id, 18446744073709551615u);
  const auto nearest =
      ParseQuery("NEAREST 9007199254740993 TO POINT(0, 0) AT 0");
  ASSERT_TRUE(nearest.ok()) << nearest.status().ToString();
  EXPECT_EQ(std::get<NearestQuerySpec>(*nearest).k, 9007199254740993u);
  const auto subscribe = ParseQuery(
      "SUBSCRIBE 9007199254740993 TO MAY INSIDE RECT(0, 0, 1, 1) AT 5");
  ASSERT_TRUE(subscribe.ok()) << subscribe.status().ToString();
  EXPECT_EQ(std::get<SubscribeSpec>(*subscribe).id, 9007199254740993u);
  const auto unsubscribe = ParseQuery("UNSUBSCRIBE 9007199254740993");
  ASSERT_TRUE(unsubscribe.ok()) << unsubscribe.status().ToString();
  EXPECT_EQ(std::get<UnsubscribeSpec>(*unsubscribe).id, 9007199254740993u);
}

TEST(ParseQueryTest, IdsAndKThatAreNotExactIntegersAreRejected) {
  for (const char* text : {
           "POSITION OF 1e20 AT 0",
           "POSITION OF 18446744073709551616 AT 0",
           "POSITION OF 7.0 AT 0",
           "POSITION OF +7 AT 0",
           "NEAREST 1e300 TO POINT(0, 0) AT 0",
           "NEAREST 18446744073709551616 TO POINT(0, 0) AT 0",
           "NEAREST 2.0 TO POINT(0, 0) AT 0",
           "SUBSCRIBE 1e20 TO MAY INSIDE RECT(0, 0, 1, 1) AT 5",
           "SUBSCRIBE 18446744073709551616 TO MAY INSIDE RECT(0, 0, 1, 1) AT 5",
           "UNSUBSCRIBE 1e20",
           "UNSUBSCRIBE 18446744073709551616",
       }) {
    const auto parsed = ParseQuery(text);
    EXPECT_EQ(parsed.status().code(), util::StatusCode::kInvalidArgument)
        << text;
  }
}

TEST(ParseQueryTest, KeywordsCaseInsensitive) {
  EXPECT_TRUE(ParseQuery("position of 7 at 6").ok());
  EXPECT_TRUE(ParseQuery("Select All Inside Rect(0,0,1,1) At 5").ok());
  EXPECT_TRUE(ParseQuery("nearest 2 to point(1,2) at 3").ok());
}

TEST(ParseQueryTest, RangeAtForm) {
  const auto parsed =
      ParseQuery("SELECT MUST INSIDE RECT(0, -1, 20, 1) AT 6");
  ASSERT_TRUE(parsed.ok());
  const auto* spec = std::get_if<RangeQuerySpec>(&*parsed);
  ASSERT_NE(spec, nullptr);
  EXPECT_EQ(spec->scope, RangeQuerySpec::Scope::kMust);
  EXPECT_FALSE(spec->windowed);
  EXPECT_DOUBLE_EQ(spec->time, 6.0);
  EXPECT_TRUE(spec->region.Contains({10.0, 0.0}));
  EXPECT_FALSE(spec->region.Contains({30.0, 0.0}));
  EXPECT_EQ(spec->region_text, "RECT(0, -1, 20, 1)");
}

TEST(ParseQueryTest, RangeDuringForm) {
  const auto parsed =
      ParseQuery("SELECT ALL INSIDE CIRCLE(5, 5, 2) DURING 10 TO 20");
  ASSERT_TRUE(parsed.ok());
  const auto* spec = std::get_if<RangeQuerySpec>(&*parsed);
  ASSERT_NE(spec, nullptr);
  EXPECT_EQ(spec->scope, RangeQuerySpec::Scope::kAll);
  EXPECT_TRUE(spec->windowed);
  EXPECT_DOUBLE_EQ(spec->time, 10.0);
  EXPECT_DOUBLE_EQ(spec->window_end, 20.0);
  // 32-gon inscribed in the circle.
  EXPECT_TRUE(spec->region.Contains({5.0, 5.0}));
  EXPECT_TRUE(spec->region.Contains({6.8, 5.0}));
  EXPECT_FALSE(spec->region.Contains({7.2, 5.0}));
}

TEST(ParseQueryTest, NearestForm) {
  const auto parsed = ParseQuery("NEAREST 3 TO POINT(1.5, -2) AT 12");
  ASSERT_TRUE(parsed.ok());
  const auto* spec = std::get_if<NearestQuerySpec>(&*parsed);
  ASSERT_NE(spec, nullptr);
  EXPECT_EQ(spec->k, 3u);
  EXPECT_EQ(spec->point, (geo::Point2{1.5, -2.0}));
  EXPECT_DOUBLE_EQ(spec->time, 12.0);
}

TEST(ParseQueryTest, OverflowingNumbersAreLexErrors) {
  // std::strtod turns "1e999" into +inf with ERANGE; the lexer must reject
  // it instead of letting an infinite coordinate/time into a query spec.
  for (const char* statement : {
           "POSITION OF 7 AT 1e999",
           "POSITION OF 7 AT -1e999",
           "SELECT ALL INSIDE RECT(0, 0, 1e999, 1) AT 5",
           "NEAREST 2 TO POINT(1, 1e999) AT 3",
       }) {
    const auto parsed = ParseQuery(statement);
    ASSERT_FALSE(parsed.ok()) << statement;
    EXPECT_EQ(parsed.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(parsed.status().message().find("out of range"),
              std::string::npos)
        << parsed.status().ToString();
  }
}

TEST(ParseQueryTest, ExtremeFiniteNumbersStillParse) {
  // Near-DBL_MAX is finite and stays accepted; gradual underflow to a
  // denormal (or to zero) is not an error either — only non-finite results
  // are rejected.
  EXPECT_TRUE(ParseQuery("POSITION OF 7 AT 1e308").ok());
  EXPECT_TRUE(ParseQuery("POSITION OF 7 AT 1e-320").ok());
  EXPECT_TRUE(ParseQuery("POSITION OF 7 AT 1e-999").ok());
}

TEST(ParseQueryTest, NamedNonFiniteFormsAreRejected) {
  // strtod would happily parse "inf"/"nan"; the lexer's [0-9.+-] gate
  // keeps them out as unexpected identifiers, never as numbers.
  EXPECT_FALSE(ParseQuery("POSITION OF 7 AT inf").ok());
  EXPECT_FALSE(ParseQuery("POSITION OF 7 AT nan").ok());
}

TEST(ParseQueryTest, NegativeAndScientificNumbers) {
  const auto parsed =
      ParseQuery("SELECT ALL INSIDE RECT(-1.5, -2e1, 3.25, 1e-1) AT -4");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const auto* spec = std::get_if<RangeQuerySpec>(&*parsed);
  ASSERT_NE(spec, nullptr);
  EXPECT_DOUBLE_EQ(spec->time, -4.0);
  EXPECT_TRUE(spec->region.Contains({0.0, -10.0}));
}

TEST(ParseQueryTest, SubscribeAtForm) {
  const auto parsed =
      ParseQuery("SUBSCRIBE 42 TO MAY INSIDE RECT(0, -1, 20, 1) AT 6");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const auto* spec = std::get_if<SubscribeSpec>(&*parsed);
  ASSERT_NE(spec, nullptr);
  EXPECT_EQ(spec->id, 42u);
  EXPECT_EQ(spec->subscription.mode, SubscriptionMode::kMay);
  EXPECT_FALSE(spec->subscription.windowed);
  EXPECT_DOUBLE_EQ(spec->subscription.time, 6.0);
  EXPECT_TRUE(spec->subscription.region.Contains({10.0, 0.0}));
  EXPECT_EQ(spec->subscription.region_text, "RECT(0, -1, 20, 1)");
}

TEST(ParseQueryTest, SubscribeDuringForm) {
  const auto parsed = ParseQuery(
      "subscribe 0 to must inside circle(5, 5, 2) during 10 to 20");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const auto* spec = std::get_if<SubscribeSpec>(&*parsed);
  ASSERT_NE(spec, nullptr);
  EXPECT_EQ(spec->id, 0u);
  EXPECT_EQ(spec->subscription.mode, SubscriptionMode::kMust);
  EXPECT_TRUE(spec->subscription.windowed);
  EXPECT_DOUBLE_EQ(spec->subscription.time, 10.0);
  EXPECT_DOUBLE_EQ(spec->subscription.window_end, 20.0);
}

TEST(ParseQueryTest, SubscribeAcceptsNegativeCoordinatesAndTimes) {
  const auto parsed = ParseQuery(
      "SUBSCRIBE 1 TO ALL INSIDE RECT(-10, -10, -1, -1) AT -5");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const auto* spec = std::get_if<SubscribeSpec>(&*parsed);
  ASSERT_NE(spec, nullptr);
  EXPECT_DOUBLE_EQ(spec->subscription.time, -5.0);
  EXPECT_TRUE(spec->subscription.region.Contains({-5.0, -5.0}));
}

// A zero-area rectangle is grammatically fine — it parses; registration is
// where semantic validation lives.
TEST(ParseQueryTest, SubscribeEmptyRectParses) {
  EXPECT_TRUE(
      ParseQuery("SUBSCRIBE 1 TO MAY INSIDE RECT(5, 1, 5, 1) AT 6").ok());
}

TEST(ParseQueryTest, UnsubscribeForm) {
  const auto parsed = ParseQuery("UNSUBSCRIBE 42");
  ASSERT_TRUE(parsed.ok());
  const auto* spec = std::get_if<UnsubscribeSpec>(&*parsed);
  ASSERT_NE(spec, nullptr);
  EXPECT_EQ(spec->id, 42u);
}

TEST(ParseQueryTest, EventsForm) {
  const auto parsed = ParseQuery("EVENTS");
  ASSERT_TRUE(parsed.ok());
  EXPECT_NE(std::get_if<EventsSpec>(&*parsed), nullptr);
}

TEST(ParseQueryTest, RangeAllowPartial) {
  const auto parsed =
      ParseQuery("SELECT ALL INSIDE RECT(0, -1, 20, 1) AT 6 ALLOW PARTIAL");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const auto* spec = std::get_if<RangeQuerySpec>(&*parsed);
  ASSERT_NE(spec, nullptr);
  EXPECT_TRUE(spec->allow_partial);
}

TEST(ParseQueryTest, RangeExplicitStrict) {
  const auto parsed =
      ParseQuery("SELECT MUST INSIDE RECT(0, -1, 20, 1) AT 6 STRICT");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const auto* spec = std::get_if<RangeQuerySpec>(&*parsed);
  ASSERT_NE(spec, nullptr);
  EXPECT_FALSE(spec->allow_partial);
}

TEST(ParseQueryTest, RangeDefaultsToStrict) {
  const auto parsed = ParseQuery("SELECT ALL INSIDE RECT(0, -1, 20, 1) AT 6");
  ASSERT_TRUE(parsed.ok());
  const auto* spec = std::get_if<RangeQuerySpec>(&*parsed);
  ASSERT_NE(spec, nullptr);
  EXPECT_FALSE(spec->allow_partial);
}

TEST(ParseQueryTest, WindowedRangeAllowPartial) {
  const auto parsed = ParseQuery(
      "SELECT ALL INSIDE CIRCLE(5, 5, 2) DURING 10 TO 20 allow partial");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const auto* spec = std::get_if<RangeQuerySpec>(&*parsed);
  ASSERT_NE(spec, nullptr);
  EXPECT_TRUE(spec->windowed);
  EXPECT_TRUE(spec->allow_partial);
}

TEST(ParseQueryTest, NearestPartialityBothSpellings) {
  const auto partial =
      ParseQuery("NEAREST 3 TO POINT(1.5, -2) AT 12 ALLOW PARTIAL");
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  const auto* p = std::get_if<NearestQuerySpec>(&*partial);
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(p->allow_partial);

  const auto strict = ParseQuery("NEAREST 3 TO POINT(1.5, -2) AT 12 STRICT");
  ASSERT_TRUE(strict.ok()) << strict.status().ToString();
  const auto* s = std::get_if<NearestQuerySpec>(&*strict);
  ASSERT_NE(s, nullptr);
  EXPECT_FALSE(s->allow_partial);

  const auto bare = ParseQuery("NEAREST 3 TO POINT(1.5, -2) AT 12");
  ASSERT_TRUE(bare.ok());
  EXPECT_FALSE(std::get_if<NearestQuerySpec>(&*bare)->allow_partial);
}

struct BadQueryCase {
  const char* name;
  const char* text;
};

// Without this gtest prints the two pointers' raw bytes, so the listed test
// names would change from build to build.
void PrintTo(const BadQueryCase& c, std::ostream* os) { *os << c.name; }

class BadQueryTest : public testing::TestWithParam<BadQueryCase> {};

TEST_P(BadQueryTest, Rejected) {
  const auto parsed = ParseQuery(GetParam().text);
  ASSERT_FALSE(parsed.ok()) << GetParam().text;
  EXPECT_EQ(parsed.status().code(), util::StatusCode::kInvalidArgument);
  // Errors carry an offset to help the user.
  EXPECT_NE(parsed.status().message().find("offset"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    Grammar, BadQueryTest,
    testing::Values(
        BadQueryCase{"empty", ""},
        BadQueryCase{"unknown_verb", "DELETE FROM objects"},
        BadQueryCase{"missing_of", "POSITION 7 AT 6"},
        BadQueryCase{"fractional_id", "POSITION OF 1.5 AT 6"},
        BadQueryCase{"negative_id", "POSITION OF -1 AT 6"},
        BadQueryCase{"missing_time", "POSITION OF 1 AT"},
        BadQueryCase{"bad_scope", "SELECT SOME INSIDE RECT(0,0,1,1) AT 5"},
        BadQueryCase{"bad_region", "SELECT ALL INSIDE TRIANGLE(0,0,1) AT 5"},
        BadQueryCase{"missing_paren", "SELECT ALL INSIDE RECT(0,0,1,1 AT 5"},
        BadQueryCase{"too_few_args", "SELECT ALL INSIDE RECT(0,0,1) AT 5"},
        BadQueryCase{"zero_radius", "SELECT ALL INSIDE CIRCLE(0,0,0) AT 5"},
        BadQueryCase{"missing_when", "SELECT ALL INSIDE RECT(0,0,1,1)"},
        BadQueryCase{"during_missing_to",
                     "SELECT ALL INSIDE RECT(0,0,1,1) DURING 1 2"},
        BadQueryCase{"zero_k", "NEAREST 0 TO POINT(1,1) AT 5"},
        BadQueryCase{"fractional_k", "NEAREST 1.5 TO POINT(1,1) AT 5"},
        BadQueryCase{"trailing_garbage", "POSITION OF 1 AT 5 EXTRA"},
        BadQueryCase{"stray_symbol", "POSITION OF 1 AT 5 ;"},
        BadQueryCase{"subscribe_missing_id",
                     "SUBSCRIBE TO MAY INSIDE RECT(0,0,1,1) AT 5"},
        BadQueryCase{"subscribe_negative_id",
                     "SUBSCRIBE -1 TO MAY INSIDE RECT(0,0,1,1) AT 5"},
        BadQueryCase{"subscribe_fractional_id",
                     "SUBSCRIBE 1.5 TO MAY INSIDE RECT(0,0,1,1) AT 5"},
        BadQueryCase{"subscribe_missing_to",
                     "SUBSCRIBE 1 MAY INSIDE RECT(0,0,1,1) AT 5"},
        BadQueryCase{"subscribe_bad_scope",
                     "SUBSCRIBE 1 TO SOME INSIDE RECT(0,0,1,1) AT 5"},
        BadQueryCase{"subscribe_missing_inside",
                     "SUBSCRIBE 1 TO MAY RECT(0,0,1,1) AT 5"},
        BadQueryCase{"subscribe_bad_region",
                     "SUBSCRIBE 1 TO MAY INSIDE BLOB(0,0,1,1) AT 5"},
        BadQueryCase{"subscribe_rect_arity",
                     "SUBSCRIBE 1 TO MAY INSIDE RECT(0,0,1) AT 5"},
        BadQueryCase{"subscribe_zero_radius",
                     "SUBSCRIBE 1 TO MAY INSIDE CIRCLE(0,0,0) AT 5"},
        BadQueryCase{"subscribe_missing_when",
                     "SUBSCRIBE 1 TO MAY INSIDE RECT(0,0,1,1)"},
        BadQueryCase{"subscribe_during_missing_to",
                     "SUBSCRIBE 1 TO MAY INSIDE RECT(0,0,1,1) DURING 1 2"},
        BadQueryCase{"subscribe_trailing_garbage",
                     "SUBSCRIBE 1 TO MAY INSIDE RECT(0,0,1,1) AT 5 NOW"},
        BadQueryCase{"allow_without_partial",
                     "SELECT ALL INSIDE RECT(0,0,1,1) AT 5 ALLOW"},
        BadQueryCase{"partiality_trailing_garbage",
                     "SELECT ALL INSIDE RECT(0,0,1,1) AT 5 ALLOW PARTIAL X"},
        BadQueryCase{"strict_trailing_garbage",
                     "NEAREST 1 TO POINT(1,1) AT 5 STRICT NOW"},
        BadQueryCase{"double_partiality",
                     "SELECT ALL INSIDE RECT(0,0,1,1) AT 5 STRICT STRICT"},
        BadQueryCase{"unsubscribe_missing_id", "UNSUBSCRIBE"},
        BadQueryCase{"unsubscribe_negative_id", "UNSUBSCRIBE -3"},
        BadQueryCase{"unsubscribe_trailing", "UNSUBSCRIBE 3 4"},
        BadQueryCase{"events_trailing", "EVENTS NOW"}),
    [](const testing::TestParamInfo<BadQueryCase>& info) {
      return info.param.name;
    });

// ---- Execution ----

class ExecuteQueryTest : public testing::Test {
 protected:
  ExecuteQueryTest() : db_(&network_) {
    street_ = network_.AddStraightRoute({0.0, 0.0}, {200.0, 0.0}, "street");
    core::PositionAttribute attr;
    attr.route = street_;
    attr.start_route_distance = 10.0;
    attr.start_position = {10.0, 0.0};
    attr.speed = 1.0;
    attr.update_cost = 5.0;
    attr.max_speed = 1.5;
    attr.policy = core::PolicyKind::kAverageImmediateLinear;
    db_.Insert(7, "truck", attr).ok();
    attr.start_route_distance = 150.0;
    attr.start_position = {150.0, 0.0};
    attr.speed = 0.0;
    db_.Insert(8, "parked", attr).ok();
  }

  geo::RouteNetwork network_;
  geo::RouteId street_ = geo::kInvalidRouteId;
  ModDatabase db_;
};

TEST_F(ExecuteQueryTest, PositionAnswer) {
  const auto out = ExecuteQuery(db_, "POSITION OF 7 AT 6");
  ASSERT_TRUE(out.ok());
  EXPECT_NE(out->find("object 7"), std::string::npos);
  EXPECT_NE(out->find("(16, 0)"), std::string::npos);
  EXPECT_NE(out->find("bound"), std::string::npos);
}

TEST_F(ExecuteQueryTest, PositionUnknownObject) {
  const auto out = ExecuteQuery(db_, "POSITION OF 99 AT 6");
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), util::StatusCode::kNotFound);
}

TEST_F(ExecuteQueryTest, RangeMustAndMay) {
  const auto out =
      ExecuteQuery(db_, "SELECT ALL INSIDE RECT(0, -1, 50, 1) AT 6");
  ASSERT_TRUE(out.ok());
  EXPECT_NE(out->find("MUST: 7"), std::string::npos);
  EXPECT_NE(out->find("MAY: (none)"), std::string::npos);
}

TEST_F(ExecuteQueryTest, RangeScopeFiltersOutput) {
  const auto must_only =
      ExecuteQuery(db_, "SELECT MUST INSIDE RECT(0, -1, 50, 1) AT 6");
  ASSERT_TRUE(must_only.ok());
  EXPECT_EQ(must_only->find("MAY"), std::string::npos);
  const auto may_only =
      ExecuteQuery(db_, "SELECT MAY INSIDE RECT(0, -1, 50, 1) AT 6");
  ASSERT_TRUE(may_only.ok());
  EXPECT_EQ(may_only->find("MUST"), std::string::npos);
}

TEST_F(ExecuteQueryTest, MayAnswerCarriesProbability) {
  // Region boundary cutting the parked object's uncertainty interval.
  const auto out =
      ExecuteQuery(db_, "SELECT MAY INSIDE RECT(140, -1, 151, 1) AT 4");
  ASSERT_TRUE(out.ok());
  EXPECT_NE(out->find("8(p="), std::string::npos);
}

TEST_F(ExecuteQueryTest, WindowQuery) {
  // Object 7 passes [100, 110] around t = 95; the window catches it.
  const auto out = ExecuteQuery(
      db_, "SELECT ALL INSIDE RECT(100, -1, 110, 1) DURING 80 TO 110");
  ASSERT_TRUE(out.ok());
  EXPECT_NE(out->find("MAY within window: 7"), std::string::npos);
}

TEST_F(ExecuteQueryTest, NearestAnswer) {
  const auto out = ExecuteQuery(db_, "NEAREST 2 TO POINT(12, 0) AT 0");
  ASSERT_TRUE(out.ok());
  EXPECT_NE(out->find("object 7"), std::string::npos);
  EXPECT_NE(out->find("object 8"), std::string::npos);
  // Item 7 (distance 2) precedes item 8 (distance 138).
  EXPECT_LT(out->find("object 7"), out->find("object 8"));
}

TEST_F(ExecuteQueryTest, ParseErrorsPropagate) {
  const auto out = ExecuteQuery(db_, "SELECT nonsense");
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), util::StatusCode::kInvalidArgument);
}

// ---- Standing queries through the language ----

TEST_F(ExecuteQueryTest, SubscribeWithoutEngineIsFailedPrecondition) {
  for (const char* statement :
       {"SUBSCRIBE 1 TO MAY INSIDE RECT(0, -1, 50, 1) AT 6", "UNSUBSCRIBE 1",
        "EVENTS"}) {
    const auto out = ExecuteQuery(db_, statement);
    EXPECT_FALSE(out.ok()) << statement;
    EXPECT_EQ(out.status().code(), util::StatusCode::kFailedPrecondition)
        << statement;
  }
}

class ExecuteSubscribeTest : public ExecuteQueryTest {
 protected:
  ExecuteSubscribeTest() : engine_(&network_) {
    db_.AttachSubscriptions(&engine_);
  }

  SubscriptionEngine engine_;
};

TEST_F(ExecuteSubscribeTest, SubscribeEchoesRegistration) {
  const auto out =
      ExecuteQuery(db_, "SUBSCRIBE 42 TO MAY INSIDE RECT(0, -1, 50, 1) AT 6");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(*out, "subscribed 42: MAY inside RECT(0, -1, 50, 1) at t=6");
  EXPECT_TRUE(engine_.contains(42));

  const auto windowed = ExecuteQuery(
      db_, "SUBSCRIBE 43 TO ALL INSIDE CIRCLE(5, 5, 2) DURING 10 TO 20");
  ASSERT_TRUE(windowed.ok());
  EXPECT_EQ(*windowed,
            "subscribed 43: ALL inside CIRCLE(5, 5, 2) during [10, 20]");
}

TEST_F(ExecuteSubscribeTest, DuplicateSubscribeSurfacesAlreadyExists) {
  ASSERT_TRUE(
      ExecuteQuery(db_, "SUBSCRIBE 1 TO MAY INSIDE RECT(0,0,1,1) AT 5").ok());
  const auto out =
      ExecuteQuery(db_, "SUBSCRIBE 1 TO MAY INSIDE RECT(0,0,2,2) AT 5");
  EXPECT_EQ(out.status().code(), util::StatusCode::kAlreadyExists);
}

// Degenerate regions and out-of-horizon instants are semantic conditions,
// not crashes: an essentially-empty region registers and matches nothing,
// a beyond-horizon subscription registers and never fires.
TEST_F(ExecuteSubscribeTest, EmptyRegionExecutesWithoutCrash) {
  for (const char* statement :
       {"SUBSCRIBE 1 TO MAY INSIDE RECT(5, 1, 5, 1) AT 6",
        "SUBSCRIBE 2 TO ALL INSIDE CIRCLE(5, 0, 1e-30) AT 6"}) {
    const auto out = ExecuteQuery(db_, statement);
    ASSERT_TRUE(out.ok()) << statement;  // grammatically fine
  }
  ASSERT_TRUE(db_.ApplyUpdate({7, 1.0, street_, 5.0, {5.0, 0.0},
                               core::TravelDirection::kForward, 0.0})
                  .ok());
  const auto events = ExecuteQuery(db_, "EVENTS");
  ASSERT_TRUE(events.ok());
}

TEST_F(ExecuteSubscribeTest, SubscribeBeyondHorizonNeverMatches) {
  ASSERT_TRUE(
      ExecuteQuery(db_, "SUBSCRIBE 1 TO ALL INSIDE RECT(0, -1, 200, 1) AT 1e6")
          .ok());
  ASSERT_TRUE(db_.ApplyUpdate({7, 1.0, street_, 20.0, {20.0, 0.0},
                               core::TravelDirection::kForward, 1.0})
                  .ok());
  const auto events = ExecuteQuery(db_, "EVENTS");
  ASSERT_TRUE(events.ok());
  EXPECT_EQ(*events, "events: (none)");
}

TEST_F(ExecuteSubscribeTest, EventsDrainsTransitions) {
  ASSERT_TRUE(
      ExecuteQuery(db_, "SUBSCRIBE 42 TO ALL INSIDE RECT(90, -1, 120, 1) AT 8")
          .ok());
  // Move object 7 so its position at the subscribed instant (t=8) lands
  // inside [90, 120]: report at t=2 from distance 100, parked.
  ASSERT_TRUE(db_.ApplyUpdate({7, 2.0, street_, 100.0, {100.0, 0.0},
                               core::TravelDirection::kForward, 0.0})
                  .ok());
  const auto events = ExecuteQuery(db_, "EVENTS");
  ASSERT_TRUE(events.ok());
  EXPECT_NE(events->find("sub 42: object 7 outside->"), std::string::npos);
  EXPECT_NE(events->find("at t=2"), std::string::npos);
  // Drained: a second EVENTS is empty.
  const auto again = ExecuteQuery(db_, "EVENTS");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, "events: (none)");
}

TEST_F(ExecuteSubscribeTest, UnsubscribeRemovesStandingQuery) {
  ASSERT_TRUE(
      ExecuteQuery(db_, "SUBSCRIBE 9 TO MAY INSIDE RECT(0,0,1,1) AT 5").ok());
  const auto out = ExecuteQuery(db_, "UNSUBSCRIBE 9");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "unsubscribed 9");
  EXPECT_FALSE(engine_.contains(9));
  EXPECT_EQ(ExecuteQuery(db_, "UNSUBSCRIBE 9").status().code(),
            util::StatusCode::kNotFound);
}

// ---- Degraded reads through the language (sharded executor) ----

class ExecuteShardedQueryTest : public testing::Test {
 protected:
  static constexpr std::size_t kShards = 4;

  static ShardedModDatabaseOptions Options() {
    ShardedModDatabaseOptions options;
    options.num_shards = kShards;
    options.num_query_threads = 0;  // inline fan-out: deterministic order
    options.enable_subscriptions = true;
    options.supervisor.auto_remediate = false;  // tests step the machine
    return options;
  }

  ExecuteShardedQueryTest() : db_(&network_, Options()) {}

  void SetUp() override {
    street_ = network_.AddStraightRoute({0.0, 0.0}, {200.0, 0.0}, "street");
    // One parked object per shard, spread along the street, so every
    // fan-out answer has a contribution from each failure domain.
    for (std::size_t s = 0; s < kShards; ++s) {
      const core::ObjectId id = IdOnShard(s);
      ASSERT_NE(id, core::kInvalidObjectId);
      core::PositionAttribute attr;
      attr.route = street_;
      attr.start_route_distance = 10.0 + 40.0 * static_cast<double>(s);
      attr.start_position = {attr.start_route_distance, 0.0};
      attr.speed = 0.0;
      attr.update_cost = 5.0;
      attr.max_speed = 1.5;
      attr.policy = core::PolicyKind::kAverageImmediateLinear;
      ASSERT_TRUE(db_.Insert(id, "obj", attr).ok());
      ids_[s] = id;
    }
  }

  core::ObjectId IdOnShard(std::size_t s) const {
    for (core::ObjectId id = 1; id < 100000; ++id) {
      if (db_.ShardOf(id) == s) return id;
    }
    return core::kInvalidObjectId;
  }

  static constexpr const char* kEverywhereMust =
      "SELECT MUST INSIDE RECT(-10, -10, 210, 10) AT 0";

  geo::RouteNetwork network_;
  geo::RouteId street_ = geo::kInvalidRouteId;
  ShardedModDatabase db_;
  core::ObjectId ids_[kShards] = {};
};

TEST_F(ExecuteShardedQueryTest, HealthyAnswersAreCompleteUnderBothModes) {
  const auto strict = ExecuteQuery(db_, std::string(kEverywhereMust) + " STRICT");
  const auto partial =
      ExecuteQuery(db_, std::string(kEverywhereMust) + " ALLOW PARTIAL");
  ASSERT_TRUE(strict.ok()) << strict.status().ToString();
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  // Nothing quarantined: identical renderings, no partial annotation.
  EXPECT_EQ(*strict, *partial);
  EXPECT_EQ(strict->find("partial"), std::string::npos);
  for (std::size_t s = 0; s < kShards; ++s) {
    EXPECT_NE(strict->find(std::to_string(ids_[s])), std::string::npos);
  }
}

TEST_F(ExecuteShardedQueryTest, StrictRefusesPartialAnswer) {
  db_.supervisor().ReportFault(2, util::Status::Internal("test fault"));
  for (const char* statement :
       {kEverywhereMust,
        "SELECT ALL INSIDE RECT(-10, -10, 210, 10) DURING 0 TO 5 STRICT",
        "NEAREST 2 TO POINT(12, 0) AT 0"}) {
    const auto out = ExecuteQuery(db_, statement);
    ASSERT_FALSE(out.ok()) << statement;
    EXPECT_EQ(out.status().code(), util::StatusCode::kUnavailable) << statement;
    EXPECT_NE(out.status().message().find("partial answer refused (STRICT)"),
              std::string::npos)
        << out.status().ToString();
    EXPECT_NE(out.status().message().find("shard(s) 2"), std::string::npos)
        << out.status().ToString();
  }
}

TEST_F(ExecuteShardedQueryTest, AllowPartialAnnotatesExcludedShards) {
  db_.supervisor().ReportFault(2, util::Status::Internal("test fault"));
  const auto out =
      ExecuteQuery(db_, std::string(kEverywhereMust) + " ALLOW PARTIAL");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_NE(out->find("partial (excluded shards: 2; listed MUST answers "
                      "remain sound)"),
            std::string::npos)
      << *out;
  // Surviving shards still answer; the quarantined shard's object is absent.
  // Tokenize the MUST line — raw substring search would match digits in the
  // region echo or the excluded-shards annotation.
  const auto must_at = out->find("MUST:");
  ASSERT_NE(must_at, std::string::npos) << *out;
  const auto line_end = out->find('\n', must_at);
  std::istringstream must_line(
      out->substr(must_at + 5, line_end - (must_at + 5)));
  std::set<std::string> listed;
  for (std::string token; must_line >> token;) listed.insert(token);
  for (std::size_t s = 0; s < kShards; ++s) {
    const bool expected_present = s != 2;
    EXPECT_EQ(listed.count(std::to_string(ids_[s])) != 0, expected_present)
        << "shard " << s << ": " << *out;
  }
}

TEST_F(ExecuteShardedQueryTest, NearestAllowPartialSkipsQuarantinedShard) {
  db_.supervisor().ReportFault(1, util::Status::Internal("test fault"));
  const auto out = ExecuteQuery(
      db_, "NEAREST 4 TO POINT(12, 0) AT 0 ALLOW PARTIAL");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_NE(out->find("partial (excluded shards: 1"), std::string::npos);
  EXPECT_EQ(out->find("object " + std::to_string(ids_[1]) + ":"),
            std::string::npos)
      << *out;
}

TEST_F(ExecuteShardedQueryTest, PositionOfQuarantinedObjectPassesUnavailable) {
  db_.supervisor().ReportFault(3, util::Status::Internal("test fault"));
  const auto down = ExecuteQuery(
      db_, "POSITION OF " + std::to_string(ids_[3]) + " AT 0");
  ASSERT_FALSE(down.ok());
  EXPECT_EQ(down.status().code(), util::StatusCode::kUnavailable);
  EXPECT_NE(down.status().message().find("retry_after_ms="), std::string::npos)
      << down.status().ToString();
  // Objects on healthy shards still answer point queries.
  const auto up = ExecuteQuery(
      db_, "POSITION OF " + std::to_string(ids_[0]) + " AT 0");
  EXPECT_TRUE(up.ok()) << up.status().ToString();
}

TEST_F(ExecuteShardedQueryTest, SubscriptionStatementsRouteThroughShardedApi) {
  ASSERT_TRUE(
      ExecuteQuery(db_, "SUBSCRIBE 42 TO ALL INSIDE RECT(0, -5, 60, 5) AT 1")
          .ok());
  EXPECT_EQ(db_.num_subscriptions(), 1u);
  // The seeded objects sit parked inside the region, so the registration's
  // next update produces transitions; at minimum EVENTS must execute.
  const auto events = ExecuteQuery(db_, "EVENTS");
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  const auto out = ExecuteQuery(db_, "UNSUBSCRIBE 42");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "unsubscribed 42");
  EXPECT_EQ(db_.num_subscriptions(), 0u);
}

TEST_F(ExecuteShardedQueryTest, EventsWithoutEnginesIsFailedPrecondition) {
  ShardedModDatabaseOptions options = Options();
  options.enable_subscriptions = false;
  ShardedModDatabase plain(&network_, options);
  for (const char* statement :
       {"SUBSCRIBE 1 TO MAY INSIDE RECT(0,0,1,1) AT 5", "EVENTS"}) {
    const auto out = ExecuteQuery(plain, statement);
    EXPECT_FALSE(out.ok()) << statement;
    EXPECT_EQ(out.status().code(), util::StatusCode::kFailedPrecondition)
        << statement;
  }
}

}  // namespace
}  // namespace modb::db
