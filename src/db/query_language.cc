#include "db/query_language.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <type_traits>
#include <vector>

namespace modb::db {

namespace {

// ---- Lexer ----

enum class TokenKind { kWord, kNumber, kComma, kLParen, kRParen, kEnd };

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string word;    // upper-cased for kWord; a kNumber's spelling
  double number = 0.0;
  std::size_t offset = 0;  // position in the input, for error messages
};

util::Status LexError(std::size_t offset, const std::string& what) {
  return util::Status::InvalidArgument("query error at offset " +
                                       std::to_string(offset) + ": " + what);
}

util::Result<std::vector<Token>> Lex(std::string_view text) {
  std::vector<Token> tokens;
  std::size_t i = 0;
  while (i < text.size()) {
    const char c = text[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    Token token;
    token.offset = i;
    if (c == ',') {
      token.kind = TokenKind::kComma;
      ++i;
    } else if (c == '(') {
      token.kind = TokenKind::kLParen;
      ++i;
    } else if (c == ')') {
      token.kind = TokenKind::kRParen;
      ++i;
    } else if (std::isdigit(static_cast<unsigned char>(c)) || c == '-' ||
               c == '+' || c == '.') {
      std::size_t end = i;
      while (end < text.size() &&
             (std::isdigit(static_cast<unsigned char>(text[end])) ||
              text[end] == '.' || text[end] == '-' || text[end] == '+' ||
              text[end] == 'e' || text[end] == 'E')) {
        ++end;
      }
      const std::string number(text.substr(i, end - i));
      char* parsed_end = nullptr;
      errno = 0;
      token.number = std::strtod(number.c_str(), &parsed_end);
      if (parsed_end == number.c_str() ||
          static_cast<std::size_t>(parsed_end - number.c_str()) !=
              number.size()) {
        return LexError(i, "malformed number '" + number + "'");
      }
      // strtod reports overflow by returning +/-HUGE_VAL with ERANGE —
      // without this check a literal like 1e999 silently becomes an
      // infinite query-box coordinate. Underflow (also ERANGE, tiny
      // denormal or zero result) is accepted: the nearest representable
      // value is a faithful coordinate. The isfinite guard also rejects
      // any other non-finite parse defensively.
      if ((errno == ERANGE && std::isinf(token.number)) ||
          !std::isfinite(token.number)) {
        return LexError(i, "number out of range '" + number + "'");
      }
      token.kind = TokenKind::kNumber;
      token.word = number;
      i = end;
    } else if (std::isalpha(static_cast<unsigned char>(c))) {
      std::size_t end = i;
      while (end < text.size() &&
             (std::isalnum(static_cast<unsigned char>(text[end])) ||
              text[end] == '_')) {
        ++end;
      }
      token.kind = TokenKind::kWord;
      token.word.assign(text.substr(i, end - i));
      std::transform(token.word.begin(), token.word.end(), token.word.begin(),
                     [](unsigned char ch) {
                       return static_cast<char>(std::toupper(ch));
                     });
      i = end;
    } else {
      return LexError(i, std::string("unexpected character '") + c + "'");
    }
    tokens.push_back(std::move(token));
  }
  Token end_token;
  end_token.kind = TokenKind::kEnd;
  end_token.offset = text.size();
  tokens.push_back(end_token);
  return tokens;
}

// ---- Parser ----

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  util::Result<ParsedQuery> Parse() {
    const Token& head = Peek();
    if (head.kind != TokenKind::kWord) {
      return Error(
          "expected POSITION, SELECT, NEAREST, SUBSCRIBE, UNSUBSCRIBE, or "
          "EVENTS");
    }
    util::Result<ParsedQuery> query = [&]() -> util::Result<ParsedQuery> {
      if (head.word == "POSITION") return ParsePosition();
      if (head.word == "SELECT") return ParseRange();
      if (head.word == "NEAREST") return ParseNearest();
      if (head.word == "SUBSCRIBE") return ParseSubscribe();
      if (head.word == "UNSUBSCRIBE") return ParseUnsubscribe();
      if (head.word == "EVENTS") {
        Advance();
        return ParsedQuery{EventsSpec{}};
      }
      return Error("unknown query verb '" + head.word + "'");
    }();
    if (!query.ok()) return query;
    if (Peek().kind != TokenKind::kEnd) {
      return Error("trailing input after query");
    }
    return query;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Advance() { return tokens_[pos_++]; }

  util::Status ErrorStatus(const std::string& what) const {
    return util::Status::InvalidArgument(
        "query error at offset " + std::to_string(Peek().offset) + ": " +
        what);
  }
  util::Result<ParsedQuery> Error(const std::string& what) const {
    return ErrorStatus(what);
  }

  bool ConsumeWord(const char* word) {
    if (Peek().kind == TokenKind::kWord && Peek().word == word) {
      Advance();
      return true;
    }
    return false;
  }

  util::Status ExpectWord(const char* word) {
    if (!ConsumeWord(word)) {
      return ErrorStatus(std::string("expected '") + word + "'");
    }
    return util::Status::Ok();
  }

  util::Status ExpectNumber(double* out) {
    if (Peek().kind != TokenKind::kNumber) {
      return ErrorStatus("expected a number");
    }
    *out = Advance().number;
    return util::Status::Ok();
  }

  /// An id or a count: the token's spelling must be decimal digits that
  /// fit a uint64_t. (A double holds integers exactly only up to 2^53,
  /// and casting one past 2^64 to an integer is undefined.)
  util::Status ExpectInteger(std::uint64_t* out, const char* what) {
    const Token& token = Peek();
    if (token.kind != TokenKind::kNumber) {
      return ErrorStatus("expected a number");
    }
    const char* end = token.word.data() + token.word.size();
    const auto [parsed_end, error] =
        std::from_chars(token.word.data(), end, *out);
    if (error != std::errc() || parsed_end != end) {
      return ErrorStatus(std::string(what));
    }
    Advance();
    return util::Status::Ok();
  }

  util::Status Expect(TokenKind kind, const char* what) {
    if (Peek().kind != kind) return ErrorStatus(std::string("expected ") + what);
    Advance();
    return util::Status::Ok();
  }

  util::Status ParseNumberList(std::size_t count, double* out) {
    if (util::Status s = Expect(TokenKind::kLParen, "'('"); !s.ok()) return s;
    for (std::size_t i = 0; i < count; ++i) {
      if (i > 0) {
        if (util::Status s = Expect(TokenKind::kComma, "','"); !s.ok()) {
          return s;
        }
      }
      if (util::Status s = ExpectNumber(&out[i]); !s.ok()) return s;
    }
    return Expect(TokenKind::kRParen, "')'");
  }

  util::Result<ParsedQuery> ParsePosition() {
    Advance();  // POSITION
    if (util::Status s = ExpectWord("OF"); !s.ok()) return s;
    PositionQuerySpec spec;
    if (util::Status s = ExpectInteger(
            &spec.id, "object id must be a nonnegative integer");
        !s.ok()) {
      return s;
    }
    if (util::Status s = ExpectWord("AT"); !s.ok()) return s;
    if (util::Status s = ExpectNumber(&spec.time); !s.ok()) return s;
    return ParsedQuery{spec};
  }

  // Shared by SELECT and SUBSCRIBE: region := RECT(...) | CIRCLE(...).
  util::Status ParseRegion(geo::Polygon* region, std::string* region_text) {
    char text[96];
    if (ConsumeWord("RECT")) {
      double v[4];
      if (util::Status s = ParseNumberList(4, v); !s.ok()) return s;
      *region = geo::Polygon::Rectangle(v[0], v[1], v[2], v[3]);
      std::snprintf(text, sizeof(text), "RECT(%g, %g, %g, %g)", v[0], v[1],
                    v[2], v[3]);
    } else if (ConsumeWord("CIRCLE")) {
      double v[3];
      if (util::Status s = ParseNumberList(3, v); !s.ok()) return s;
      if (v[2] <= 0.0) return ErrorStatus("circle radius must be positive");
      *region = geo::Polygon::RegularNGon({v[0], v[1]}, v[2], 32);
      std::snprintf(text, sizeof(text), "CIRCLE(%g, %g, %g)", v[0], v[1],
                    v[2]);
    } else {
      return ErrorStatus("expected RECT or CIRCLE");
    }
    *region_text = text;
    return util::Status::Ok();
  }

  // Shared by SELECT and SUBSCRIBE: when := AT <t> | DURING <t1> TO <t2>.
  util::Status ParseWhen(bool* windowed, core::Time* time,
                         core::Time* window_end) {
    if (ConsumeWord("AT")) {
      if (util::Status s = ExpectNumber(time); !s.ok()) return s;
      *windowed = false;
      return util::Status::Ok();
    }
    if (ConsumeWord("DURING")) {
      if (util::Status s = ExpectNumber(time); !s.ok()) return s;
      if (util::Status s = ExpectWord("TO"); !s.ok()) return s;
      if (util::Status s = ExpectNumber(window_end); !s.ok()) return s;
      *windowed = true;
      return util::Status::Ok();
    }
    return ErrorStatus("expected AT <time> or DURING <t1> TO <t2>");
  }

  // Optional trailing modifier on SELECT / NEAREST:
  //   partiality := ALLOW PARTIAL | STRICT   (absent = STRICT)
  util::Status ParsePartiality(bool* allow_partial) {
    if (ConsumeWord("ALLOW")) {
      if (util::Status s = ExpectWord("PARTIAL"); !s.ok()) return s;
      *allow_partial = true;
      return util::Status::Ok();
    }
    if (ConsumeWord("STRICT")) {
      *allow_partial = false;
    }
    return util::Status::Ok();
  }

  util::Result<ParsedQuery> ParseRange() {
    Advance();  // SELECT
    RangeQuerySpec spec;
    if (ConsumeWord("ALL")) {
      spec.scope = RangeQuerySpec::Scope::kAll;
    } else if (ConsumeWord("MUST")) {
      spec.scope = RangeQuerySpec::Scope::kMust;
    } else if (ConsumeWord("MAY")) {
      spec.scope = RangeQuerySpec::Scope::kMay;
    } else {
      return Error("expected ALL, MUST, or MAY after SELECT");
    }
    if (util::Status s = ExpectWord("INSIDE"); !s.ok()) return s;
    if (util::Status s = ParseRegion(&spec.region, &spec.region_text);
        !s.ok()) {
      return s;
    }
    if (util::Status s =
            ParseWhen(&spec.windowed, &spec.time, &spec.window_end);
        !s.ok()) {
      return s;
    }
    if (util::Status s = ParsePartiality(&spec.allow_partial); !s.ok()) {
      return s;
    }
    return ParsedQuery{spec};
  }

  util::Result<ParsedQuery> ParseSubscribe() {
    Advance();  // SUBSCRIBE
    SubscribeSpec spec;
    if (util::Status s = ExpectInteger(
            &spec.id, "subscription id must be a nonnegative integer");
        !s.ok()) {
      return s;
    }
    if (util::Status s = ExpectWord("TO"); !s.ok()) return s;
    if (ConsumeWord("ALL")) {
      spec.subscription.mode = SubscriptionMode::kAll;
    } else if (ConsumeWord("MUST")) {
      spec.subscription.mode = SubscriptionMode::kMust;
    } else if (ConsumeWord("MAY")) {
      spec.subscription.mode = SubscriptionMode::kMay;
    } else {
      return Error("expected ALL, MUST, or MAY after TO");
    }
    if (util::Status s = ExpectWord("INSIDE"); !s.ok()) return s;
    if (util::Status s = ParseRegion(&spec.subscription.region,
                                     &spec.subscription.region_text);
        !s.ok()) {
      return s;
    }
    if (util::Status s =
            ParseWhen(&spec.subscription.windowed, &spec.subscription.time,
                      &spec.subscription.window_end);
        !s.ok()) {
      return s;
    }
    return ParsedQuery{spec};
  }

  util::Result<ParsedQuery> ParseUnsubscribe() {
    Advance();  // UNSUBSCRIBE
    UnsubscribeSpec spec;
    if (util::Status s = ExpectInteger(
            &spec.id, "subscription id must be a nonnegative integer");
        !s.ok()) {
      return s;
    }
    return ParsedQuery{spec};
  }

  util::Result<ParsedQuery> ParseNearest() {
    Advance();  // NEAREST
    std::uint64_t k = 0;
    if (util::Status s = ExpectInteger(&k, "k must be a positive integer");
        !s.ok()) {
      return s;
    }
    if (k == 0) return Error("k must be a positive integer");
    if (util::Status s = ExpectWord("TO"); !s.ok()) return s;
    if (util::Status s = ExpectWord("POINT"); !s.ok()) return s;
    double v[2];
    if (util::Status s = ParseNumberList(2, v); !s.ok()) return s;
    if (util::Status s = ExpectWord("AT"); !s.ok()) return s;
    double t = 0.0;
    if (util::Status s = ExpectNumber(&t); !s.ok()) return s;
    NearestQuerySpec spec;
    spec.k = k;
    spec.point = {v[0], v[1]};
    spec.time = t;
    if (util::Status s = ParsePartiality(&spec.allow_partial); !s.ok()) {
      return s;
    }
    return ParsedQuery{spec};
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
};

// ---- Evaluation / formatting ----

void AppendIdList(std::string* out,
                  const std::vector<core::ObjectId>& ids,
                  const std::vector<double>* probabilities = nullptr) {
  if (ids.empty()) {
    *out += " (none)";
    return;
  }
  char buf[64];
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (probabilities != nullptr && i < probabilities->size()) {
      std::snprintf(buf, sizeof(buf), " %llu(p=%.2f)",
                    static_cast<unsigned long long>(ids[i]),
                    (*probabilities)[i]);
    } else {
      std::snprintf(buf, sizeof(buf), " %llu",
                    static_cast<unsigned long long>(ids[i]));
    }
    *out += buf;
  }
}

std::string FormatPosition(const PositionAnswer& answer) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "object %llu at t=%g: %s on route %u (distance %.3f), "
                "bound %.3f, interval [%.3f, %.3f]",
                static_cast<unsigned long long>(answer.id),
                answer.query_time, answer.position.ToString().c_str(),
                answer.route, answer.route_distance, answer.deviation_bound,
                answer.uncertainty.lo, answer.uncertainty.hi);
  return buf;
}

std::string FormatRange(const RangeQuerySpec& spec, const RangeAnswer& answer) {
  std::string out = "inside " + spec.region_text + " at t=" +
                    std::to_string(answer.query_time) + ":";
  if (spec.scope != RangeQuerySpec::Scope::kMay) {
    out += "\n  MUST:";
    AppendIdList(&out, answer.must);
  }
  if (spec.scope != RangeQuerySpec::Scope::kMust) {
    out += "\n  MAY:";
    AppendIdList(&out, answer.may, &answer.may_probability);
  }
  return out;
}

std::string FormatWindow(const RangeQuerySpec& spec,
                         const IntervalRangeAnswer& answer) {
  char head[128];
  std::snprintf(head, sizeof(head), "inside %s during [%g, %g]:",
                spec.region_text.c_str(), answer.window_start,
                answer.window_end);
  std::string out = head;
  if (spec.scope != RangeQuerySpec::Scope::kMay) {
    out += "\n  MUST at some instant:";
    AppendIdList(&out, answer.must_at_some_time);
  }
  if (spec.scope != RangeQuerySpec::Scope::kMust) {
    out += "\n  MAY within window:";
    AppendIdList(&out, answer.may);
  }
  return out;
}

std::string FormatNearest(const NearestQuerySpec& spec,
                          const NearestAnswer& answer) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "nearest %zu to (%g, %g) at t=%g:",
                spec.k, spec.point.x, spec.point.y, spec.time);
  std::string out = buf;
  if (answer.items.empty()) out += "\n  (no objects)";
  for (const auto& item : answer.items) {
    std::snprintf(buf, sizeof(buf),
                  "\n  object %llu: distance %.3f (possible %.3f .. %.3f)",
                  static_cast<unsigned long long>(item.id), item.db_distance,
                  item.min_possible_distance, item.max_possible_distance);
    out += buf;
  }
  return out;
}

std::string FormatSubscribed(const SubscribeSpec& spec) {
  const SubscriptionSpec& sub = spec.subscription;
  char buf[192];
  if (sub.windowed) {
    std::snprintf(buf, sizeof(buf), "subscribed %llu: %s inside %s during "
                  "[%g, %g]",
                  static_cast<unsigned long long>(spec.id),
                  std::string(SubscriptionModeName(sub.mode)).c_str(),
                  sub.region_text.c_str(), sub.time, sub.window_end);
  } else {
    std::snprintf(buf, sizeof(buf), "subscribed %llu: %s inside %s at t=%g",
                  static_cast<unsigned long long>(spec.id),
                  std::string(SubscriptionModeName(sub.mode)).c_str(),
                  sub.region_text.c_str(), sub.time);
  }
  return buf;
}

// ---- Degraded reads ----

std::string ExcludedShardList(const QueryCompleteness& completeness) {
  std::string out;
  for (std::size_t s : completeness.excluded_shards) {
    if (!out.empty()) out += ", ";
    out += std::to_string(s);
  }
  return out;
}

// `rendered`, the answer's text, when the answer is complete. A partial
// one is refused with the typed Unavailable unless the query opted in
// with ALLOW PARTIAL (STRICT gate); an accepted one gets a suffix naming
// the excluded shards. MUST entries are still sound (each listed object
// provably satisfies the predicate); the lists are lower bounds because
// the excluded shards' objects are unseen.
util::Result<std::string> Gated(const QueryCompleteness& completeness,
                                bool allow_partial, std::string rendered) {
  if (completeness.complete) return rendered;
  if (!allow_partial) {
    return util::Status::Unavailable(
        "partial answer refused (STRICT): shard(s) " +
        ExcludedShardList(completeness) +
        " quarantined; retry later or query with ALLOW PARTIAL");
  }
  return rendered + "\n  partial (excluded shards: " +
         ExcludedShardList(completeness) +
         "; listed MUST answers remain sound)";
}

// SUBSCRIBE, UNSUBSCRIBE and EVENTS reach the engine attached to an
// unsharded store, or the sharded store's own registry.
util::Result<SubscriptionEngine*> RegistryOf(const ModDatabase& db) {
  SubscriptionEngine* engine = db.subscriptions();
  if (engine == nullptr) {
    return util::Status::FailedPrecondition(
        "no subscription engine attached (see "
        "ModDatabase::AttachSubscriptions)");
  }
  return engine;
}

util::Result<ShardedModDatabase*> RegistryOf(ShardedModDatabase& db) {
  if (!db.subscriptions_enabled()) {
    return util::Status::FailedPrecondition(
        "subscriptions are not enabled on this database");
  }
  return &db;
}

/// `ExecuteQuery` on either store. An unsharded store's answers always
/// read complete, so the STRICT gate passes and the partial suffix is
/// empty there.
template <typename Store>
util::Result<std::string> Execute(Store& db, std::string_view text) {
  const auto parsed = ParseQuery(text);
  if (!parsed.ok()) return parsed.status();

  if (const auto* position = std::get_if<PositionQuerySpec>(&*parsed)) {
    // Per-object: the owning shard either answers or is down — the
    // Unavailable (with its retry hint) passes through untouched.
    const auto answer = db.QueryPosition(position->id, position->time);
    if (!answer.ok()) return answer.status();
    return FormatPosition(*answer);
  }
  if (const auto* range = std::get_if<RangeQuerySpec>(&*parsed)) {
    if (range->windowed) {
      const IntervalRangeAnswer answer = db.QueryRangeInterval(
          range->region, range->time, range->window_end);
      return Gated(answer.completeness, range->allow_partial,
                   FormatWindow(*range, answer));
    }
    const RangeAnswer answer = db.QueryRange(range->region, range->time);
    return Gated(answer.completeness, range->allow_partial,
                 FormatRange(*range, answer));
  }
  if (const auto* nearest = std::get_if<NearestQuerySpec>(&*parsed)) {
    const NearestAnswer answer =
        db.QueryNearest(nearest->point, nearest->k, nearest->time);
    return Gated(answer.completeness, nearest->allow_partial,
                 FormatNearest(*nearest, answer));
  }
  const auto registry = RegistryOf(db);
  if (!registry.ok()) return registry.status();
  if (const auto* subscribe = std::get_if<SubscribeSpec>(&*parsed)) {
    if (util::Status status =
            (*registry)->Subscribe(subscribe->id, subscribe->subscription);
        !status.ok()) {
      return status;
    }
    return FormatSubscribed(*subscribe);
  }
  if (const auto* unsubscribe = std::get_if<UnsubscribeSpec>(&*parsed)) {
    if (util::Status status = (*registry)->Unsubscribe(unsubscribe->id);
        !status.ok()) {
      return status;
    }
    return "unsubscribed " + std::to_string(unsubscribe->id);
  }
  std::vector<SubscriptionEvent> events;  // EventsSpec
  if constexpr (std::is_same_v<Store, ShardedModDatabase>) {
    events = db.TakeSubscriptionEvents();
  } else {
    events = (*registry)->TakeEvents(db.subscription_partition());
  }
  std::string out = "events:";
  if (events.empty()) return out + " (none)";
  for (const auto& event : events) {
    out += "\n  " + event.ToString();
  }
  return out;
}

}  // namespace

util::Result<ParsedQuery> ParseQuery(std::string_view text) {
  auto tokens = Lex(text);
  if (!tokens.ok()) return tokens.status();
  Parser parser(std::move(tokens).value());
  return parser.Parse();
}

util::Result<std::string> ExecuteQuery(const ModDatabase& db,
                                       std::string_view text) {
  return Execute(db, text);
}

util::Result<std::string> ExecuteQuery(ShardedModDatabase& db,
                                       std::string_view text) {
  return Execute(db, text);
}

}  // namespace modb::db
