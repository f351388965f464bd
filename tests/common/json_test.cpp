// The shared JSON reader and writer (common/json.hpp): the value model and
// round trip, the strict grammar's rejects with their messages, exact
// integer access, a byte-for-byte round trip of the committed trajectory,
// and a seeded byte-mutation run (ctest label `fuzz`) over the committed
// JSON artifacts and the serve protocol's golden lines.
#include "common/json.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace rltherm {
namespace {

std::string slurp(const std::string& repoRelative) {
  std::ifstream in(std::string(RLTHERM_REPO_ROOT) + "/" + repoRelative, std::ios::binary);
  EXPECT_TRUE(in.good()) << repoRelative;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(PerfJsonTest, ParsesScalarsArraysObjectsAndEscapes) {
  const JsonParseResult parsed = parseJson(
      R"({"a":1.5,"b":[true,false,null],"c":{"d":"x\n\"yA"},"e":-2e3})");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const JsonValue& doc = parsed.value;
  EXPECT_DOUBLE_EQ(doc.numberOr("a", 0.0), 1.5);
  const JsonValue* b = doc.find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->items.size(), 3u);
  EXPECT_TRUE(b->items[0].boolean);
  EXPECT_EQ(b->items[2].kind, JsonValue::Kind::Null);
  const JsonValue* c = doc.find("c");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->stringOr("d", ""), "x\n\"yA");
  EXPECT_DOUBLE_EQ(doc.numberOr("e", 0.0), -2000.0);
}

TEST(PerfJsonTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(parseJson("").ok());
  EXPECT_FALSE(parseJson("{").ok());
  EXPECT_FALSE(parseJson(R"({"a":})").ok());
  EXPECT_FALSE(parseJson(R"({"a":1} trailing)").ok());
  EXPECT_FALSE(parseJson(R"({"a" 1})").ok());
  EXPECT_FALSE(parseJson(R"(["unterminated)").ok());
}

TEST(PerfJsonTest, WriteParseRoundTripPreservesOrderAndValues) {
  const std::string original =
      R"({"z":1,"a":[2.5,"s"],"m":{"k":true},"n":null})";
  const JsonParseResult parsed = parseJson(original);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  std::string emitted;
  writeJson(parsed.value, emitted);
  EXPECT_EQ(emitted, original);  // insertion order preserved, not sorted
}

TEST(JsonParseTest, RejectsHostileInputWithAMessage) {
  const std::string deep = std::string(kMaxJsonDepth + 1, '[') +
                           std::string(kMaxJsonDepth + 1, ']');
  struct Case {
    std::string input;
    std::string error;
  };
  const std::vector<Case> cases = {
      {deep, "nesting deeper than 64 levels"},
      {std::string(1000000, '['), "nesting deeper than 64 levels"},
      {"+1", "invalid number '+1'"},
      {"01", "invalid number '01'"},
      {"1.", "invalid number '1.'"},
      {"[-]", "invalid number '-'"},
      {"1e999", "number out of range '1e999'"},
      {"\"a\x01z\"", "raw control character in string"},
      {R"("\ud800")", "lone surrogate in \\u escape"},
      {R"("\udc00")", "lone surrogate in \\u escape"},
      {R"("\ud800A")", "lone surrogate in \\u escape"},
      {R"("\uZZZZ")", "bad hex digit in \\u escape"},
      {R"("\u12)", "truncated \\u escape"},
      {R"("\q")", "unsupported escape '\\q'"},
      {R"({"a":1,"a":2})", "duplicate key 'a'"},
      {R"({"a":1} x)", "trailing characters after the JSON value"},
      {R"({"a":1,})", "expected '\"' to open a key"},
      {R"({"a" 1})", "expected ':' after key 'a'"},
      {R"({"a":1 "b":2})", "expected ',' or '}' after an object member"},
      {"[1 2]", "expected ',' or ']' after an array element"},
      {"[nul]", "expected a JSON value"},
      {"\"open", "unterminated string"},
      {"", "unexpected end of input"},
  };
  for (const Case& c : cases) {
    const JsonParseResult parsed = parseJson(c.input);
    EXPECT_EQ(parsed.error, c.error) << c.input.substr(0, 40);
    EXPECT_LE(parsed.offset, c.input.size());
    EXPECT_EQ(parsed.value.kind, JsonValue::Kind::Null);
  }
}

TEST(JsonParseTest, AcceptsTheFullGrammar) {
  const std::string deepest = std::string(kMaxJsonDepth, '[') +
                              std::string(kMaxJsonDepth, ']');
  EXPECT_TRUE(parseJson(deepest).ok());
  const JsonParseResult text =
      parseJson(R"(["\u00e9\u20AC\ud83d\ude00", "\/\b\f\r\t", " \u0000 "])");
  ASSERT_TRUE(text.ok()) << text.error;
  EXPECT_EQ(text.value.items[0].text, "\xC3\xA9\xE2\x82\xAC\xF0\x9F\x98\x80");
  EXPECT_EQ(text.value.items[1].text, "/\b\f\r\t");
  EXPECT_EQ(text.value.items[2].text, std::string(" \0 ", 3));
  for (const char* scalar : {"0", "-0", "0.5e-3", "1E+2", "true", "null", " \"s\" "}) {
    EXPECT_TRUE(parseJson(scalar).ok()) << scalar;
  }
}

TEST(JsonParseTest, IntegerAccessorsAreExactAndReportOverflow) {
  const JsonParseResult parsed = parseJson(
      R"([18446744073709551615, 18446744073709551616, 9007199254740993,
          -9223372036854775808, -1, 1.0, 1e3, "7"])");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const std::vector<JsonValue>& n = parsed.value.items;
  EXPECT_EQ(n[0].asUint64(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(n[1].asUint64(), std::nullopt);  // 2^64: overflow, not saturated
  EXPECT_EQ(n[2].asUint64(), 9007199254740993u);  // 2^53 + 1, exact
  EXPECT_EQ(n[3].asInt64(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(n[4].asUint64(), std::nullopt);
  EXPECT_EQ(n[4].asInt64(), -1);
  EXPECT_EQ(n[5].asInt64(), std::nullopt);  // integer value, fraction syntax
  EXPECT_EQ(n[6].asInt64(), std::nullopt);
  EXPECT_EQ(n[7].asInt64(), std::nullopt);  // a string is not a number
  EXPECT_EQ(JsonValue::makeNumber(3.0).asInt64(), std::nullopt);
}

TEST(JsonWriteTest, TrajectoryRoundTripsByteForByte) {
  const std::string committed = slurp("BENCH_trajectory.json");
  const JsonParseResult parsed = parseJson(committed);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  std::string emitted;
  writeJson(parsed.value, emitted);
  EXPECT_EQ(emitted + "\n", committed);
}

// Every mutant either parses or returns an error with an in-range offset; a
// mutant that parses re-emits as JSON that parses again and re-emits
// identically. Fixed seed and count, so a failure replays exactly.
TEST(JsonFuzzTest, MutantsEitherParseOrReturnAnError) {
  std::vector<std::string> seeds = {
      slurp("BENCH_trajectory.json"),
      slurp("bench/baselines/BENCH_micro.json"),
      slurp("tools/lint_baseline.json"),
      slurp("tests/lint/fixtures/violations_expected.json"),
      R"({"cmd":"admit","tenant":"t0","seed":7})",
      R"({"cmd":"admit","tenant":"t","gamma":2})",
      R"({"cmd":"admit","tenant":"t","seed":18446744073709551615,"dataset":1})",
      R"({"cmd":"step","passes":1})",
      R"({"cmd":"query","tenant":"t0"})",
      R"({"cmd":"evict","fingerprint":"0000000000000000"})",
      R"({"cmd":"stats"})",
      R"({"cmd":"shutdown"})",
      R"({"ok":true,"cmd":"step","passes":1,"admitted":0,"trained":0,"advanced":0,"completed":0})",
      R"({"ok":false,"error":"test:7: unsupported escape '\\q'"})",
  };
  for (const std::string& seed : seeds) {
    ASSERT_TRUE(parseJson(seed).ok()) << seed.substr(0, 60);
  }
  const std::string alphabet = "{}[]\",:\\-+.0123456789eEtfnul \x01\x7f\xff";
  Rng rng(0x5EEDF00DULL);
  const auto below = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.uniformInt(static_cast<std::uint64_t>(n)));
  };
  std::size_t parsedCount = 0;
  std::size_t rejectedCount = 0;
  for (int mutant = 0; mutant < 4000; ++mutant) {
    std::string text = seeds[below(seeds.size())];
    const std::size_t edits = 1 + below(3);
    for (std::size_t e = 0; e < edits && !text.empty(); ++e) {
      const std::size_t at = below(text.size());
      switch (below(4)) {
        case 0:  // flip one bit
          text[at] = static_cast<char>(text[at] ^ (1 << below(8)));
          break;
        case 1:  // insert a JSON-significant or arbitrary byte
          text.insert(at, 1,
                      below(2) == 0 ? alphabet[below(alphabet.size())]
                                    : static_cast<char>(below(256)));
          break;
        case 2:  // delete one byte
          text.erase(at, 1);
          break;
        default:  // truncate
          text.resize(at);
          break;
      }
    }
    const JsonParseResult parsed = parseJson(text);
    if (!parsed.ok()) {
      ++rejectedCount;
      ASSERT_LE(parsed.offset, text.size()) << parsed.error;
      continue;
    }
    ++parsedCount;
    std::string emitted;
    writeJson(parsed.value, emitted);
    const JsonParseResult again = parseJson(emitted);
    ASSERT_TRUE(again.ok()) << again.error << " in " << emitted.substr(0, 80);
    std::string reemitted;
    writeJson(again.value, reemitted);
    ASSERT_EQ(reemitted, emitted);
  }
  // Vacuity: the mutator must produce both outcomes, or one branch is dead.
  EXPECT_GT(parsedCount, 100u);
  EXPECT_GT(rejectedCount, 100u);
}

}  // namespace
}  // namespace rltherm
