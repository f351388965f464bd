// The TOML-subset reader behind `--config` files and fault scenarios
// (common/toml.hpp): grammar, typed reads, line-numbered diagnostics and the
// unread-key check. The suite keeps its ConfigFileTest name from the INI
// reader it replaced.
#include "common/toml.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace rltherm {
namespace {

const char* kSample = R"(
# machine parameters
[machine]
cores = 4          # inline comment
tick = 0.01
warm_start = true
name = "quad \"#1\" core"   # a '#' inside a string is text

[manager]
gamma = 0.75
adaptive_sampling = false
seed = 18446744073709551615
)";

std::string messageOf(const std::function<void()>& thrower) {
  try {
    thrower();
  } catch (const PreconditionError& error) {
    return error.what();
  }
  ADD_FAILURE() << "expected a PreconditionError";
  return {};
}

TEST(ConfigFileTest, ParsesSectionsAndKeys) {
  TomlDocument doc = TomlDocument::parse(kSample, "s.toml");
  TomlDocument::Table* machine = doc.table("machine");
  ASSERT_NE(machine, nullptr);
  EXPECT_EQ(machine->line, 3u);
  ASSERT_EQ(machine->entries.size(), 4u);
  EXPECT_EQ(machine->entries[0].key, "cores");
  EXPECT_EQ(machine->entries[0].token, "4");
  EXPECT_EQ(machine->entries[3].token, R"("quad \"#1\" core")");
  EXPECT_NE(doc.table("manager"), nullptr);
  EXPECT_EQ(doc.table("missing"), nullptr);
  EXPECT_TRUE(doc.root().entries.empty());
  EXPECT_TRUE(doc.tables("machine").empty());  // [machine] is not a [[machine]]
}

TEST(ConfigFileTest, TypedGetters) {
  TomlDocument doc = TomlDocument::parse(kSample, "s.toml");
  TomlDocument::Table& machine = *doc.table("machine");
  TomlDocument::Table& manager = *doc.table("manager");
  std::size_t cores = 0;
  double tick = 0.0;
  bool warm = false;
  std::string name;
  double gamma = 0.0;
  bool adaptive = true;
  std::uint64_t seed = 0;
  ASSERT_NE(doc.read(machine, "cores", cores), nullptr);
  EXPECT_EQ(doc.read(machine, "tick", tick)->line, 5u);
  doc.read(machine, "warm_start", warm);
  doc.read(machine, "name", name);
  doc.read(manager, "gamma", gamma);
  doc.read(manager, "adaptive_sampling", adaptive);
  doc.read(manager, "seed", seed);
  EXPECT_EQ(cores, 4u);
  EXPECT_DOUBLE_EQ(tick, 0.01);
  EXPECT_TRUE(warm);
  EXPECT_EQ(name, "quad \"#1\" core");
  EXPECT_DOUBLE_EQ(gamma, 0.75);
  EXPECT_FALSE(adaptive);
  EXPECT_EQ(seed, UINT64_MAX);  // exact past 2^53
  EXPECT_NO_THROW(doc.rejectUnread());
}

TEST(ConfigFileTest, FallbacksWhenAbsent) {
  TomlDocument doc = TomlDocument::parse(kSample, "s.toml");
  TomlDocument::Table& machine = *doc.table("machine");
  std::size_t missing = 7;
  double x = 1.5;
  bool flag = true;
  std::string text = "dflt";
  EXPECT_EQ(doc.read(machine, "missing", missing), nullptr);
  EXPECT_EQ(doc.read(machine, "x", x), nullptr);
  EXPECT_EQ(doc.read(machine, "flag", flag), nullptr);
  EXPECT_EQ(doc.read(machine, "text", text), nullptr);
  EXPECT_EQ(missing, 7u);
  EXPECT_DOUBLE_EQ(x, 1.5);
  EXPECT_TRUE(flag);
  EXPECT_EQ(text, "dflt");
}

TEST(ConfigFileTest, MalformedValuesThrowOnTypedAccess) {
  const auto readAs = [](const char* token, auto out) {
    return messageOf([&] {
      TomlDocument doc = TomlDocument::parse(std::string("[s]\nx = ") + token + "\n", "m.toml");
      doc.read(*doc.table("s"), "x", out);
    });
  };
  EXPECT_EQ(readAs("hello", 0.0), "m.toml:2: key 'x' has malformed number 'hello'");
  EXPECT_EQ(readAs("1.5abc", 0.0), "m.toml:2: key 'x' has malformed number '1.5abc'");
  EXPECT_EQ(readAs("+5", 0.0), "m.toml:2: key 'x' has malformed number '+5'");
  EXPECT_EQ(readAs(".5", 0.0), "m.toml:2: key 'x' has malformed number '.5'");
  EXPECT_EQ(readAs("1e999", 0.0), "m.toml:2: key 'x' has malformed number '1e999'");
  EXPECT_EQ(readAs("\"1.5\"", 0.0), "m.toml:2: key 'x' must be a number, got a string");
  EXPECT_EQ(readAs("1.5", std::size_t{0}),
            "m.toml:2: key 'x' must be a non-negative integer, got '1.5'");
  EXPECT_EQ(readAs("-1", std::uint64_t{0}),
            "m.toml:2: key 'x' must be a non-negative integer, got '-1'");
  EXPECT_EQ(readAs("18446744073709551616", std::uint64_t{0}),
            "m.toml:2: key 'x' must be a non-negative integer, got '18446744073709551616'");
  EXPECT_EQ(readAs("256", std::uint8_t{0}),
            "m.toml:2: key 'x' must be a non-negative integer, got '256'");
  EXPECT_EQ(readAs("yes", false), "m.toml:2: key 'x' must be true or false, got 'yes'");
  EXPECT_EQ(readAs("1", false), "m.toml:2: key 'x' must be true or false, got '1'");
  EXPECT_EQ(readAs("hello", std::string()), "m.toml:2: key 'x' must be a quoted string");
  EXPECT_EQ(readAs(R"("a\q")", std::string()),
            "m.toml:2: key 'x' has a malformed string: unsupported escape '\\q'");
}

TEST(ConfigFileTest, ParseErrorsCarryLineNumbers) {
  const std::pair<const char*, const char*> cases[] = {
      {"[a]\nok = 1\n[broken\n", "p.toml:3: unterminated table header '[broken'"},
      {"[[a]\n", "p.toml:1: unterminated table header '[[a]'"},
      {"[a b]\n", "p.toml:1: malformed table header '[a b]'"},
      {"[a] x\n", "p.toml:1: malformed table header '[a] x'"},
      {"[a]\n[b]\n[a]\n", "p.toml:3: duplicate table '[a]'"},
      {"[a]\njust a line without equals\n",
       "p.toml:2: expected 'key = value', got 'just a line without equals'"},
      {"[a]\n; comment\n", "p.toml:2: expected 'key = value', got '; comment'"},
      {"= value\n", "p.toml:1: empty key before '='"},
      {"[a]\nk y = 1\n", "p.toml:2: invalid key 'k y'"},
      {"[a]\nx =   # nothing\n", "p.toml:2: key 'x' has no value"},
      {"[a]\nx = \"abc\n", "p.toml:2: unterminated string for key 'x'"},
      {"[a]\nx = \"ab\\\"\n", "p.toml:2: unterminated string for key 'x'"},
      {"[a]\nx = \"a\" b\n", "p.toml:2: unexpected text after the string for key 'x'"},
      {"[a]\nx = 1\n\nx = 2\n", "p.toml:4: duplicate key 'x' in [a]"},
      {"x = 1\nx = 2\n", "p.toml:2: duplicate key 'x'"},
  };
  for (const auto& [text, expected] : cases) {
    EXPECT_EQ(messageOf([&] { (void)TomlDocument::parse(text, "p.toml"); }), expected)
        << text;
  }
  // CRLF line ends and a header comment are fine.
  TomlDocument doc = TomlDocument::parse("[a]  # note\r\nx = 1\r\n", "p.toml");
  double x = 0.0;
  doc.read(*doc.table("a"), "x", x);
  EXPECT_DOUBLE_EQ(x, 1.0);
}

TEST(ConfigFileTest, OrderPreserved) {
  TomlDocument doc =
      TomlDocument::parse("[[e]]\nn = 1\n[z]\nb = 1\na = 2\n[[e]]\nn = 2\n[[e]]\nn = 3\n",
                          "o.toml");
  const std::vector<TomlDocument::Table*> elements = doc.tables("e");
  ASSERT_EQ(elements.size(), 3u);
  for (std::size_t i = 0; i < elements.size(); ++i) {
    std::size_t n = 0;
    doc.read(*elements[i], "n", n);
    EXPECT_EQ(n, i + 1);
  }
  EXPECT_EQ(elements[1]->line, 6u);
  const TomlDocument::Table& z = *doc.table("z");
  ASSERT_EQ(z.entries.size(), 2u);
  EXPECT_EQ(z.entries[0].key, "b");
  EXPECT_EQ(z.entries[1].key, "a");
}

TEST(ConfigFileTest, RequireKnownKeysRejectsTheFirstUnreadKey) {
  const char* text = "[s]\nread = 1\nunread = 2\nlater = 3\n[t]\n";
  TomlDocument doc = TomlDocument::parse(text, "f.toml");
  double value = 0.0;
  doc.read(*doc.table("s"), "read", value);
  EXPECT_EQ(messageOf([&] { doc.rejectUnread(); }), "f.toml:3: unknown key 'unread' in [s]");
  EXPECT_EQ(messageOf([&] { doc.rejectUnread(*doc.table("s")); }),
            "f.toml:3: unknown key 'unread' in [s]");
  doc.read(*doc.table("s"), "unread", value);
  doc.read(*doc.table("s"), "later", value);
  EXPECT_NO_THROW(doc.rejectUnread(*doc.table("s")));  // [t] is not checked here
  EXPECT_EQ(messageOf([&] { doc.rejectUnread(); }), "f.toml:5: unknown table '[t]'");
  (void)doc.table("t");
  EXPECT_NO_THROW(doc.rejectUnread());

  TomlDocument root = TomlDocument::parse("seed = 3\n[[e]]\n", "r.toml");
  EXPECT_EQ(messageOf([&] { root.rejectUnread(); }),
            "r.toml:1: unknown key 'seed' outside any table");
  double seed = 0.0;
  root.read(root.root(), "seed", seed);
  EXPECT_EQ(messageOf([&] { root.rejectUnread(); }), "r.toml:2: unknown table '[[e]]'");
}

}  // namespace
}  // namespace rltherm
