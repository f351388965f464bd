#include "common/config.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "common/error.hpp"

namespace rltherm {
namespace {

const char* kSample = R"(
# machine parameters
top_level = 42

[machine]
cores = 4          ; inline comment
tick = 0.01
warm_start = true
name = quad core

[manager]
gamma = 0.75
adaptive_sampling = off
)";

TEST(ConfigFileTest, ParsesSectionsAndKeys) {
  const ConfigFile config = ConfigFile::parse(kSample);
  EXPECT_TRUE(config.has("machine", "cores"));
  EXPECT_TRUE(config.has("", "top_level"));
  EXPECT_FALSE(config.has("machine", "missing"));
  EXPECT_FALSE(config.has("missing", "cores"));
}

TEST(ConfigFileTest, TypedGetters) {
  const ConfigFile config = ConfigFile::parse(kSample);
  EXPECT_EQ(config.getInt("machine", "cores", 0), 4);
  EXPECT_DOUBLE_EQ(config.getDouble("machine", "tick", 0.0), 0.01);
  EXPECT_TRUE(config.getBool("machine", "warm_start", false));
  EXPECT_FALSE(config.getBool("manager", "adaptive_sampling", true));
  EXPECT_EQ(config.getString("machine", "name", ""), "quad core");
  EXPECT_EQ(config.getInt("", "top_level", 0), 42);
}

TEST(ConfigFileTest, FallbacksWhenAbsent) {
  const ConfigFile config = ConfigFile::parse(kSample);
  EXPECT_EQ(config.getInt("machine", "missing", 7), 7);
  EXPECT_DOUBLE_EQ(config.getDouble("nope", "x", 1.5), 1.5);
  EXPECT_TRUE(config.getBool("nope", "x", true));
  EXPECT_EQ(config.getString("nope", "x", "dflt"), "dflt");
}

TEST(ConfigFileTest, MalformedValuesThrowOnTypedAccess) {
  ConfigFile config = ConfigFile::parse("[s]\nx = hello\ny = 1.5abc\n");
  EXPECT_THROW((void)config.getDouble("s", "x", 0.0), PreconditionError);
  EXPECT_THROW((void)config.getInt("s", "x", 0), PreconditionError);
  EXPECT_THROW((void)config.getBool("s", "x", false), PreconditionError);
  EXPECT_THROW((void)config.getDouble("s", "y", 0.0), PreconditionError);
  EXPECT_EQ(config.getString("s", "x", ""), "hello");  // strings always fine
}

TEST(ConfigFileTest, BooleanSpellings) {
  const ConfigFile config =
      ConfigFile::parse("[b]\na=TRUE\nb=No\nc=on\nd=0\ne=Yes\nf=OFF\n");
  EXPECT_TRUE(config.getBool("b", "a", false));
  EXPECT_FALSE(config.getBool("b", "b", true));
  EXPECT_TRUE(config.getBool("b", "c", false));
  EXPECT_FALSE(config.getBool("b", "d", true));
  EXPECT_TRUE(config.getBool("b", "e", false));
  EXPECT_FALSE(config.getBool("b", "f", true));
}

TEST(ConfigFileTest, ParseErrorsCarryLineNumbers) {
  try {
    (void)ConfigFile::parse("ok = 1\n[broken\n");
    FAIL() << "expected parse error";
  } catch (const PreconditionError& error) {
    EXPECT_NE(std::string(error.what()).find("line 2"), std::string::npos);
  }
  EXPECT_THROW((void)ConfigFile::parse("just a line without equals\n"),
               PreconditionError);
  EXPECT_THROW((void)ConfigFile::parse("= value\n"), PreconditionError);
}

TEST(ConfigFileTest, LaterValuesOverrideEarlier) {
  const ConfigFile config = ConfigFile::parse("[s]\nx = 1\nx = 2\n");
  EXPECT_EQ(config.getInt("s", "x", 0), 2);
  EXPECT_EQ(config.keys("s").size(), 1u);
}

TEST(ConfigFileTest, OrderPreserved) {
  const ConfigFile config = ConfigFile::parse("[z]\nb=1\na=2\n[a]\nx=1\n");
  const std::vector<std::string> sections = config.sections();
  ASSERT_EQ(sections.size(), 2u);
  EXPECT_EQ(sections[0], "z");
  EXPECT_EQ(sections[1], "a");
  EXPECT_EQ(config.keys("z"), (std::vector<std::string>{"b", "a"}));
}

TEST(ConfigFileTest, SetProgrammatically) {
  ConfigFile config;
  config.set("s", "k", "10");
  EXPECT_EQ(config.getInt("s", "k", 0), 10);
  config.set("s", "k", "20");
  EXPECT_EQ(config.getInt("s", "k", 0), 20);
}

TEST(ConfigFileTest, StreamParsing) {
  std::istringstream in("[s]\nx = 3\n");
  const ConfigFile config = ConfigFile::parse(in);
  EXPECT_EQ(config.getInt("s", "x", 0), 3);
}

TEST(ConfigFileTest, UnknownKeyReportsTheLineOfItsLastAssignment) {
  const ConfigFile config = ConfigFile::parse("# header\n[s]\nx = 1\n\ny = 2\nx = 3\n");
  try {
    config.requireKnownKeys([](const ConfigFile& probe) { (void)probe.has("s", "y"); },
                            "g.ini");
    FAIL() << "an unread key was accepted";
  } catch (const PreconditionError& error) {
    EXPECT_STREQ(error.what(), "g.ini:6: unknown key 'x' in [s]");
  }
}

TEST(ConfigFileTest, RequireKnownKeysRejectsTheFirstUnreadKey) {
  const ConfigFile config = ConfigFile::parse("[s]\nread = 1\nunread = 2\nlater = 3\n");
  const auto readOne = [](const ConfigFile& probe) { (void)probe.getInt("s", "read", 0); };
  try {
    config.requireKnownKeys(readOne, "f.ini");
    FAIL() << "an unread key was accepted";
  } catch (const PreconditionError& error) {
    EXPECT_STREQ(error.what(), "f.ini:3: unknown key 'unread' in [s]");
  }
  EXPECT_NO_THROW(config.requireKnownKeys(
      [](const ConfigFile& probe) {
        for (const char* key : {"read", "unread", "later"}) (void)probe.has("s", key);
      },
      "f.ini"));
}

}  // namespace
}  // namespace rltherm
