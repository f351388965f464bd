// Serve-protocol contract tests: the line protocol's strict parser produces
// GOLDEN diagnostics (exact strings, pinned here) for malformed, unknown, and
// oversized commands; happy-path responses are stable JSON; line numbers
// advance per input line; and the protocol counters fire. Only the seed
// echo test runs a pass (and so trains one policy); every golden diagnostic
// is produced before any admission reaches the service.
#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <string>

#include "obs/metrics.hpp"
#include "obs/session.hpp"
#include "serve/fleet.hpp"

namespace rltherm::serve {
namespace {

/// Tiny service: only the seed echo test runs a pass, so the short training
/// window is paid once; elsewhere it only needs to exist for the session to
/// point at.
FleetServiceConfig tinyConfig() {
  FleetServiceConfig config;
  config.jobs = 1;
  config.trainSimTime = 60.0;
  return config;
}

class ProtocolTest : public ::testing::Test {
 protected:
  ProtocolTest() : service_(tinyConfig()), session_(service_, "test") {}

  /// Runs one line and returns the response verbatim.
  std::string respond(const std::string& line) { return session_.handleLine(line); }

  /// The canonical error envelope for a parse diagnostic on line `line`.
  static std::string parseError(std::size_t line, const std::string& message) {
    return "{\"ok\":false,\"error\":\"test:" + std::to_string(line) + ": " +
           message + "\"}";
  }

  FleetService service_;
  ServeSession session_;
};

TEST_F(ProtocolTest, BlankLinesProduceNoResponseButAdvanceTheLineNumber) {
  EXPECT_EQ(respond(""), "");
  EXPECT_EQ(respond("   \t"), "");
  EXPECT_EQ(respond("not json"),
            parseError(3, "expected '{' to open the command object"));
  EXPECT_EQ(session_.lineNumber(), 3u);
}

TEST_F(ProtocolTest, MalformedObjectsGetGoldenDiagnostics) {
  EXPECT_EQ(respond("[]"), parseError(1, "expected '{' to open the command object"));
  EXPECT_EQ(respond("{"), parseError(2, "expected '\\\"' to open a key"));
  EXPECT_EQ(respond("{\"cmd\" \"stats\"}"),
            parseError(3, "expected ':' after key 'cmd'"));
  EXPECT_EQ(respond("{\"cmd\":\"stats\" \"x\":1}"),
            parseError(4, "expected ',' or '}' after an object member"));
  EXPECT_EQ(respond("{\"cmd\":\"stats\"} trailing"),
            parseError(5, "trailing characters after the JSON value"));
  EXPECT_EQ(respond("{\"cmd\":\"stats"), parseError(6, "unterminated string"));
  EXPECT_EQ(respond("{\"cmd\":\"a\\qb\"}"), parseError(7, "unsupported escape '\\\\q'"));
  EXPECT_EQ(respond("{\"cmd\":\"stats\",\"cmd\":\"stats\"}"),
            parseError(8, "duplicate key 'cmd'"));
  EXPECT_EQ(respond("{\"seed\":1.2.3}"), parseError(9, "invalid number '1.2.3'"));
  EXPECT_EQ(respond("{\"x\":null}"),
            parseError(10,
                       "unsupported value for key 'x' (expected string, number, "
                       "true or false)"));
}

TEST_F(ProtocolTest, CommandDispatchGetsGoldenDiagnostics) {
  EXPECT_EQ(respond("{}"), parseError(1, "missing required key 'cmd'"));
  EXPECT_EQ(respond("{\"cmd\":7}"), parseError(2, "key 'cmd' must be a string"));
  EXPECT_EQ(respond("{\"cmd\":\"reboot\"}"),
            parseError(3,
                       "unknown command 'reboot' (valid: admit, evict, query, "
                       "shutdown, stats, step)"));
}

TEST_F(ProtocolTest, OversizedCommandsAreRejectedBeforeParsing) {
  // One byte over the cap; the content never reaches the parser.
  std::string line = "{\"cmd\":\"stats\"";
  line.append(kMaxCommandBytes, ' ');
  EXPECT_EQ(respond(line), parseError(1, "command exceeds 4096 bytes"));
}

TEST_F(ProtocolTest, AdmitValidatesKeysAndTypesWithGoldenDiagnostics) {
  EXPECT_EQ(respond("{\"cmd\":\"admit\",\"tenant\":\"t\",\"bogus\":1}"),
            parseError(1,
                       "unknown key 'bogus' for command 'admit' (valid: "
                       "aging_bins, cmd, dataset, family, gamma, seed, "
                       "stress_bins, tenant)"));
  EXPECT_EQ(respond("{\"cmd\":\"admit\"}"),
            parseError(2, "command 'admit' requires key 'tenant'"));
  EXPECT_EQ(respond("{\"cmd\":\"admit\",\"tenant\":true}"),
            parseError(3, "key 'tenant' must be a string"));
  EXPECT_EQ(respond("{\"cmd\":\"admit\",\"tenant\":\"t\",\"gamma\":\"hot\"}"),
            parseError(4, "key 'gamma' must be a number"));
  EXPECT_EQ(respond("{\"cmd\":\"admit\",\"tenant\":\"t\",\"seed\":-1}"),
            parseError(5, "key 'seed' must be a non-negative integer"));
  EXPECT_EQ(respond("{\"cmd\":\"admit\",\"tenant\":\"t\",\"stress_bins\":65}"),
            parseError(6, "key 'stress_bins' must be an integer in [2, 64]"));
  EXPECT_EQ(respond("{\"cmd\":\"admit\",\"tenant\":\"t\",\"aging_bins\":1.5}"),
            parseError(7, "key 'aging_bins' must be an integer in [2, 64]"));
  // Integers are read exactly from the source token: past 2^64 - 1 is an
  // error, never a saturated 18446744073709551615.
  EXPECT_EQ(respond("{\"cmd\":\"admit\",\"tenant\":\"t\",\"seed\":18446744073709551616}"),
            parseError(8, "key 'seed' must be a non-negative integer"));
  EXPECT_EQ(respond("{\"cmd\":\"admit\",\"tenant\":\"t\",\"seed\":99999999999999999999}"),
            parseError(9, "key 'seed' must be a non-negative integer"));
  EXPECT_EQ(respond("{\"cmd\":\"admit\",\"tenant\":\"t\",\"dataset\":007}"),
            parseError(10, "invalid number '007'"));
}

TEST_F(ProtocolTest, EvictRequiresExactlyOneSelector) {
  EXPECT_EQ(respond("{\"cmd\":\"evict\"}"),
            parseError(1,
                       "command 'evict' requires exactly one of 'tenant' or "
                       "'fingerprint'"));
  EXPECT_EQ(respond("{\"cmd\":\"evict\",\"tenant\":\"t\",\"fingerprint\":\"00\"}"),
            parseError(2,
                       "command 'evict' requires exactly one of 'tenant' or "
                       "'fingerprint'"));
  EXPECT_EQ(respond("{\"cmd\":\"evict\",\"fingerprint\":\"xyz\"}"),
            parseError(3, "key 'fingerprint' must be a 16-digit hex string"));
  EXPECT_EQ(respond("{\"cmd\":\"evict\",\"fingerprint\":\"0000000000000000\"}"),
            "{\"ok\":false,\"error\":\"fingerprint '0000000000000000' is not "
            "cached\"}");
}

TEST_F(ProtocolTest, DomainErrorsHaveNoLinePrefix) {
  // Not a parse failure: the line is well-formed, the tenant just is unknown.
  EXPECT_EQ(respond("{\"cmd\":\"query\",\"tenant\":\"ghost\"}"),
            "{\"ok\":false,\"error\":\"unknown tenant 'ghost'\"}");
  EXPECT_EQ(respond("{\"cmd\":\"evict\",\"tenant\":\"ghost\"}"),
            "{\"ok\":false,\"error\":\"unknown tenant 'ghost'\"}");
}

TEST_F(ProtocolTest, AdmitRejectionsCarryTheServiceReason) {
  EXPECT_EQ(respond("{\"cmd\":\"admit\",\"tenant\":\"t\",\"gamma\":2}"),
            "{\"ok\":false,\"cmd\":\"admit\",\"tenant\":\"t\",\"error\":\"gamma "
            "must be in (0, 1]\"}");
}

TEST_F(ProtocolTest, HappyPathResponsesAreStableJson) {
  EXPECT_EQ(respond("{\"cmd\":\"admit\",\"tenant\":\"t0\",\"seed\":7}"),
            "{\"ok\":true,\"cmd\":\"admit\",\"tenant\":\"t0\",\"queued\":true}");
  // Queued, not yet live: query still reports unknown until a step runs.
  EXPECT_EQ(respond("{\"cmd\":\"query\",\"tenant\":\"t0\"}"),
            "{\"ok\":false,\"error\":\"unknown tenant 't0'\"}");
  const std::string stats = respond("{\"cmd\":\"stats\"}");
  EXPECT_NE(stats.find("\"ok\":true"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"queue_depth\":1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"cache_capacity\":8"), std::string::npos) << stats;
  EXPECT_FALSE(session_.shutdownRequested());
  EXPECT_EQ(respond("{\"cmd\":\"shutdown\"}"),
            "{\"ok\":true,\"cmd\":\"shutdown\"}");
  EXPECT_TRUE(session_.shutdownRequested());
}

TEST_F(ProtocolTest, QueryEchoesTheLargestSeedExactly) {
  EXPECT_EQ(respond("{\"cmd\":\"admit\",\"tenant\":\"big\","
                    "\"seed\":18446744073709551615}"),
            "{\"ok\":true,\"cmd\":\"admit\",\"tenant\":\"big\",\"queued\":true}");
  const std::string step = respond("{\"cmd\":\"step\"}");
  EXPECT_NE(step.find("\"admitted\":1"), std::string::npos) << step;
  const std::string query = respond("{\"cmd\":\"query\",\"tenant\":\"big\"}");
  EXPECT_NE(query.find("\"seed\":18446744073709551615,"), std::string::npos) << query;
}

TEST_F(ProtocolTest, StepValidatesThePassCount) {
  EXPECT_EQ(respond("{\"cmd\":\"step\",\"passes\":0}"),
            parseError(1, "key 'passes' must be an integer in [1, 1000]"));
  EXPECT_EQ(respond("{\"cmd\":\"step\",\"passes\":1001}"),
            parseError(2, "key 'passes' must be an integer in [1, 1000]"));
  // An empty service steps cleanly: nothing queued, nothing active.
  EXPECT_EQ(respond("{\"cmd\":\"step\"}"),
            "{\"ok\":true,\"cmd\":\"step\",\"passes\":1,\"admitted\":0,"
            "\"trained\":0,\"advanced\":0,\"completed\":0}");
}

TEST_F(ProtocolTest, ProtocolCountersTrackCommandsAndErrors) {
  obs::MetricsRegistry metrics;
  obs::Session session;
  session.metrics = &metrics;
  const obs::ScopedSession guard(session);

  (void)respond("{\"cmd\":\"stats\"}");
  (void)respond("not json");
  (void)respond("");  // blank: not counted as a command
  EXPECT_EQ(metrics.counter("serve.protocol.command").value(), 2u);
  EXPECT_EQ(metrics.counter("serve.protocol.error").value(), 1u);
}

}  // namespace
}  // namespace rltherm::serve
