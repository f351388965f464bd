// The shared strict-parsing helpers (common/strict_file.hpp) back BOTH the
// fault-plan parser and the checkpoint reader, so their diagnostic formats
// and bounds behavior are pinned here once.
#include "common/strict_file.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace rltherm {
namespace {

std::string messageOf(const std::function<void()>& thrower) {
  try {
    thrower();
  } catch (const PreconditionError& error) {
    return error.what();
  }
  ADD_FAILURE() << "expected a PreconditionError";
  return {};
}

TEST(StrictFileTest, FailParseFormatsSourceLineMessage) {
  EXPECT_EQ(messageOf([] { failParse("plan.toml", 12, "bad key"); }),
            "plan.toml:12: bad key");
  // Line 0 = no line context (whole-file errors).
  EXPECT_EQ(messageOf([] { failParse("plan.toml", 0, "cannot read"); }),
            "plan.toml: cannot read");
}

TEST(StrictFileTest, FailParseAtOffsetFormatsAbsoluteOffset) {
  EXPECT_EQ(messageOf([] { failParseAtOffset("p.ckpt", 24, "bad section"); }),
            "p.ckpt: offset 24: bad section");
}

TEST(StrictFileTest, TrimWhitespace) {
  EXPECT_EQ(trimWhitespace("  a b \t"), "a b");
  EXPECT_EQ(trimWhitespace(""), "");
}

TEST(StrictFileTest, ReadFileBoundedRejectsMissingAndOversized) {
  EXPECT_THROW((void)readFileBounded("/nonexistent/nope.bin", 1024, "checkpoint"),
               PreconditionError);

  const std::string path = testing::TempDir() + "strict_file_bounded.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "0123456789";
  }
  EXPECT_EQ(readFileBounded(path, 10, "checkpoint").size(), 10u);
  EXPECT_THROW((void)readFileBounded(path, 9, "checkpoint"), PreconditionError);
}

TEST(StrictFileTest, ByteReaderReadsLittleEndianExactly) {
  const std::vector<std::uint8_t> bytes = {
      0x2A,                                            // u8
      0x01, 0x02, 0x03, 0x04,                          // u32 0x04030201
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80,  // u64 (top bit set)
      0x01,                                            // bool true
  };
  ByteReader reader(bytes.data(), bytes.size(), "buf");
  EXPECT_EQ(reader.u8("a"), 0x2A);
  EXPECT_EQ(reader.u32("b"), 0x04030201u);
  EXPECT_EQ(reader.u64("c"), 0x8000000000000001ULL);
  EXPECT_TRUE(reader.boolean("d"));
  EXPECT_TRUE(reader.atEnd());
  reader.expectEnd("buf");
}

TEST(StrictFileTest, ByteReaderFailsPastEndWithAbsoluteOffset) {
  const std::vector<std::uint8_t> bytes = {0x01, 0x02};
  ByteReader reader(bytes.data(), bytes.size(), "p.ckpt", /*baseOffset=*/100);
  (void)reader.u8("first");
  try {
    (void)reader.u32("the count");
    FAIL() << "expected a PreconditionError";
  } catch (const PreconditionError& error) {
    const std::string message = error.what();
    // Position 1 inside the buffer + base offset 100 = absolute 101.
    EXPECT_NE(message.find("p.ckpt: offset 101:"), std::string::npos) << message;
    EXPECT_NE(message.find("the count"), std::string::npos) << message;
  }
}

TEST(StrictFileTest, ByteReaderRejectsNonBooleanByte) {
  const std::vector<std::uint8_t> bytes = {0x02};
  ByteReader reader(bytes.data(), bytes.size(), "buf");
  EXPECT_THROW((void)reader.boolean("flag"), PreconditionError);
}

TEST(StrictFileTest, ByteReaderStringCapFailsBeforeAllocation) {
  // A string claiming 2^63 bytes must fail on the cap check, not allocate.
  std::vector<std::uint8_t> bytes(8, 0x00);
  bytes[7] = 0x40;  // length = 2^62
  ByteReader reader(bytes.data(), bytes.size(), "buf");
  EXPECT_THROW((void)reader.str(1024, "name"), PreconditionError);
}

TEST(StrictFileTest, ByteReaderRejectsTrailingBytes) {
  const std::vector<std::uint8_t> bytes = {0x01, 0x02};
  ByteReader reader(bytes.data(), bytes.size(), "buf");
  (void)reader.u8("only");
  EXPECT_THROW(reader.expectEnd("the payload"), PreconditionError);
}

TEST(StrictFileTest, F64RoundTripsBitExactly) {
  const double value = 0.1 + 0.2;  // not representable exactly — bits matter
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof value);
  std::memcpy(&bits, &value, sizeof bits);
  std::vector<std::uint8_t> bytes(8);
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[i] = static_cast<std::uint8_t>((bits >> (8 * i)) & 0xFF);
  }
  ByteReader reader(bytes.data(), bytes.size(), "buf");
  const double back = reader.f64("v");
  std::uint64_t backBits = 0;
  std::memcpy(&backBits, &back, sizeof backBits);
  EXPECT_EQ(backBits, bits);
}

}  // namespace
}  // namespace rltherm
