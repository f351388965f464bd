// Strict-parsing diagnostics shared by every on-disk artifact reader (the
// TOML-subset config and scenario files, policy checkpoints): the canonical
// file:line / file:offset error formatting, a whitespace trim, a bounded
// whole-file read, and a bounds-checked binary cursor.
//
// One helper set means one golden-tested error style — a malformed fault
// plan and a corrupted checkpoint fail with the same "source: location:
// message" shape, and neither reader can run past the end of its input.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace rltherm {

/// Throws PreconditionError("source:line: message"); with line 0 the line
/// prefix is omitted ("source: message"). This is the TomlDocument
/// diagnostic format — keep the golden tests in tests/fault/plan_test.cpp
/// and tests/core/config_io_test.cpp in mind when touching it.
[[noreturn]] void failParse(const std::string& source, std::size_t line,
                            const std::string& message);

/// Binary-file counterpart: throws
/// PreconditionError("source: offset N: message").
[[noreturn]] void failParseAtOffset(const std::string& source, std::uint64_t offset,
                                    const std::string& message);

/// Strips leading/trailing whitespace.
[[nodiscard]] std::string trimWhitespace(const std::string& s);

/// Reads a whole file as bytes, rejecting unreadable files and files larger
/// than `maxBytes` (a corrupted length field must not become an OOM).
/// `what` names the artifact in the error message ("checkpoint", ...).
[[nodiscard]] std::vector<std::uint8_t> readFileBounded(const std::string& path,
                                                        std::size_t maxBytes,
                                                        const std::string& what);

/// Bounds-checked little-endian cursor over a byte buffer. Every read
/// validates the remaining length FIRST and fails with the absolute file
/// offset, so a truncated or bit-flipped artifact produces a diagnostic
/// error instead of UB. `baseOffset` positions a section-relative reader so
/// its errors still report absolute file offsets.
class ByteReader {
 public:
  /// The buffer must outlive the reader.
  ByteReader(const std::uint8_t* data, std::size_t size, std::string source,
             std::uint64_t baseOffset = 0);

  [[nodiscard]] std::size_t offset() const noexcept { return pos_; }
  [[nodiscard]] std::size_t remaining() const noexcept { return size_ - pos_; }
  [[nodiscard]] bool atEnd() const noexcept { return pos_ == size_; }

  std::uint8_t u8(const char* what);
  std::uint32_t u32(const char* what);
  std::uint64_t u64(const char* what);
  double f64(const char* what);  ///< IEEE-754 bit pattern, bit-exact round trip
  bool boolean(const char* what);  ///< one byte; anything but 0/1 fails
  std::vector<std::uint8_t> bytes(std::size_t count, const char* what);
  /// u64 length prefix + raw content; lengths above `maxBytes` fail before
  /// any allocation happens.
  std::string str(std::size_t maxBytes, const char* what);

  /// Fails unless the cursor consumed the buffer exactly (trailing garbage
  /// in a strict format is corruption, not slack).
  void expectEnd(const char* what) const;

  /// Raises a diagnostic error at the current absolute offset.
  [[noreturn]] void fail(const std::string& message) const;

 private:
  /// Validates that `count` more bytes exist before any pointer arithmetic.
  void need(std::size_t count, const char* what);

  const std::uint8_t* data_;
  std::size_t size_;
  std::string source_;
  std::uint64_t baseOffset_;
  std::size_t pos_ = 0;
};

}  // namespace rltherm
