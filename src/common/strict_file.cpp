#include "common/strict_file.hpp"

#include <cctype>
#include <cstring>
#include <fstream>

#include "common/error.hpp"

namespace rltherm {

void failParse(const std::string& source, std::size_t line,
               const std::string& message) {
  if (line > 0) {
    throw PreconditionError(source + ":" + std::to_string(line) + ": " + message);
  }
  throw PreconditionError(source + ": " + message);
}

void failParseAtOffset(const std::string& source, std::uint64_t offset,
                       const std::string& message) {
  throw PreconditionError(source + ": offset " + std::to_string(offset) + ": " +
                          message);
}

std::string trimWhitespace(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

std::vector<std::uint8_t> readFileBounded(const std::string& path,
                                          std::size_t maxBytes,
                                          const std::string& what) {
  std::ifstream in(path, std::ios::binary);
  expects(in.good(), "cannot read " + what + " '" + path + "'");
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  expects(size >= 0, "cannot determine size of " + what + " '" + path + "'");
  if (static_cast<std::uint64_t>(size) > static_cast<std::uint64_t>(maxBytes)) {
    failParse(path, 0,
              what + " is " + std::to_string(size) + " bytes, larger than the " +
                  std::to_string(maxBytes) + "-byte limit");
  }
  in.seekg(0, std::ios::beg);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  if (!bytes.empty()) {
    in.read(reinterpret_cast<char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  }
  expects(in.good() || bytes.empty(), "cannot read " + what + " '" + path + "'");
  return bytes;
}

ByteReader::ByteReader(const std::uint8_t* data, std::size_t size,
                       std::string source, std::uint64_t baseOffset)
    : data_(data), size_(size), source_(std::move(source)), baseOffset_(baseOffset) {
  expects(data != nullptr || size == 0, "ByteReader: null buffer with nonzero size");
}

void ByteReader::need(std::size_t count, const char* what) {
  // `size_ - pos_` cannot underflow (pos_ <= size_ by construction), so this
  // comparison is overflow-safe even for a corrupted multi-gigabyte count.
  if (count > size_ - pos_) {
    fail(std::string("truncated: need ") + std::to_string(count) + " more byte(s) for " +
         what + ", only " + std::to_string(size_ - pos_) + " left");
  }
}

std::uint8_t ByteReader::u8(const char* what) {
  need(1, what);
  return data_[pos_++];
}

std::uint32_t ByteReader::u32(const char* what) {
  need(4, what);
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::u64(const char* what) {
  need(8, what);
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 8;
  return v;
}

double ByteReader::f64(const char* what) {
  const std::uint64_t bits = u64(what);
  double v = 0.0;
  static_assert(sizeof(v) == sizeof(bits), "double must be 64-bit");
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

bool ByteReader::boolean(const char* what) {
  const std::uint8_t v = u8(what);
  if (v > 1) {
    fail(std::string("corrupt boolean for ") + what + ": byte value " +
         std::to_string(static_cast<unsigned>(v)) + " (expected 0 or 1)");
  }
  return v == 1;
}

std::vector<std::uint8_t> ByteReader::bytes(std::size_t count, const char* what) {
  need(count, what);
  std::vector<std::uint8_t> out(data_ + pos_, data_ + pos_ + count);
  pos_ += count;
  return out;
}

std::string ByteReader::str(std::size_t maxBytes, const char* what) {
  const std::uint64_t length = u64(what);
  if (length > maxBytes) {
    fail(std::string("string length ") + std::to_string(length) + " for " + what +
         " exceeds the " + std::to_string(maxBytes) + "-byte limit");
  }
  need(static_cast<std::size_t>(length), what);
  std::string out(reinterpret_cast<const char*>(data_ + pos_),
                  static_cast<std::size_t>(length));
  pos_ += static_cast<std::size_t>(length);
  return out;
}

void ByteReader::expectEnd(const char* what) const {
  if (pos_ != size_) {
    fail(std::to_string(size_ - pos_) + " trailing byte(s) after " + what);
  }
}

void ByteReader::fail(const std::string& message) const {
  failParseAtOffset(source_, baseOffset_ + static_cast<std::uint64_t>(pos_), message);
}

}  // namespace rltherm
