#include "common/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <sstream>
#include <system_error>

#include "common/error.hpp"

namespace rltherm {

JsonWriter::JsonWriter(std::ostream& out) : out_(out) {}

void JsonWriter::beforeValue() {
  expects(!rootWritten_ || !stack_.empty(),
          "JsonWriter: only one root value is allowed");
  if (!stack_.empty() && stack_.back() == '{') {
    expects(keyPending_, "JsonWriter: object members need a key() first");
  }
  if (needComma_ && !keyPending_) out_ << ',';
  keyPending_ = false;
}

JsonWriter& JsonWriter::beginObject() {
  beforeValue();
  out_ << '{';
  stack_.push_back('{');
  needComma_ = false;
  rootWritten_ = true;
  return *this;
}

JsonWriter& JsonWriter::beginArray() {
  beforeValue();
  out_ << '[';
  stack_.push_back('[');
  needComma_ = false;
  rootWritten_ = true;
  return *this;
}

void JsonWriter::beforeContainerEnd(char expectedOpen) {
  expects(!stack_.empty() && stack_.back() == expectedOpen,
          "JsonWriter: unbalanced container close");
  expects(!keyPending_, "JsonWriter: key() without a value");
  stack_.pop_back();
  needComma_ = true;
}

JsonWriter& JsonWriter::endObject() {
  beforeContainerEnd('{');
  out_ << '}';
  return *this;
}

JsonWriter& JsonWriter::endArray() {
  beforeContainerEnd('[');
  out_ << ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  expects(!stack_.empty() && stack_.back() == '{',
          "JsonWriter: key() outside an object");
  expects(!keyPending_, "JsonWriter: two keys in a row");
  if (needComma_) out_ << ',';
  out_ << '"' << escape(name) << "\":";
  keyPending_ = true;
  needComma_ = false;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  beforeValue();
  out_ << (v ? "true" : "false");
  needComma_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  beforeValue();
  out_ << v;
  needComma_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  beforeValue();
  out_ << v;
  needComma_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  beforeValue();
  if (!std::isfinite(v)) {
    out_ << "null";
  } else {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.12g", v);
    out_ << buffer;
  }
  needComma_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  beforeValue();
  out_ << '"' << escape(v) << '"';
  needComma_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(const char* v) { return value(std::string_view(v)); }

JsonWriter& JsonWriter::valueNull() {
  beforeValue();
  out_ << "null";
  needComma_ = true;
  return *this;
}

JsonWriter& JsonWriter::valueAuto(std::string_view text) {
  if (!text.empty()) {
    const std::string owned(text);
    char* end = nullptr;
    const double parsed = std::strtod(owned.c_str(), &end);
    if (end == owned.c_str() + owned.size() && std::isfinite(parsed)) {
      return value(parsed);
    }
  }
  return value(text);
}

bool JsonWriter::complete() const noexcept {
  return rootWritten_ && stack_.empty() && !keyPending_;
}

std::string JsonWriter::escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// --- reader ----------------------------------------------------------------

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::Object) return nullptr;
  for (const auto& [name, value] : members) {
    if (name == key) return &value;
  }
  return nullptr;
}

double JsonValue::numberOr(std::string_view key, double fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->kind == Kind::Number ? v->number : fallback;
}

std::string JsonValue::stringOr(std::string_view key,
                                const std::string& fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->kind == Kind::String ? v->text : fallback;
}

bool JsonValue::boolOr(std::string_view key, bool fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->kind == Kind::Bool ? v->boolean : fallback;
}

namespace {

template <typename Int>
std::optional<Int> integerOf(const JsonValue& v) {
  if (v.kind != JsonValue::Kind::Number) return std::nullopt;
  const char* end = v.text.data() + v.text.size();
  Int out{};
  const auto [ptr, ec] = std::from_chars(v.text.data(), end, out);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return out;
}

}  // namespace

std::optional<std::uint64_t> JsonValue::asUint64() const {
  return integerOf<std::uint64_t>(*this);
}

std::optional<std::int64_t> JsonValue::asInt64() const {
  return integerOf<std::int64_t>(*this);
}

JsonValue JsonValue::makeNumber(double v) {
  JsonValue value;
  value.kind = Kind::Number;
  value.number = v;
  return value;
}

JsonValue JsonValue::makeString(std::string v) {
  JsonValue value;
  value.kind = Kind::String;
  value.text = std::move(v);
  return value;
}

namespace {

/// RFC 8259 number syntax: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
bool isJsonNumber(std::string_view t) {
  std::size_t i = 0;
  const auto digits = [&] {
    const std::size_t from = i;
    while (i < t.size() && t[i] >= '0' && t[i] <= '9') ++i;
    return i > from;
  };
  if (i < t.size() && t[i] == '-') ++i;
  if (i < t.size() && t[i] == '0') {
    ++i;
  } else if (!digits()) {
    return false;
  }
  if (i < t.size() && t[i] == '.') {
    ++i;
    if (!digits()) return false;
  }
  if (i < t.size() && (t[i] == 'e' || t[i] == 'E')) {
    ++i;
    if (i < t.size() && (t[i] == '+' || t[i] == '-')) ++i;
    if (!digits()) return false;
  }
  return i == t.size();
}

void appendUtf8(std::uint32_t code, std::string& out) {
  static constexpr std::uint32_t kLead[] = {0x00, 0xC0, 0xE0, 0xF0};
  const int extra = code < 0x80 ? 0 : code < 0x800 ? 1 : code < 0x10000 ? 2 : 3;
  out += static_cast<char>(kLead[extra] | (code >> (6 * extra)));
  for (int i = extra - 1; i >= 0; --i) {
    out += static_cast<char>(0x80 | ((code >> (6 * i)) & 0x3F));
  }
}

/// Recursive descent over the input; the first failure stops the parse and
/// leaves its message in error_ and its position in pos_.
class Reader {
 public:
  explicit Reader(std::string_view input) : in_(input) {}

  JsonParseResult run() {
    JsonParseResult result;
    skipSpace();
    if (parseValue(result.value, 0)) {
      skipSpace();
      if (pos_ != in_.size()) fail("trailing characters after the JSON value");
    }
    if (!error_.empty()) {
      result.value = JsonValue();
      result.error = std::move(error_);
      result.offset = pos_;
    }
    return result;
  }

 private:
  [[nodiscard]] bool at(char c) const { return pos_ < in_.size() && in_[pos_] == c; }

  bool fail(std::string message) {
    error_ = std::move(message);
    return false;
  }

  bool consumeWord(std::string_view word) {
    if (in_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  void skipSpace() {
    while (at(' ') || at('\t') || at('\n') || at('\r')) ++pos_;
  }

  bool parseValue(JsonValue& out, std::size_t depth) {
    if (pos_ >= in_.size()) return fail("unexpected end of input");
    const char c = in_[pos_];
    if (c == '{' || c == '[') {
      if (depth == kMaxJsonDepth) {
        return fail("nesting deeper than " + std::to_string(kMaxJsonDepth) + " levels");
      }
      return c == '{' ? parseObject(out, depth + 1) : parseArray(out, depth + 1);
    }
    if (c == '"') {
      out.kind = JsonValue::Kind::String;
      return parseString(out.text);
    }
    if (c == '-' || c == '+' || c == '.' || (c >= '0' && c <= '9')) {
      return parseNumber(out);
    }
    if (consumeWord("true") || consumeWord("false")) {
      out.kind = JsonValue::Kind::Bool;
      out.boolean = c == 't';
      return true;
    }
    if (consumeWord("null")) return true;
    return fail("expected a JSON value");
  }

  bool parseObject(JsonValue& out, std::size_t depth) {
    out.kind = JsonValue::Kind::Object;
    ++pos_;  // '{'
    skipSpace();
    if (at('}')) {
      ++pos_;
      return true;
    }
    std::set<std::string> seen;
    for (;;) {
      skipSpace();
      if (!at('"')) return fail("expected '\"' to open a key");
      std::string key;
      if (!parseString(key)) return false;
      if (!seen.insert(key).second) return fail("duplicate key '" + key + "'");
      skipSpace();
      if (!at(':')) return fail("expected ':' after key '" + key + "'");
      ++pos_;
      skipSpace();
      JsonValue value;
      if (!parseValue(value, depth)) return false;
      out.members.emplace_back(std::move(key), std::move(value));
      skipSpace();
      if (at(',')) {
        ++pos_;
        continue;
      }
      if (at('}')) {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}' after an object member");
    }
  }

  bool parseArray(JsonValue& out, std::size_t depth) {
    out.kind = JsonValue::Kind::Array;
    ++pos_;  // '['
    skipSpace();
    if (at(']')) {
      ++pos_;
      return true;
    }
    for (;;) {
      skipSpace();
      JsonValue value;
      if (!parseValue(value, depth)) return false;
      out.items.push_back(std::move(value));
      skipSpace();
      if (at(',')) {
        ++pos_;
        continue;
      }
      if (at(']')) {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']' after an array element");
    }
  }

  bool parseString(std::string& out) {
    ++pos_;  // opening quote
    for (;;) {
      if (pos_ >= in_.size()) return fail("unterminated string");
      const char c = in_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("raw control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= in_.size()) return fail("unterminated string");
      const char escape = in_[pos_++];
      switch (escape) {
        case '"':
        case '\\':
        case '/': out += escape; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u':
          if (!parseUnicodeEscape(out)) return false;
          break;
        default: return fail(std::string("unsupported escape '\\") + escape + "'");
      }
    }
  }

  bool parseHex4(std::uint32_t& code) {
    if (in_.size() - pos_ < 4) return fail("truncated \\u escape");
    code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = in_[pos_++];
      const int digit = h >= '0' && h <= '9'   ? h - '0'
                        : h >= 'a' && h <= 'f' ? h - 'a' + 10
                        : h >= 'A' && h <= 'F' ? h - 'A' + 10
                                               : -1;
      if (digit < 0) return fail("bad hex digit in \\u escape");
      code = (code << 4) | static_cast<std::uint32_t>(digit);
    }
    return true;
  }

  /// After "\u": one BMP code point, or a high+low surrogate pair.
  bool parseUnicodeEscape(std::string& out) {
    std::uint32_t code = 0;
    if (!parseHex4(code)) return false;
    if (code >= 0xD800 && code <= 0xDBFF) {
      std::uint32_t low = 0;
      if (!consumeWord("\\u")) return fail("lone surrogate in \\u escape");
      if (!parseHex4(low)) return false;
      if (low < 0xDC00 || low > 0xDFFF) return fail("lone surrogate in \\u escape");
      code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    } else if (code >= 0xDC00 && code <= 0xDFFF) {
      return fail("lone surrogate in \\u escape");
    }
    appendUtf8(code, out);
    return true;
  }

  bool parseNumber(JsonValue& out) {
    const std::size_t start = pos_;
    while (pos_ < in_.size() &&
           std::string_view("+-.0123456789eE").find(in_[pos_]) != std::string_view::npos) {
      ++pos_;
    }
    const std::string_view token = in_.substr(start, pos_ - start);
    pos_ = start;
    if (!isJsonNumber(token)) return fail("invalid number '" + std::string(token) + "'");
    const auto [end, ec] =
        std::from_chars(token.data(), token.data() + token.size(), out.number);
    if (ec != std::errc()) return fail("number out of range '" + std::string(token) + "'");
    out.kind = JsonValue::Kind::Number;
    out.text = token;
    pos_ += token.size();
    return true;
  }

  std::string_view in_;
  std::size_t pos_ = 0;
  std::string error_;
};

void writeValue(const JsonValue& value, JsonWriter& json) {
  switch (value.kind) {
    case JsonValue::Kind::Null: json.valueNull(); break;
    case JsonValue::Kind::Bool: json.value(value.boolean); break;
    case JsonValue::Kind::Number: json.value(value.number); break;
    case JsonValue::Kind::String: json.value(std::string_view(value.text)); break;
    case JsonValue::Kind::Array:
      json.beginArray();
      for (const JsonValue& item : value.items) writeValue(item, json);
      json.endArray();
      break;
    case JsonValue::Kind::Object:
      json.beginObject();
      for (const auto& [key, member] : value.members) {
        json.key(key);
        writeValue(member, json);
      }
      json.endObject();
      break;
  }
}

}  // namespace

JsonParseResult parseJson(std::string_view input) { return Reader(input).run(); }

void writeJson(const JsonValue& value, std::string& out) {
  std::ostringstream stream;
  JsonWriter json(stream);
  writeValue(value, json);
  out += stream.str();
}

}  // namespace rltherm
