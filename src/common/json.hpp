// The project's one JSON implementation: a streaming writer shared by every
// emitter (JSONL events, Chrome traces, bench reports, protocol responses,
// the perf gate, the lint) and one strict reader shared by every consumer
// (the perf gate, the lint baseline, the serve line protocol).
//
// Hand-rolled on purpose: the project takes no third-party dependencies.
//
// Writer: keeps a small nesting stack so commas and colons are placed
// automatically; misuse (a value where a key is required, unbalanced
// begin/end) trips a contract. Doubles are written with "%.12g" (enough for
// every metric the simulator produces), and non-finite doubles become
// `null` — JSON has no NaN/Inf, and a reader choking on a bare `nan` token
// is worse than an explicit null.
//
// Reader: RFC 8259, strictly. It rejects duplicate keys, raw control
// characters in strings, lone surrogates, `+1`, `01`, `1.`, numbers outside
// the double range, trailing bytes, and nesting deeper than kMaxJsonDepth.
// Errors come back as a message plus a byte offset, never as a throw, so
// each caller keeps its own diagnostic style. Object members keep their
// source order (a vector of pairs, not a map), so parse → writeJson
// reproduces a document this writer produced byte for byte. Numbers keep
// their source token, so the integer accessors are exact past 2^53.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rltherm {

class JsonWriter {
 public:
  /// The stream must outlive the writer.
  explicit JsonWriter(std::ostream& out);

  JsonWriter& beginObject();
  JsonWriter& endObject();
  JsonWriter& beginArray();
  JsonWriter& endArray();

  /// Object member key; must be followed by exactly one value/container.
  JsonWriter& key(std::string_view name);

  JsonWriter& value(bool v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(double v);
  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v);
  JsonWriter& valueNull();

  /// Writes `text` as a JSON number when it lexes as one in full (the bench
  /// tables format numeric cells as strings), otherwise as a JSON string.
  JsonWriter& valueAuto(std::string_view text);

  /// True once every opened object/array has been closed again.
  [[nodiscard]] bool complete() const noexcept;

  /// JSON string escaping (quotes not included).
  [[nodiscard]] static std::string escape(std::string_view text);

 private:
  void beforeValue();
  void beforeContainerEnd(char expectedOpen);

  std::ostream& out_;
  std::string stack_;        ///< nesting: '{' or '[' per open container
  bool keyPending_ = false;  ///< key() emitted, value must follow
  bool needComma_ = false;   ///< a sibling value precedes the next one
  bool rootWritten_ = false;
};

/// Deepest container nesting the reader accepts. The committed JSON
/// artifacts nest at most 5 deep; the bound keeps hostile input such as a
/// million '[' from exhausting the stack.
inline constexpr std::size_t kMaxJsonDepth = 64;

class JsonValue {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  /// String: the decoded text. Number: the source token (empty for values
  /// built with makeNumber).
  std::string text;
  std::vector<JsonValue> items;                            ///< Kind::Array
  std::vector<std::pair<std::string, JsonValue>> members;  ///< Kind::Object

  /// Member with `key`, or nullptr (also when not an object).
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

  /// Typed accessors with fallbacks, for tolerant report parsing.
  [[nodiscard]] double numberOr(std::string_view key, double fallback) const;
  [[nodiscard]] std::string stringOr(std::string_view key,
                                     const std::string& fallback) const;
  [[nodiscard]] bool boolOr(std::string_view key, bool fallback) const;

  /// The exact value of a number written as an integer token (no fraction,
  /// no exponent); nullopt for anything else, including a token that
  /// overflows the type.
  [[nodiscard]] std::optional<std::uint64_t> asUint64() const;
  [[nodiscard]] std::optional<std::int64_t> asInt64() const;

  [[nodiscard]] static JsonValue makeNumber(double v);
  [[nodiscard]] static JsonValue makeString(std::string v);
};

struct JsonParseResult {
  JsonValue value;
  std::string error;       ///< empty on success
  std::size_t offset = 0;  ///< byte offset of the error
  [[nodiscard]] bool ok() const noexcept { return error.empty(); }
};

[[nodiscard]] JsonParseResult parseJson(std::string_view input);

/// Appends `value` as compact JSON through JsonWriter.
void writeJson(const JsonValue& value, std::string& out);

}  // namespace rltherm
