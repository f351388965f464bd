// The project's one reader for hand-written text inputs: `--config` files
// (core/config_io) and fault scenario files (fault/plan). A strict TOML
// subset:
//
//   # comment                 anywhere outside a string
//   [table]                   at most once per name
//   [[table]]                 one element of an array of tables
//   key = value               keys are bare: A-Z a-z 0-9 _ -
//
// A value is one JSON scalar, read by the shared JSON reader: a "string"
// (JSON escapes), a finite number (JSON syntax: no `+5`, `.5`, `0x28`), or
// true / false. Duplicate keys in one table are errors.
//
// Each read is typed by its target field (double, unsigned integer, bool,
// string) and marks the key read. A user reads everything it knows, then
// calls rejectUnread(), so a misspelt key or table fails loudly instead of
// leaving its parameter at the default. Every error is a PreconditionError
// "source:line: message" (common/strict_file.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace rltherm {

class JsonValue;

class TomlDocument {
 public:
  struct Entry {
    std::string key;
    std::string token;  ///< the value as written
    std::size_t line = 0;
    bool read = false;
  };

  struct Table {
    std::string name;      ///< "" for the keys before the first header
    bool array = false;    ///< a [[name]] element
    std::size_t line = 0;  ///< the header's line
    std::vector<Entry> entries;
    bool read = false;
  };

  /// Throws "source:line: message" on any syntax error.
  [[nodiscard]] static TomlDocument parse(std::string_view text, std::string source);
  /// Parses a file; `what` names it in the read error ("config file", ...).
  [[nodiscard]] static TomlDocument fromFile(const std::string& path, const std::string& what);

  [[nodiscard]] const std::string& source() const noexcept { return source_; }
  /// The keys before the first table header.
  [[nodiscard]] Table& root() { return tables_.front(); }
  /// The [name] table, or nullptr; marks it read.
  [[nodiscard]] Table* table(std::string_view name);
  /// The [[name]] elements in file order; marks them read.
  [[nodiscard]] std::vector<Table*> tables(std::string_view name);

  /// Typed reads: `out` keeps its value when `key` is absent. Each returns
  /// the entry (for its line) or nullptr, and marks the key read.
  const Entry* read(Table& table, std::string_view key, double& out);
  const Entry* read(Table& table, std::string_view key, bool& out);
  const Entry* read(Table& table, std::string_view key, std::string& out);
  /// A non-negative integer token that fits T.
  template <typename T>
    requires std::is_unsigned_v<T>
  const Entry* read(Table& table, std::string_view key, T& out) {
    std::uint64_t value = out;
    const Entry* entry = readUnsigned(table, key, value, std::numeric_limits<T>::max());
    out = static_cast<T>(value);
    return entry;
  }

  /// Throws for the first table or key, in file order, that no read touched.
  void rejectUnread() const;
  /// The same check over one table's keys, for a user that wants unknown
  /// keys reported before its own checks of that table.
  void rejectUnread(const Table& table) const;

  [[noreturn]] void fail(std::size_t line, const std::string& message) const;

 private:
  Entry* find(Table& table, std::string_view key);
  JsonValue number(const Entry& entry) const;
  const Entry* readUnsigned(Table& table, std::string_view key, std::uint64_t& out,
                            std::uint64_t max);

  std::string source_;
  std::vector<Table> tables_;  ///< the root first, then file order
};

}  // namespace rltherm
