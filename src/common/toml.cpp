#include "common/toml.hpp"

#include <algorithm>
#include <optional>

#include "common/json.hpp"
#include "common/strict_file.hpp"

namespace rltherm {
namespace {

/// Whole-file bound: the committed config and scenario files are a few
/// hundred bytes.
constexpr std::size_t kMaxTomlBytes = std::size_t{1} << 20;

std::string_view trim(std::string_view s) {
  const auto space = [](char c) { return c == ' ' || c == '\t' || c == '\r'; };
  while (!s.empty() && space(s.front())) s.remove_prefix(1);
  while (!s.empty() && space(s.back())) s.remove_suffix(1);
  return s;
}

bool isBareKey(std::string_view s) {
  return !s.empty() && std::all_of(s.begin(), s.end(), [](char c) {
    return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
           c == '_' || c == '-';
  });
}

bool blankOrComment(std::string_view rest) {
  rest = trim(rest);
  return rest.empty() || rest.front() == '#';
}

std::string header(const TomlDocument::Table& table) {
  return table.array ? "[[" + table.name + "]]" : "[" + table.name + "]";
}

}  // namespace

TomlDocument TomlDocument::parse(std::string_view text, std::string source) {
  TomlDocument doc;
  doc.source_ = std::move(source);
  doc.tables_.emplace_back().read = true;  // the root
  std::size_t lineNo = 0;
  while (!text.empty()) {
    ++lineNo;
    const std::size_t newline = text.find('\n');
    const std::string_view line = trim(text.substr(0, newline));
    text.remove_prefix(newline == std::string_view::npos ? text.size() : newline + 1);
    if (blankOrComment(line)) continue;

    if (line.front() == '[') {
      const bool array = line.starts_with("[[");
      const std::size_t brackets = array ? 2 : 1;
      const std::size_t close = line.find(array ? "]]" : "]");
      if (close == std::string_view::npos) {
        doc.fail(lineNo, "unterminated table header '" + std::string(line) + "'");
      }
      Table table;
      table.name = std::string(trim(line.substr(brackets, close - brackets)));
      table.array = array;
      table.line = lineNo;
      if (!isBareKey(table.name) || !blankOrComment(line.substr(close + brackets))) {
        doc.fail(lineNo, "malformed table header '" + std::string(line) + "'");
      }
      if (!array && std::any_of(doc.tables_.begin(), doc.tables_.end(), [&](const Table& t) {
            return !t.array && t.name == table.name;
          })) {
        doc.fail(lineNo, "duplicate table '" + header(table) + "'");
      }
      doc.tables_.push_back(std::move(table));
      continue;
    }

    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      doc.fail(lineNo, "expected 'key = value', got '" + std::string(line) + "'");
    }
    const std::string key(trim(line.substr(0, eq)));
    if (key.empty()) doc.fail(lineNo, "empty key before '='");
    if (!isBareKey(key)) doc.fail(lineNo, "invalid key '" + key + "'");
    std::string_view value = trim(line.substr(eq + 1));
    if (value.empty() || value.front() == '#') {
      doc.fail(lineNo, "key '" + key + "' has no value");
    }
    if (value.front() == '"') {
      // The string runs to the first unescaped quote; only a comment may
      // follow it.
      std::size_t end = 1;
      while (end < value.size() && value[end] != '"') end += value[end] == '\\' ? 2 : 1;
      if (end >= value.size()) doc.fail(lineNo, "unterminated string for key '" + key + "'");
      if (!blankOrComment(value.substr(end + 1))) {
        doc.fail(lineNo, "unexpected text after the string for key '" + key + "'");
      }
      value = value.substr(0, end + 1);
    } else {
      value = trim(value.substr(0, value.find('#')));
    }
    Table& table = doc.tables_.back();
    if (std::any_of(table.entries.begin(), table.entries.end(),
                    [&](const Entry& e) { return e.key == key; })) {
      doc.fail(lineNo, "duplicate key '" + key + "'" +
                           (table.name.empty() ? "" : " in " + header(table)));
    }
    table.entries.push_back({key, std::string(value), lineNo});
  }
  return doc;
}

TomlDocument TomlDocument::fromFile(const std::string& path, const std::string& what) {
  const std::vector<std::uint8_t> bytes = readFileBounded(path, kMaxTomlBytes, what);
  return parse(std::string_view(reinterpret_cast<const char*>(bytes.data()), bytes.size()),
               path);
}

TomlDocument::Table* TomlDocument::table(std::string_view name) {
  for (Table& table : tables_) {
    if (!table.array && table.name == name) {
      table.read = true;
      return &table;
    }
  }
  return nullptr;
}

std::vector<TomlDocument::Table*> TomlDocument::tables(std::string_view name) {
  std::vector<Table*> out;
  for (Table& table : tables_) {
    if (table.array && table.name == name) {
      table.read = true;
      out.push_back(&table);
    }
  }
  return out;
}

TomlDocument::Entry* TomlDocument::find(Table& table, std::string_view key) {
  for (Entry& entry : table.entries) {
    if (entry.key == key) {
      entry.read = true;
      return &entry;
    }
  }
  return nullptr;
}

JsonValue TomlDocument::number(const Entry& entry) const {
  JsonParseResult parsed = parseJson(entry.token);
  if (parsed.ok() && parsed.value.kind == JsonValue::Kind::Number) {
    return std::move(parsed.value);
  }
  if (parsed.ok() && parsed.value.kind == JsonValue::Kind::String) {
    fail(entry.line, "key '" + entry.key + "' must be a number, got a string");
  }
  fail(entry.line, "key '" + entry.key + "' has malformed number '" + entry.token + "'");
}

const TomlDocument::Entry* TomlDocument::read(Table& table, std::string_view key,
                                              double& out) {
  const Entry* entry = find(table, key);
  if (entry != nullptr) out = number(*entry).number;
  return entry;
}

const TomlDocument::Entry* TomlDocument::readUnsigned(Table& table, std::string_view key,
                                                      std::uint64_t& out,
                                                      std::uint64_t max) {
  const Entry* entry = find(table, key);
  if (entry == nullptr) return nullptr;
  const std::optional<std::uint64_t> value = number(*entry).asUint64();
  if (!value.has_value() || *value > max) {
    fail(entry->line, "key '" + entry->key + "' must be a non-negative integer, got '" +
                          entry->token + "'");
  }
  out = *value;
  return entry;
}

const TomlDocument::Entry* TomlDocument::read(Table& table, std::string_view key,
                                              bool& out) {
  const Entry* entry = find(table, key);
  if (entry == nullptr) return nullptr;
  if (entry->token != "true" && entry->token != "false") {
    fail(entry->line, "key '" + entry->key + "' must be true or false, got '" +
                          entry->token + "'");
  }
  out = entry->token == "true";
  return entry;
}

const TomlDocument::Entry* TomlDocument::read(Table& table, std::string_view key,
                                              std::string& out) {
  const Entry* entry = find(table, key);
  if (entry == nullptr) return nullptr;
  if (entry->token.front() != '"') {
    fail(entry->line, "key '" + entry->key + "' must be a quoted string");
  }
  JsonParseResult parsed = parseJson(entry->token);
  if (!parsed.ok()) {
    fail(entry->line, "key '" + entry->key + "' has a malformed string: " + parsed.error);
  }
  out = std::move(parsed.value.text);
  return entry;
}

void TomlDocument::rejectUnread() const {
  for (const Table& table : tables_) {
    if (!table.read) fail(table.line, "unknown table '" + header(table) + "'");
    rejectUnread(table);
  }
}

void TomlDocument::rejectUnread(const Table& table) const {
  for (const Entry& entry : table.entries) {
    if (entry.read) continue;
    fail(entry.line, "unknown key '" + entry.key + "' " +
                         (table.name.empty() ? std::string("outside any table")
                                             : "in " + header(table)));
  }
}

void TomlDocument::fail(std::size_t line, const std::string& message) const {
  failParse(source_, line, message);
}

}  // namespace rltherm
