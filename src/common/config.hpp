// Minimal INI-style configuration reader (no external dependencies).
//
// Format:
//   # comment            ; comment
//   [section]
//   key = value
//
// Values are stored as strings; typed getters parse on access and throw
// PreconditionError with the offending section/key on malformed values.
// Used by the CLI tool and the config_io mappers so parameter studies do not
// require recompilation. Parsed keys remember their line, so a key no mapper
// reads (a typo) fails with "source:line:" instead of being ignored.
#pragma once

#include <cstddef>
#include <functional>
#include <istream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace rltherm {

class ConfigFile {
 public:
  ConfigFile() = default;

  /// Parse from text. Throws PreconditionError with a line number on
  /// malformed input (unterminated section header, missing '=').
  [[nodiscard]] static ConfigFile parse(const std::string& text);
  [[nodiscard]] static ConfigFile parse(std::istream& in);

  /// Keys outside any [section] live in the "" section.
  [[nodiscard]] bool has(const std::string& section, const std::string& key) const;

  [[nodiscard]] std::string getString(const std::string& section, const std::string& key,
                                      const std::string& fallback) const;
  [[nodiscard]] double getDouble(const std::string& section, const std::string& key,
                                 double fallback) const;
  [[nodiscard]] long long getInt(const std::string& section, const std::string& key,
                                 long long fallback) const;
  /// Accepts true/false, yes/no, on/off, 1/0 (case-insensitive).
  [[nodiscard]] bool getBool(const std::string& section, const std::string& key,
                             bool fallback) const;

  /// Section names in first-appearance order ("" first when present).
  [[nodiscard]] std::vector<std::string> sections() const;
  /// Keys of a section in first-appearance order.
  [[nodiscard]] std::vector<std::string> keys(const std::string& section) const;

  /// Programmatic set (used by tests and for CLI overrides).
  void set(const std::string& section, const std::string& key, const std::string& value);

  /// Strict keys: runs `read` (the mappers that consume this file) on a copy
  /// that logs every lookup, then throws "source:line: unknown key 'k' in
  /// [section]" (common/strict_file style) for the first key, in file order,
  /// that `read` never looked up.
  void requireKnownKeys(const std::function<void(const ConfigFile&)>& read,
                        const std::string& source) const;

 private:
  using Key = std::pair<std::string, std::string>;  ///< (section, key)

  [[nodiscard]] std::optional<std::string> lookup(const std::string& section,
                                                  const std::string& key) const;

  std::map<std::string, std::map<std::string, std::string>> values_;
  std::vector<std::string> sectionOrder_;
  std::map<std::string, std::vector<std::string>> keyOrder_;
  std::map<Key, std::size_t> lines_;  ///< line of each parsed key's last assignment
  /// Set only on requireKnownKeys' probe copy: shared const reads (parallel
  /// sweeps) never write.
  std::set<Key>* lookups_ = nullptr;
};

}  // namespace rltherm
