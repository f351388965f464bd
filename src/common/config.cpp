#include "common/config.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>

#include "common/error.hpp"
#include "common/strict_file.hpp"

namespace rltherm {
namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

}  // namespace

ConfigFile ConfigFile::parse(const std::string& text) {
  std::istringstream in(text);
  return parse(in);
}

ConfigFile ConfigFile::parse(std::istream& in) {
  ConfigFile config;
  std::string line;
  std::string section;
  int lineNumber = 0;
  while (std::getline(in, line)) {
    ++lineNumber;
    // Strip comments (both styles), then whitespace.
    const auto hash = line.find_first_of("#;");
    if (hash != std::string::npos) line.erase(hash);
    const std::string trimmed = trimWhitespace(line);
    if (trimmed.empty()) continue;

    if (trimmed.front() == '[') {
      expects(trimmed.back() == ']',
              "config line " + std::to_string(lineNumber) + ": unterminated section");
      section = trimWhitespace(trimmed.substr(1, trimmed.size() - 2));
      if (!config.values_.contains(section)) {
        config.values_[section];
        config.sectionOrder_.push_back(section);
      }
      continue;
    }

    const auto eq = trimmed.find('=');
    expects(eq != std::string::npos,
            "config line " + std::to_string(lineNumber) + ": expected key = value");
    const std::string key = trimWhitespace(trimmed.substr(0, eq));
    const std::string value = trimWhitespace(trimmed.substr(eq + 1));
    expects(!key.empty(), "config line " + std::to_string(lineNumber) + ": empty key");
    config.set(section, key, value);
    config.lines_[{section, key}] = static_cast<std::size_t>(lineNumber);
  }
  return config;
}

bool ConfigFile::has(const std::string& section, const std::string& key) const {
  return lookup(section, key).has_value();
}

std::string ConfigFile::getString(const std::string& section, const std::string& key,
                                  const std::string& fallback) const {
  return lookup(section, key).value_or(fallback);
}

double ConfigFile::getDouble(const std::string& section, const std::string& key,
                             double fallback) const {
  const auto raw = lookup(section, key);
  if (!raw) return fallback;
  try {
    std::size_t consumed = 0;
    const double value = std::stod(*raw, &consumed);
    expects(consumed == raw->size(), "");
    return value;
  } catch (const std::exception&) {
    throw PreconditionError("config [" + section + "] " + key + ": '" + *raw +
                            "' is not a number");
  }
}

long long ConfigFile::getInt(const std::string& section, const std::string& key,
                             long long fallback) const {
  const auto raw = lookup(section, key);
  if (!raw) return fallback;
  try {
    std::size_t consumed = 0;
    const long long value = std::stoll(*raw, &consumed);
    expects(consumed == raw->size(), "");
    return value;
  } catch (const std::exception&) {
    throw PreconditionError("config [" + section + "] " + key + ": '" + *raw +
                            "' is not an integer");
  }
}

bool ConfigFile::getBool(const std::string& section, const std::string& key,
                         bool fallback) const {
  const auto raw = lookup(section, key);
  if (!raw) return fallback;
  const std::string v = lower(*raw);
  if (v == "true" || v == "yes" || v == "on" || v == "1") return true;
  if (v == "false" || v == "no" || v == "off" || v == "0") return false;
  throw PreconditionError("config [" + section + "] " + key + ": '" + *raw +
                          "' is not a boolean");
}

std::vector<std::string> ConfigFile::sections() const { return sectionOrder_; }

std::vector<std::string> ConfigFile::keys(const std::string& section) const {
  const auto it = keyOrder_.find(section);
  return it == keyOrder_.end() ? std::vector<std::string>{} : it->second;
}

void ConfigFile::set(const std::string& section, const std::string& key,
                     const std::string& value) {
  if (!values_.contains(section)) {
    values_[section];
    sectionOrder_.push_back(section);
  }
  auto& sectionMap = values_[section];
  if (!sectionMap.contains(key)) keyOrder_[section].push_back(key);
  sectionMap[key] = value;
}

void ConfigFile::requireKnownKeys(const std::function<void(const ConfigFile&)>& read,
                                  const std::string& source) const {
  std::set<Key> looked;
  ConfigFile probe = *this;
  probe.lookups_ = &looked;
  read(probe);
  for (const std::string& section : sectionOrder_) {
    for (const std::string& key : keys(section)) {
      if (looked.contains({section, key})) continue;
      const auto line = lines_.find({section, key});
      failParse(source, line == lines_.end() ? 0 : line->second,
                "unknown key '" + key + "' " +
                    (section.empty() ? std::string("outside any [section]")
                                     : "in [" + section + "]"));
    }
  }
}

std::optional<std::string> ConfigFile::lookup(const std::string& section,
                                              const std::string& key) const {
  if (lookups_ != nullptr) lookups_->emplace(section, key);
  const auto sectionIt = values_.find(section);
  if (sectionIt == values_.end()) return std::nullopt;
  const auto keyIt = sectionIt->second.find(key);
  if (keyIt == sectionIt->second.end()) return std::nullopt;
  return keyIt->second;
}

}  // namespace rltherm
