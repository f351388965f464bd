// Finding ordering, the two output formats, and the committed-baseline
// machinery. The JSON layout (one finding per line) is written here with the
// shared escape and read back through the shared strict reader
// (common/json.hpp), so the round-trip is covered by one test (tests/lint/).
//
// Baseline matching keys on (file, rule, message) and ignores line numbers:
// editing an unrelated part of a file must not invalidate its baseline
// entries. Matching consumes entries one-for-one, so N+1 occurrences of an
// identical finding against N baselined ones still gate.
#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <tuple>

#include "common/json.hpp"
#include "lint.hpp"

namespace rltherm::lint {

namespace {

/// Walks the shared reader's value model. Strict like every project input:
/// one object holding only a "findings" array of objects with exactly the
/// writer's keys.
std::string parseFindings(const JsonValue& doc, std::vector<Finding>& out) {
  if (doc.kind != JsonValue::Kind::Object) return "expected a JSON object";
  for (const auto& [key, value] : doc.members) {
    if (key != "findings") return "unknown key '" + key + "' (expected \"findings\")";
  }
  const JsonValue* findings = doc.find("findings");
  if (findings == nullptr || findings->kind != JsonValue::Kind::Array) {
    return "no \"findings\" array";
  }
  for (const JsonValue& item : findings->items) {
    if (item.kind != JsonValue::Kind::Object) return "finding is not an object";
    Finding f;
    for (const auto& [key, value] : item.members) {
      if (key == "line") {
        const std::optional<std::uint64_t> line = value.asUint64();
        if (!line.has_value()) return "finding 'line' must be a non-negative integer";
        f.line = *line;
        continue;
      }
      std::string* field = key == "file"      ? &f.file
                           : key == "rule"    ? &f.rule
                           : key == "message" ? &f.message
                                              : nullptr;
      if (field == nullptr) return "unknown key '" + key + "' in a finding";
      if (value.kind != JsonValue::Kind::String) {
        return "finding '" + key + "' must be a string";
      }
      *field = value.text;
    }
    out.push_back(std::move(f));
  }
  return "";
}

}  // namespace

void sortFindings(std::vector<Finding>& findings) {
  std::sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.file, a.line, a.rule, a.message) <
           std::tie(b.file, b.line, b.rule, b.message);
  });
}

void writeFindingsText(const std::vector<Finding>& findings, std::ostream& out) {
  for (const Finding& f : findings) {
    out << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message << "\n";
  }
}

void writeFindingsJson(const std::vector<Finding>& findings, std::ostream& out) {
  out << "{\"findings\":[";
  bool first = true;
  for (const Finding& f : findings) {
    if (!first) out << ",";
    first = false;
    out << "\n  {\"file\":\"" << JsonWriter::escape(f.file) << "\",\"line\":" << f.line
        << ",\"rule\":\"" << JsonWriter::escape(f.rule) << "\",\"message\":\""
        << JsonWriter::escape(f.message) << "\"}";
  }
  out << (findings.empty() ? "]}\n" : "\n]}\n");
}

std::vector<Finding> readFindingsJson(std::istream& in, std::string* error) {
  std::ostringstream ss;
  ss << in.rdbuf();
  const JsonParseResult parsed = parseJson(ss.str());
  std::vector<Finding> out;
  const std::string err =
      parsed.ok() ? parseFindings(parsed.value, out)
                  : "offset " + std::to_string(parsed.offset) + ": " + parsed.error;
  if (error != nullptr) *error = err;
  if (!err.empty()) out.clear();
  return out;
}

std::vector<Finding> diffAgainstBaseline(const std::vector<Finding>& current,
                                         const std::vector<Finding>& baseline,
                                         std::vector<Finding>* staleBaseline) {
  using Key = std::tuple<std::string, std::string, std::string>;
  std::map<Key, std::size_t> budget;
  for (const Finding& b : baseline) ++budget[{b.file, b.rule, b.message}];

  std::vector<Finding> fresh;
  for (const Finding& f : current) {
    const auto it = budget.find({f.file, f.rule, f.message});
    if (it != budget.end() && it->second > 0) {
      --it->second;
    } else {
      fresh.push_back(f);
    }
  }
  if (staleBaseline != nullptr) {
    staleBaseline->clear();
    for (const Finding& b : baseline) {
      auto it = budget.find({b.file, b.rule, b.message});
      if (it != budget.end() && it->second > 0) {
        --it->second;
        staleBaseline->push_back(b);
      }
    }
  }
  return fresh;
}

}  // namespace rltherm::lint
