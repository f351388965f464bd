#include "fault/plan.hpp"

#include <algorithm>
#include <optional>
#include <sstream>

#include "common/error.hpp"
#include "common/toml.hpp"

namespace rltherm::fault {

namespace {

/// Kind table: scenario-file spelling <-> enum. Kept in one place so the
/// parser, the printer and the "valid kinds" error message cannot drift.
struct KindName {
  const char* name;
  FaultKind kind;
};

constexpr KindName kKindNames[] = {
    {"sensor.stuck", FaultKind::SensorStuck},
    {"sensor.dead", FaultKind::SensorDead},
    {"sensor.offset", FaultKind::SensorOffset},
    {"sensor.noise_burst", FaultKind::SensorNoiseBurst},
    {"sample.drop", FaultKind::SampleDrop},
    {"sample.late", FaultKind::SampleLate},
    {"dvfs.ignore", FaultKind::DvfsIgnore},
    {"dvfs.delay", FaultKind::DvfsDelay},
    {"dvfs.partial", FaultKind::DvfsPartial},
    {"affinity.fail", FaultKind::AffinityFail},
    {"core.dead", FaultKind::CoreDead},
    {"core.intermittent", FaultKind::CoreIntermittent},
};

std::string validKindList() {
  std::string out;
  for (const KindName& entry : kKindNames) {
    if (!out.empty()) out += ", ";
    out += entry.name;
  }
  return out;
}

std::optional<FaultKind> kindOf(const std::string& name) {
  for (const KindName& entry : kKindNames) {
    if (name == entry.name) return entry.kind;
  }
  return std::nullopt;
}

FaultEvent buildEvent(TomlDocument& doc, TomlDocument::Table& table, std::size_t cores) {
  using Entry = TomlDocument::Entry;
  FaultEvent event;
  event.line = table.line;

  // Read every field first, so a misspelt key is reported as unknown rather
  // than as the required key it was meant to be.
  std::string kindName;
  const Entry* kindAt = doc.read(table, "kind", kindName);
  const Entry* tAt = doc.read(table, "t", event.start);
  const Entry* untilAt = doc.read(table, "until", event.until);
  const Entry* channelAt = doc.read(table, "channel", event.channel);
  const Entry* coreAt = doc.read(table, "core", event.core);
  const Entry* paramAt = doc.read(table, "param", event.parameter);
  const Entry* delayAt = doc.read(table, "delay", event.delay);
  doc.rejectUnread(table);

  if (kindAt == nullptr) doc.fail(table.line, "[[event]] is missing required key 'kind'");
  const std::optional<FaultKind> kind = kindOf(kindName);
  if (!kind.has_value()) {
    doc.fail(kindAt->line,
             "unknown fault kind '" + kindName + "' (valid kinds: " + validKindList() + ")");
  }
  event.kind = *kind;

  if (tAt == nullptr) doc.fail(table.line, "[[event]] is missing required key 't'");
  if (event.start < 0.0) doc.fail(tAt->line, "'t' must be >= 0");

  if (untilAt != nullptr) {
    if (event.kind == FaultKind::CoreDead) {
      doc.fail(untilAt->line,
               "'until' is not valid for core.dead — a dead core never comes back "
               "(use core.intermittent for a core that recovers)");
    }
    if (event.until <= event.start) {
      doc.fail(untilAt->line,
               "'until' must be greater than 't' (" + std::to_string(event.start) + ")");
    }
  }

  if (isSensorFault(event.kind)) {
    if (channelAt == nullptr) {
      doc.fail(table.line,
               "'" + kindName + "' requires a 'channel' (per-core sensor index)");
    }
    if (event.channel >= cores) {
      doc.fail(channelAt->line,
               "channel " + std::to_string(event.channel) + " is out of range for " +
                   std::to_string(cores) + " cores (declare 'cores' in [scenario] if "
                   "the plan targets a larger machine)");
    }
  } else if (channelAt != nullptr) {
    doc.fail(channelAt->line,
             "'channel' is only valid for sensor.* events, not '" + kindName + "'");
  }

  if (isCoreFault(event.kind)) {
    if (coreAt == nullptr) {
      doc.fail(table.line, "'" + kindName + "' requires a 'core' (core index)");
    }
    if (event.core >= cores) {
      doc.fail(coreAt->line,
               "core " + std::to_string(event.core) + " is out of range for " +
                   std::to_string(cores) + " cores (declare 'cores' in [scenario] if "
                   "the plan targets a larger machine)");
    }
  } else if (coreAt != nullptr) {
    doc.fail(coreAt->line,
             "'core' is only valid for core.* events, not '" + kindName + "'");
  }

  const bool needsParam = event.kind == FaultKind::SensorOffset ||
                          event.kind == FaultKind::SensorNoiseBurst ||
                          event.kind == FaultKind::CoreIntermittent;
  if (needsParam) {
    if (paramAt == nullptr) {
      doc.fail(table.line,
               "'" + kindName + "' requires 'param' (" +
                   (event.kind == FaultKind::SensorOffset     ? "offset in degrees C"
                    : event.kind == FaultKind::SensorNoiseBurst
                        ? "extra noise sigma in degrees C"
                        : "on/off period in seconds") +
                   ")");
    }
    if (event.kind == FaultKind::SensorNoiseBurst && event.parameter <= 0.0) {
      doc.fail(paramAt->line, "'param' (noise sigma) must be > 0");
    }
    if (event.kind == FaultKind::CoreIntermittent && event.parameter <= 0.0) {
      doc.fail(paramAt->line, "'param' (on/off period) must be > 0 seconds");
    }
  } else if (paramAt != nullptr) {
    doc.fail(paramAt->line,
             "'param' is only valid for sensor.offset / sensor.noise_burst / "
             "core.intermittent, not '" + kindName + "'");
  }

  const bool needsDelay =
      event.kind == FaultKind::SampleLate || event.kind == FaultKind::DvfsDelay;
  if (needsDelay) {
    if (delayAt == nullptr) {
      doc.fail(table.line, "'" + kindName + "' requires 'delay' (seconds)");
    }
    if (event.delay <= 0.0) doc.fail(delayAt->line, "'delay' must be > 0 seconds");
  } else if (delayAt != nullptr) {
    doc.fail(delayAt->line,
             "'delay' is only valid for sample.late / dvfs.delay, not '" + kindName + "'");
  }

  return event;
}

/// Conflict-group key: events in the same group must not overlap in time.
/// Sensor faults conflict per channel; sample/dvfs/affinity faults conflict
/// within their class (two simultaneous dvfs failure modes are ill-defined).
std::string overlapGroup(const FaultEvent& event) {
  if (isSensorFault(event.kind)) return "sensor channel " + std::to_string(event.channel);
  if (isSampleFault(event.kind)) return "sample delivery";
  if (isDvfsFault(event.kind)) return "dvfs actuation";
  if (isCoreFault(event.kind)) return "core " + std::to_string(event.core);
  return "affinity actuation";
}

std::string describeAt(const FaultEvent& event) {
  if (event.line > 0) return "line " + std::to_string(event.line);
  std::ostringstream out;
  out << "t=" << event.start;
  return out.str();
}

FaultPlan planFrom(TomlDocument& doc) {
  FaultPlan plan;
  if (!doc.root().entries.empty()) {
    const TomlDocument::Entry& first = doc.root().entries.front();
    doc.fail(first.line,
             "'" + first.key + "' appears before any [scenario]/[[event]] table");
  }
  const std::vector<TomlDocument::Table*> events = doc.tables("event");
  if (TomlDocument::Table* scenario = doc.table("scenario")) {
    if (!events.empty() && events.front()->line < scenario->line) {
      doc.fail(scenario->line, "[scenario] must precede all [[event]] tables");
    }
    doc.read(*scenario, "name", plan.name);
    doc.read(*scenario, "description", plan.description);
    const TomlDocument::Entry* coresAt = doc.read(*scenario, "cores", plan.cores);
    doc.rejectUnread(*scenario);
    if (coresAt != nullptr && plan.cores == 0) doc.fail(coresAt->line, "'cores' must be >= 1");
  }
  for (TomlDocument::Table* event : events) {
    plan.events.push_back(buildEvent(doc, *event, plan.cores));
  }
  doc.rejectUnread();

  if (plan.name.empty()) plan.name = doc.source();
  try {
    plan.validate();
  } catch (const PreconditionError& error) {
    throw PreconditionError(doc.source() + ": " + error.what());
  }
  return plan;
}

}  // namespace

std::string toString(FaultKind kind) {
  for (const KindName& entry : kKindNames) {
    if (entry.kind == kind) return entry.name;
  }
  return "unknown";
}

bool isSensorFault(FaultKind kind) noexcept {
  return kind == FaultKind::SensorStuck || kind == FaultKind::SensorDead ||
         kind == FaultKind::SensorOffset || kind == FaultKind::SensorNoiseBurst;
}

bool isSampleFault(FaultKind kind) noexcept {
  return kind == FaultKind::SampleDrop || kind == FaultKind::SampleLate;
}

bool isDvfsFault(FaultKind kind) noexcept {
  return kind == FaultKind::DvfsIgnore || kind == FaultKind::DvfsDelay ||
         kind == FaultKind::DvfsPartial;
}

bool isCoreFault(FaultKind kind) noexcept {
  return kind == FaultKind::CoreDead || kind == FaultKind::CoreIntermittent;
}

FaultPlan FaultPlan::parse(const std::string& text, const std::string& sourceName) {
  TomlDocument doc = TomlDocument::parse(text, sourceName);
  return planFrom(doc);
}

FaultPlan FaultPlan::fromFile(const std::string& path) {
  TomlDocument doc = TomlDocument::fromFile(path, "fault scenario");
  return planFrom(doc);
}

void FaultPlan::validate() {
  expects(cores >= 1, "FaultPlan: cores must be >= 1");
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.start < b.start;
                   });
  for (const FaultEvent& event : events) {
    expects(event.start >= 0.0, "FaultPlan: event at " + describeAt(event) +
                                    " has negative start time");
    expects(event.until > event.start, "FaultPlan: event at " + describeAt(event) +
                                           " has 'until' <= 't'");
    if (isSensorFault(event.kind)) {
      expects(event.channel < cores,
              "FaultPlan: event at " + describeAt(event) + " targets channel " +
                  std::to_string(event.channel) + " on a " + std::to_string(cores) +
                  "-core plan");
    }
    if (event.kind == FaultKind::SensorNoiseBurst) {
      expects(event.parameter > 0.0, "FaultPlan: event at " + describeAt(event) +
                                         " needs a positive noise sigma");
    }
    if (event.kind == FaultKind::SampleLate || event.kind == FaultKind::DvfsDelay) {
      expects(event.delay > 0.0, "FaultPlan: event at " + describeAt(event) +
                                     " needs a positive delay");
    }
    if (isCoreFault(event.kind)) {
      expects(event.core < cores,
              "FaultPlan: event at " + describeAt(event) + " targets core " +
                  std::to_string(event.core) + " on a " + std::to_string(cores) +
                  "-core plan");
    }
    if (event.kind == FaultKind::CoreDead) {
      expects(event.until == kFaultForever,
              "FaultPlan: event at " + describeAt(event) +
                  " gives core.dead an 'until' — permanent faults have no end");
    }
    if (event.kind == FaultKind::CoreIntermittent) {
      expects(event.parameter > 0.0, "FaultPlan: event at " + describeAt(event) +
                                         " needs a positive on/off period");
    }
  }
  // Overlap detection within each conflict group (O(n^2) over a handful of
  // events; scenario files are tiny by construction).
  for (std::size_t i = 0; i < events.size(); ++i) {
    for (std::size_t j = i + 1; j < events.size(); ++j) {
      const FaultEvent& a = events[i];
      const FaultEvent& b = events[j];
      const std::string group = overlapGroup(a);
      if (group != overlapGroup(b)) continue;
      const bool overlaps = a.start < b.until && b.start < a.until;
      if (!overlaps) continue;
      // A permanent retirement swallowing a later event on the same core is
      // the classic scenario-authoring mistake; name it explicitly.
      if (a.kind == FaultKind::CoreDead || b.kind == FaultKind::CoreDead) {
        throw PreconditionError(
            "FaultPlan: overlapping " + group + " events (" + describeAt(a) +
            " and " + describeAt(b) +
            ") — core.dead is permanent, so no later fault on that core can "
            "ever take effect");
      }
      throw PreconditionError("FaultPlan: overlapping " + group + " events (" +
                              describeAt(a) + " and " + describeAt(b) +
                              ") — windows on one target must not intersect");
    }
  }
}

}  // namespace rltherm::fault
