// Deterministic fault-injection campaigns: the FaultPlan scenario format.
//
// The paper's run-time system lives on real silicon where thermal sensors
// stick, drift and die, and where DVFS transitions can be delayed or
// silently rejected by firmware. A FaultPlan is a seed-free, fully
// deterministic schedule of such fault events — the same plan replayed on
// the same machine configuration produces bit-identical traces, which is
// what lets the campaign engine (bench_fault_campaign, `rltherm_cli faults`)
// fan (scenario x policy) grids across threads under the sweep engine's
// bit-identical-across-`--jobs` guarantee.
//
// Plans are parsed from a scenario file in the project's TOML subset
// (common/toml.hpp; docs/ARCHITECTURE.md "Input grammar"):
//
//   [scenario]
//   name = "sensor-death"
//   description = "core-1 sensor dies mid-run"
//   cores = 4
//
//   [[event]]
//   t = 120.0              # seconds (simulated time)
//   until = 400.0          # optional end of the fault window; omit = forever
//   kind = "sensor.dead"   # see FaultKind below
//   channel = 1            # sensor.* events only
//
// Parsing is STRICT: unknown table names, unknown keys, unknown fault
// kinds, out-of-range channels and overlapping windows on one channel (or
// within one actuation class) all fail with a `file:line:` prefixed
// PreconditionError and never silently skip — a scenario that does not do
// what it says is worse than no scenario at all.
#pragma once

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace rltherm::fault {

/// The fault vocabulary, mirroring how the platform actually fails:
///
///   sensor.stuck        channel repeats its last healthy reading
///   sensor.dead         channel reads SensorConfig::deadReading
///   sensor.offset       channel reads healthy + `param` degrees C
///   sensor.noise_burst  channel reads healthy + N(0, param) extra noise
///   sample.drop         sensor sampling passes are not delivered at all
///   sample.late         delivered readings are `delay` seconds stale
///   dvfs.ignore         machine-wide governor requests are discarded
///   dvfs.delay          governor requests take effect `delay` seconds late
///   dvfs.partial        governor requests reach only the first half of the
///                       cores (a partially completed transition)
///   affinity.fail       affinity (thread migration) requests are dropped
///   core.dead           the core is retired permanently at `t` (no `until`:
///                       silicon does not resurrect) — it stops executing
///                       threads and is power-gated
///   core.intermittent   the core drops offline for the first half of every
///                       `param`-second period inside [t, until) — a marginal
///                       core that flickers in and out of service
enum class FaultKind {
  SensorStuck,
  SensorDead,
  SensorOffset,
  SensorNoiseBurst,
  SampleDrop,
  SampleLate,
  DvfsIgnore,
  DvfsDelay,
  DvfsPartial,
  AffinityFail,
  CoreDead,
  CoreIntermittent,
};

/// Scenario-file spelling of a kind ("sensor.stuck", "dvfs.delay", ...).
[[nodiscard]] std::string toString(FaultKind kind);
/// True for the sensor.* kinds (the ones that need a channel).
[[nodiscard]] bool isSensorFault(FaultKind kind) noexcept;
/// True for the sample.* kinds.
[[nodiscard]] bool isSampleFault(FaultKind kind) noexcept;
/// True for the dvfs.* kinds.
[[nodiscard]] bool isDvfsFault(FaultKind kind) noexcept;
/// True for the core.* kinds (permanent/intermittent core retirement).
[[nodiscard]] bool isCoreFault(FaultKind kind) noexcept;

/// Sentinel "until": the fault persists to the end of the run.
inline constexpr Seconds kFaultForever = std::numeric_limits<Seconds>::infinity();

/// One timed fault window [start, until).
struct FaultEvent {
  FaultKind kind = FaultKind::SensorStuck;
  Seconds start = 0.0;
  Seconds until = kFaultForever;
  std::size_t channel = 0;   ///< sensor.* only: which per-core sensor
  std::size_t core = 0;      ///< core.* only: which core is retired
  double parameter = 0.0;    ///< offset degC (sensor.offset) / sigma degC
                             ///< (noise_burst) / period s (core.intermittent)
  Seconds delay = 0.0;       ///< staleness (sample.late) / deferral (dvfs.delay)
  std::size_t line = 0;      ///< scenario-file line for diagnostics (0 = built in code)

  /// Whether `now` falls inside this event's window.
  [[nodiscard]] bool active(Seconds now) const noexcept {
    return now + 1e-9 >= start && now < until;
  }

  /// For core.* events: whether the targeted core is OFFLINE at `now`.
  /// core.dead is offline for the whole window; core.intermittent is offline
  /// during the first half of each `parameter`-second period. A pure function
  /// of simulated time, so replays are bit-identical at any `--jobs`.
  [[nodiscard]] bool coreOffline(Seconds now) const noexcept {
    if (!active(now)) return false;
    if (kind == FaultKind::CoreDead) return true;
    if (kind != FaultKind::CoreIntermittent || parameter <= 0.0) return false;
    const Seconds phase = now - start;
    const Seconds into = phase - parameter * std::floor(phase / parameter);
    return into < 0.5 * parameter;
  }
};

/// A validated, start-ordered schedule of fault events plus the scenario
/// metadata. Empty plans are valid and inject nothing.
struct FaultPlan {
  std::string name;
  std::string description;
  /// Core/channel count the plan was written against; channel indices are
  /// validated against it at parse time and re-checked against the actual
  /// machine when the injector attaches.
  std::size_t cores = 4;
  std::vector<FaultEvent> events;

  [[nodiscard]] bool empty() const noexcept { return events.empty(); }

  /// Parse + validate a scenario file. `sourceName` prefixes error messages
  /// ("sensor_death.toml:12: ..."). Throws PreconditionError on any problem.
  [[nodiscard]] static FaultPlan parse(const std::string& text,
                                       const std::string& sourceName);
  /// Parse a scenario file from disk; the file name becomes `sourceName`.
  [[nodiscard]] static FaultPlan fromFile(const std::string& path);

  /// Re-run the semantic checks (kind/field consistency, channel ranges,
  /// per-channel and per-class window overlaps). parse() calls this; call it
  /// yourself after building a plan programmatically. Throws
  /// PreconditionError; also sorts events by start time.
  void validate();
};

}  // namespace rltherm::fault
