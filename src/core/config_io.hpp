// Mapping between `--config` documents (common/toml.hpp) and the library's
// configuration structs, so parameter studies run from a text file instead
// of a rebuild.
//
// Recognized tables and keys (all optional; defaults are the struct
// defaults):
//
//   [machine]   cores (1..32), tick, governor_period, warm_start, big_little,
//               thermal_cells (>= 1; 1 = one node per core)
//   [thermal]   ambient, core_capacitance, junction_to_spreader,
//               lateral_resistance, spreader_to_sink, sink_to_ambient,
//               spreader_capacitance, sink_capacitance
//   [sensor]    quantization, noise_sigma
//   [manager]   sampling_interval, decision_epoch, stress_bins (>= 2),
//               aging_bins (>= 2), gamma, adaptive_sampling, decision_overhead, seed,
//               intra_threshold_aging, inter_threshold_aging
//   [runner]    trace_interval, max_sim_time (> 0), warmup, cooldown
//
// Any other table or key is an error: a misspelt key must fail loudly, not
// leave its parameter at the default.
#pragma once

#include <string>
#include <string_view>

#include "core/runner.hpp"
#include "core/thermal_manager.hpp"

namespace rltherm::core {

/// Everything one `--config` document sets.
struct LoadedConfig {
  RunnerConfig runner;
  ThermalManagerConfig manager;
};

/// Overlays the document's keys onto the defaults. Throws
/// "source:line: message" on a syntax error, a value that does not fit its
/// field, or a table or key the mapping does not read.
[[nodiscard]] LoadedConfig parseConfig(std::string_view text, const std::string& source);

/// parseConfig on a file; the path is the source.
[[nodiscard]] LoadedConfig loadConfigFile(const std::string& path);

}  // namespace rltherm::core
