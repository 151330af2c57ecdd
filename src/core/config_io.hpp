// Mapping between ConfigFile sections and the library's configuration
// structs, so parameter studies run from a text file instead of a rebuild.
//
// Recognized sections and keys (all optional; defaults are the struct
// defaults):
//
//   [machine]   cores, tick, governor_period, warm_start, big_little,
//               thermal_cells
//   [thermal]   ambient, core_capacitance, junction_to_spreader,
//               lateral_resistance, spreader_to_sink, sink_to_ambient,
//               spreader_capacitance, sink_capacitance
//   [sensor]    quantization, noise_sigma
//   [manager]   sampling_interval, decision_epoch, stress_bins, aging_bins,
//               gamma, adaptive_sampling, decision_overhead, seed,
//               intra_threshold_aging, inter_threshold_aging
//   [runner]    trace_interval, max_sim_time, warmup, cooldown
//
// Counts are range-checked on load (PreconditionError naming section and
// key): cores >= 1, thermal_cells >= 1, stress_bins and aging_bins in
// [2, 64].
#pragma once

#include "common/config.hpp"
#include "core/runner.hpp"
#include "core/thermal_manager.hpp"

namespace rltherm::core {

/// Overlay [machine]/[thermal]/[sensor]/[runner] keys onto defaults.
[[nodiscard]] RunnerConfig runnerConfigFrom(const ConfigFile& config);

/// Overlay [manager] keys onto defaults.
[[nodiscard]] ThermalManagerConfig managerConfigFrom(const ConfigFile& config);

}  // namespace rltherm::core
