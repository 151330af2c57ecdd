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
// [2, 64]. A caller that runs the proposed policy also checks the machine
// with requireProposedPolicyMachine: its action space is built for 4 cores.
#pragma once

#include "common/config.hpp"
#include "core/runner.hpp"
#include "core/thermal_manager.hpp"

namespace rltherm::core {

/// Overlay [machine]/[thermal]/[sensor]/[runner] keys onto defaults.
[[nodiscard]] RunnerConfig runnerConfigFrom(const ConfigFile& config);

/// Overlay [manager] keys onto defaults.
[[nodiscard]] ThermalManagerConfig managerConfigFrom(const ConfigFile& config);

/// Cores the proposed policy's action space, ActionSpace::standard, is
/// built for.
inline constexpr std::size_t kProposedPolicyCores = 4;

/// Throws a PreconditionError naming [machine] cores unless the machine has
/// kProposedPolicyCores cores, so a run of the proposed policy is refused
/// before it starts rather than failing on its first affinity mask.
void requireProposedPolicyMachine(const RunnerConfig& runner);

}  // namespace rltherm::core
