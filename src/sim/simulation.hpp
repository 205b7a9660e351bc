// Experiment harness: runs a workload on a freshly configured device and
// collects everything the paper's tables and figures report.
//
// One Simulation owns the model parameters (device shape, energy constants,
// voltage-scaling constants), fixed at construction. Each run() builds a
// fresh GpuDevice (so runs are independent and deterministic), programs the
// matching constraint, installs the timing-error model and supply voltage
// described by a RunSpec, executes the workload, and returns a
// KernelRunReport. Variants are derived with with_config(); bulk grids are
// executed by the campaign engine (sim/campaign.hpp).
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "energy/energy_model.hpp"
#include "gpu/device.hpp"
#include "sim/run_spec.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/timeline.hpp"
#include "timing/error_model.hpp"
#include "workloads/workload.hpp"

namespace tmemo {

/// Model-wide configuration of an experiment campaign.
struct ExperimentConfig {
  DeviceConfig device = DeviceConfig::radeon_hd5870();
  EnergyParams energy;
  VoltageScalingParams voltage;
  /// Memoization module on/off (off = the paper's baseline architecture).
  bool memoization = true;
  /// Spatial memoization (cross-lane reuse, reference [20]); composes with
  /// the temporal modules.
  bool spatial = false;
  /// Commutativity-aware operand matching (paper §4.2; ablated).
  bool commutativity = true;
};

/// Everything measured in one workload run.
struct KernelRunReport {
  std::string kernel;
  std::string input_parameter;
  float threshold = 0.0f;
  Volt supply = 0.9;
  double error_rate_configured = 0.0; ///< for fixed-rate experiments

  std::array<FpuStats, kNumFpuTypes> unit_stats{};
  double weighted_hit_rate = 0.0;   ///< over all activated FPUs
  EnergyTotals energy;              ///< six reported unit types
  WorkloadResult result;            ///< host verification

  /// Telemetry snapshot of the run; empty unless RunSpec::metrics(true)
  /// (or timeline) was set. Campaign shards merge these bit-identically.
  telemetry::MetricsSnapshot metrics;
  /// Event timeline; null unless RunSpec::timeline(true) was set.
  std::shared_ptr<const telemetry::Timeline> timeline;

  /// Hit rate of one unit type, NaN-free (0 when the unit is inactive).
  [[nodiscard]] double unit_hit_rate(FpuType u) const noexcept {
    return unit_stats[static_cast<std::size_t>(u)].hit_rate();
  }
  [[nodiscard]] bool unit_activated(FpuType u) const noexcept {
    return unit_stats[static_cast<std::size_t>(u)].instructions > 0;
  }

  /// Device-level silent-data-corruption totals (docs/FAULT_INJECTION.md):
  /// ops that committed a silently corrupted value — missed-EDS commits
  /// plus corrupt LUT reuses. Zero whenever fault injection is off.
  [[nodiscard]] std::uint64_t total_sdc_ops() const noexcept {
    std::uint64_t n = 0;
    for (const FpuStats& s : unit_stats) n += s.sdc_ops;
    return n;
  }
  [[nodiscard]] std::uint64_t total_instructions() const noexcept {
    std::uint64_t n = 0;
    for (const FpuStats& s : unit_stats) n += s.instructions;
    return n;
  }
  /// SDC ops per executed instruction (0 when nothing executed).
  [[nodiscard]] double sdc_op_rate() const noexcept {
    const std::uint64_t ops = total_instructions();
    return ops == 0 ? 0.0
                    : static_cast<double>(total_sdc_ops()) /
                          static_cast<double>(ops);
  }
};

class Simulation {
 public:
  explicit Simulation(ExperimentConfig config = {});

  [[nodiscard]] const ExperimentConfig& config() const noexcept {
    return config_;
  }

  /// Copy-builder: a new Simulation whose config is this one's with
  /// `mutate` applied. The config is immutable after construction (so a
  /// campaign cannot change the device shape mid-flight); variants are
  /// derived instead:
  ///
  ///   Simulation gated = sim.with_config(
  ///       [](ExperimentConfig& c) { c.memoization = false; });
  template <typename Mutator>
  [[nodiscard]] Simulation with_config(Mutator&& mutate) const {
    ExperimentConfig c = config_;
    std::forward<Mutator>(mutate)(c);
    return Simulation(std::move(c));
  }

  /// Runs `workload` in the environment described by `spec`. Thread-safe:
  /// concurrent calls on one Simulation are independent (each builds its
  /// own device).
  [[nodiscard]] KernelRunReport run(const Workload& workload,
                                    const RunSpec& spec) const;

  // The pre-RunSpec entry points (run_at_error_rate / run_at_voltage and
  // the model+supply run() overload) lived here as deprecated forwarders
  // for one release cycle and have been removed; run(workload, spec)
  // above is the only entry point, so a stale call does not compile.

 private:
  ExperimentConfig config_;
};

} // namespace tmemo
