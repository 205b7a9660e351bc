// The top-level GPGPU device model: compute units + ultra-thread
// dispatching + device-wide configuration of the temporal-memoization
// modules + energy/statistics aggregation.
//
// The device does not know about the kernel programming model; kernels are
// launched through the tm_kernel library (kernel/launch.hpp), which drives
// ComputeUnit::execute_wavefront_op and routes every ExecutionRecord into
// the device's energy accumulator (gpu/compute_unit.hpp).
#pragma once

#include <array>
#include <memory>
#include <span>
#include <vector>

#include "energy/energy_model.hpp"
#include "gpu/compute_unit.hpp"
#include "gpu/device_config.hpp"
#include "memo/lut.hpp"
#include "timing/error_model.hpp"

namespace tmemo {

class GpuDevice {
 public:
  explicit GpuDevice(const DeviceConfig& config = DeviceConfig::radeon_hd5870(),
                     const EnergyModel& energy = EnergyModel{});

  // Copying is not possible (stream cores own their FPU instances
  // exclusively); moves are.
  GpuDevice(const GpuDevice&) = delete;
  GpuDevice& operator=(const GpuDevice&) = delete;
  GpuDevice(GpuDevice&& other) noexcept = default;
  GpuDevice& operator=(GpuDevice&& other) noexcept = default;

  [[nodiscard]] const DeviceConfig& config() const noexcept { return config_; }

  // -- Timing / voltage environment ----------------------------------------

  /// Installs the timing-error model used by subsequent launches.
  void set_error_model(std::shared_ptr<const TimingErrorModel> model);
  [[nodiscard]] const TimingErrorModel& error_model() const noexcept {
    return *errors_;
  }

  /// FPU supply voltage used by the energy accumulator (the memoization
  /// module itself always stays at the nominal supply).
  void set_fpu_supply(Volt v);
  [[nodiscard]] Volt fpu_supply() const noexcept {
    return accumulator_.supply();
  }

  // -- Application-visible memoization configuration ------------------------
  // Broadcast to the memory-mapped registers of every FPU on the device,
  // the way a host runtime would program all modules before a kernel launch.

  /// Exact matching constraint (error-intolerant kernels).
  void program_exact();
  /// Approximate matching with the given absolute Eq.-1 threshold.
  void program_threshold(float threshold);
  /// Approximate matching via the fraction-LSB masking vector derived from
  /// the threshold (the error-tolerant-application programming of §4.2).
  void program_threshold_as_mask(float threshold);
  void set_commutativity(bool on);
  /// Enables/disables the modules via their control register.
  void set_memo_enabled(bool on);
  /// Power-gates the modules entirely (clears LUT state when gating).
  void set_power_gated(bool gated);
  /// Preloads an entry into every LUT (compiler-directed warm start, §4.2).
  /// The LUT depth itself is fixed at construction (DeviceConfig::fpu).
  void preload_lut(const LutEntry& entry);
  /// Enables spatial memoization (cross-lane concurrent instruction reuse,
  /// reference [20]); composes with the temporal modules.
  void set_spatial_memoization(bool on);
  /// Per-unit-type spatial statistics summed over the device.
  [[nodiscard]] std::array<SpatialStats, kNumFpuTypes> spatial_stats() const;

  // -- Structure -------------------------------------------------------------

  [[nodiscard]] int compute_unit_count() const noexcept {
    return static_cast<int>(cus_.size());
  }
  [[nodiscard]] ComputeUnit& compute_unit(int i);

  /// The sink kernel launches must feed (the device's energy accumulator).
  [[nodiscard]] ExecutionSink& sink() noexcept { return accumulator_; }

  /// Attaches (nullptr detaches) a telemetry probe sink to every compute
  /// unit, stream core, FPU and ECU of the device. The sink must outlive
  /// the device or be detached first.
  void set_telemetry(telemetry::ProbeSink* sink);

  // -- Statistics ------------------------------------------------------------

  /// Aggregated execution statistics per FPU type, summed over the device.
  [[nodiscard]] std::array<FpuStats, kNumFpuTypes> unit_stats() const;

  /// Sum of the per-type statistics over `units`.
  [[nodiscard]] FpuStats total_stats(std::span<const FpuType> units) const;

  /// Hit rate over all instructions of all unit types (the paper's
  /// "weighted average hit rate of the activated FPUs").
  [[nodiscard]] double weighted_hit_rate() const;

  /// Energy totals over `units` (defaults: the paper's six reported types).
  [[nodiscard]] EnergyTotals energy(
      std::span<const FpuType> units = kReportedFpuTypes) const {
    return accumulator_.total(units);
  }
  [[nodiscard]] const EnergyTotals& unit_energy(FpuType u) const noexcept {
    return accumulator_.unit(u);
  }

  /// Clears all statistics and energy accumulation; keeps configuration
  /// and LUT contents.
  void reset_stats();

 private:
  DeviceConfig config_;
  std::shared_ptr<const TimingErrorModel> errors_;
  std::vector<ComputeUnit> cus_;
  EnergyAccumulator accumulator_;
};

} // namespace tmemo
