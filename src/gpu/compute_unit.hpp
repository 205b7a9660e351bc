// One compute unit: 16 stream cores executing a wavefront in SIMD
// lock-step, time-multiplexed over four sub-wavefronts (paper §3).
//
// The unit of issue at this modeling level is one *static vector
// instruction*: the same opcode applied across all active lanes of a
// wavefront. Execution order is exactly the hardware's: sub-wavefront 0
// (lanes 0..15 on stream cores 0..15), then sub-wavefront 1 (lanes 16..31),
// and so on — so stream core j's FPUs see lanes j, j+16, j+32, j+48
// back-to-back. This ordering is what creates the congested temporal value
// locality that the 2-entry LUTs capture.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "energy/energy_model.hpp"
#include "fpu/instruction.hpp"
#include "gpu/device_config.hpp"
#include "gpu/stream_core.hpp"
#include "memo/spatial.hpp"
#include "timing/error_model.hpp"

namespace tmemo {

/// Receives every ExecutionRecord produced by the device (energy
/// accounting, tracing, tests).
class ExecutionSink {
 public:
  virtual ~ExecutionSink() = default;
  virtual void consume(const ExecutionRecord& record) = 0;
};

/// Per-unit-type and overall energy accumulation. Every record is charged
/// twice — once for the memoized architecture, once for the baseline — so a
/// single simulation yields a paired comparison with identical error draws.
/// The per-unit energies at the FPU supply are computed when it is set. With
/// no observer attached, ComputeUnit::execute_wavefront_op receives the
/// accumulator itself and calls charge() directly; observers (trace writer,
/// performance model) forward each record here through consume().
class EnergyAccumulator final : public ExecutionSink {
 public:
  explicit EnergyAccumulator(const EnergyModel& model) : model_(model) {
    set_supply(model.params().nominal_voltage);
  }

  void consume(const ExecutionRecord& rec) override { charge(rec); }

  void charge(const ExecutionRecord& rec) noexcept {
    const auto u = static_cast<std::size_t>(rec.unit);
    per_unit_[u].memoized_pj += model_.charge(rec, at_supply_[u]);
    per_unit_[u].baseline_pj += model_.charge_baseline(rec, at_supply_[u]);
  }

  /// FPU supply voltage the records are charged at (the memoization module
  /// itself always stays at the nominal supply).
  void set_supply(Volt v) {
    supply_ = v;
    for (FpuType u : kAllFpuTypes) {
      at_supply_[static_cast<std::size_t>(u)] = model_.unit_energy(u, v);
    }
  }
  [[nodiscard]] Volt supply() const noexcept { return supply_; }

  [[nodiscard]] EnergyTotals total(std::span<const FpuType> units) const {
    EnergyTotals t;
    for (FpuType u : units) t += per_unit_[static_cast<std::size_t>(u)];
    return t;
  }

  [[nodiscard]] const EnergyTotals& unit(FpuType u) const noexcept {
    return per_unit_[static_cast<std::size_t>(u)];
  }

  void reset() noexcept { per_unit_ = {}; }

 private:
  EnergyModel model_;
  Volt supply_ = 0.0;
  std::array<UnitEnergy, kNumFpuTypes> at_supply_{};
  std::array<EnergyTotals, kNumFpuTypes> per_unit_{};
};

class ComputeUnit {
 public:
  ComputeUnit(const DeviceConfig& config, std::uint64_t seed);

  /// Executes one static vector instruction across the wavefront.
  ///
  /// `a`, `b`, `c` point to per-lane operand arrays (length >= wavefront
  /// size; unused operand slots may be null). Bit i of `active_mask`
  /// selects lane i. Results are written to `results` for active lanes;
  /// inactive lanes are left untouched.
  void execute_wavefront_op(FpOpcode op, StaticInstrId static_id,
                            const float* a, const float* b, const float* c,
                            std::uint64_t active_mask,
                            WorkItemId base_work_item,
                            const TimingErrorModel& errors,
                            ExecutionSink* sink, float* results);

  [[nodiscard]] int stream_core_count() const noexcept {
    return static_cast<int>(cores_.size());
  }
  [[nodiscard]] StreamCore& stream_core(int i);

  /// Applies `fn` to every FPU of every stream core, in core order.
  template <typename Fn>
  void for_each_fpu(Fn&& fn) {
    for (StreamCore& core : cores_) core.for_each_fpu(fn);
  }
  template <typename Fn>
  void for_each_fpu(Fn&& fn) const {
    for (const StreamCore& core : cores_) core.for_each_fpu(fn);
  }

  /// Attaches (nullptr detaches) a telemetry sink to this unit and every
  /// stream core / FPU beneath it; `cu` is this unit's device index.
  void set_probe(telemetry::ProbeSink* sink, std::uint32_t cu);

  // -- Spatial memoization (reference [20]; see memo/spatial.hpp) ----------

  /// Enables the cross-lane master/broadcast path for every instruction.
  void set_spatial_memoization(bool on) noexcept { spatial_ = on; }

  /// The matching constraint the spatial comparators apply (the device
  /// keeps this in sync with the memory-mapped register programming).
  void set_spatial_constraint(const MatchConstraint& c) noexcept {
    spatial_constraint_ = c;
  }

  /// Per-unit-type spatial reuse statistics.
  [[nodiscard]] const std::array<SpatialStats, kNumFpuTypes>&
  spatial_stats() const noexcept {
    return spatial_stats_;
  }
  void reset_spatial_stats() noexcept { spatial_stats_ = {}; }

 private:
  /// The lane loop of execute_wavefront_op; `charge` receives every record.
  template <typename Charge>
  void issue_lanes(FpOpcode op, StaticInstrId static_id, const float* a,
                   const float* b, const float* c, std::uint64_t active_mask,
                   WorkItemId base_work_item, const TimingErrorModel& errors,
                   float* results, Charge&& charge);

  int wavefront_size_;
  int subwavefronts_;
  std::vector<StreamCore> cores_;
  telemetry::ProbeSink* probe_ = nullptr;
  std::uint32_t probe_cu_ = 0;

  bool spatial_ = false;
  MatchConstraint spatial_constraint_ = MatchConstraint::exact();
  std::array<SpatialStats, kNumFpuTypes> spatial_stats_{};
  Xorshift128 spatial_rng_{0xb0adca57ull};
};

} // namespace tmemo
