// Energy accounting for the resilient FPU architecture.
//
// The paper's energy numbers come from a TSMC 45 nm ASIC flow (FloPoCo FPU
// RTL, Design Compiler / IC Compiler, PrimeTime voltage scaling) signed off
// at 1 GHz / 0.9 V. We substitute an analytic per-event model with
// constants calibrated to that technology class:
//
//  * every FPU type has a per-operation dynamic energy at nominal voltage,
//    spread uniformly over its pipeline stages;
//  * dynamic energy scales as (V/Vnom)^2 under voltage overscaling, while
//    the memoization module stays at the fixed nominal voltage (paper §5.3:
//    "To ensure always correct functionality of the temporal memoization
//    module, we maintain its operating voltage at the fixed nominal 0.9V");
//  * a clock-gated stage still burns a small residual (clock tree stub +
//    leakage) fraction of its active energy;
//  * an ECU recovery charges the energy of the flush + multiple-issue
//    replay + the lock-step stall of the lane — expressed as a multiple of
//    the op energy, dominated by the 12-cycle replay sequence and the
//    pipeline-wide squash (paper §1 argues this cost is quadratically
//    worse in wide/deep SIMD pipelines than in scalar cores).
//
// All constants live in EnergyParams and are swept by
// bench/ablation_energy_model to show which conclusions are sensitive to
// them.
#pragma once

#include <array>
#include <bit>
#include <cstdint>

#include "common/types.hpp"
#include "fpu/opcode.hpp"
#include "memo/resilient_fpu.hpp"
#include "timing/voltage.hpp"

namespace tmemo {

/// Calibration constants (all energies in pJ at the nominal voltage).
struct EnergyParams {
  /// Per-operation dynamic energy by FPU type, indexed by FpuType.
  /// 45 nm-class single-precision units at 1 GHz: conversions are cheap,
  /// the adder datapath modest, multiplier and FMA larger, and the deep
  /// iterative transcendental units the most expensive.
  std::array<double, kNumFpuTypes> fpu_op_energy_pj = {
      9.0,   // ADD
      14.0,  // MUL
      21.0,  // MULADD
      30.0,  // SQRT
      65.0,  // RECIP (16-stage pipeline)
      5.0,   // FP2INT
      5.0,   // INT2FP
      45.0,  // TRIG
      40.0,  // EXPLOG
  };

  /// One associative lookup of the 2-entry LUT (3x32-bit comparators per
  /// entry + output mux). Fixed at the module's nominal supply.
  double lut_lookup_pj = 0.8;

  /// One FIFO write (W_en fires).
  double lut_update_pj = 0.5;

  /// Module leakage + clock per occupied FPU cycle (always-on module).
  double memo_static_pj_per_cycle = 0.03;

  /// Fraction of a stage's active energy still burned when clock-gated.
  /// The squashed stages stop their datapath logic, but the staging
  /// registers that carry the memorized result Q_L (and the forwarded
  /// gating/hit signals) keep clocking, so a gated stage is not free.
  double clock_gate_residual = 0.30;

  /// One lane-vs-master operand comparison of the spatial-memoization
  /// comparator (reference [20]; see memo/spatial.hpp). Unlike the
  /// per-FPU temporal LUT, the master's operands must be routed across
  /// the 16-lane cluster to every comparator, so this costs more than a
  /// local 2-entry lookup.
  double spatial_compare_pj = 1.2;

  /// Broadcasting the master lane's result across the 16-lane-wide SIMD
  /// result crossbar to one reusing lane — the cross-lane wiring cost the
  /// paper says "tightens its scalability".
  double spatial_broadcast_pj = 3.0;

  /// Recovery energy per error, as a multiple of the errant op's energy.
  /// The 12-cycle multiple-issue replay stalls the whole 16-lane lock-step
  /// group (paper §1: recovery in wide+deep SIMD pipelines is quadratically
  /// more expensive than in scalar units): 12 cycles x 16 lanes / 4-stage
  /// op = 48 op-equivalents of wasted issue per error.
  double recovery_energy_factor = 48.0;

  /// Nominal supply of the flow (paper: 0.9 V).
  Volt nominal_voltage = 0.9;
};

/// The energies of one FPU type at one supply that a per-op charge needs.
struct UnitEnergy {
  EnergyPj op = 0.0;           ///< one full execution
  EnergyPj stage = 0.0;        ///< one active stage-cycle
  EnergyPj gated_stage = 0.0;  ///< one clock-gated stage-cycle
  EnergyPj recovery = 0.0;     ///< one ECU recovery
};

/// Converts ExecutionRecords into energy, with optional voltage scaling.
class EnergyModel {
 public:
  explicit EnergyModel(const EnergyParams& params = {},
                       const VoltageScaling& scaling = VoltageScaling{});

  [[nodiscard]] const EnergyParams& params() const noexcept { return params_; }

  /// Per-op dynamic energy of `unit` at supply `v`.
  [[nodiscard]] EnergyPj op_energy(FpuType unit, Volt v) const;

  /// Per-stage share of the op energy at supply `v`.
  [[nodiscard]] EnergyPj stage_energy(FpuType unit, Volt v) const;

  /// Energy of one ECU recovery for an error on `unit` at supply `v`.
  [[nodiscard]] EnergyPj recovery_energy(FpuType unit, Volt v) const;

  /// All per-op energies of `unit` at supply `v` (precomputed for the
  /// nominal supply).
  [[nodiscard]] UnitEnergy unit_energy(FpuType unit, Volt v) const {
    if (std::bit_cast<std::uint64_t>(v) ==
        std::bit_cast<std::uint64_t>(params_.nominal_voltage)) {
      return nominal_[static_cast<std::size_t>(unit)];
    }
    return compute_unit_energy(unit, v);
  }

  /// Total energy of one executed instruction, FPU supply at `v`.
  /// The memoization module's contributions (lookups, updates, static) are
  /// charged at the fixed nominal voltage regardless of `v`.
  [[nodiscard]] EnergyPj charge(const ExecutionRecord& rec, Volt v) const {
    return charge(rec, unit_energy(rec.unit, v));
  }

  /// charge() with the unit's energies at the FPU supply already looked up.
  [[nodiscard]] EnergyPj charge(const ExecutionRecord& rec,
                                const UnitEnergy& e) const noexcept {
    EnergyPj total = 0.0;

    // Spatial memoization: comparator always, broadcast on reuse.
    total += params_.spatial_compare_pj *
             static_cast<double>(rec.spatial_compares);
    if (rec.spatial_reuse) total += params_.spatial_broadcast_pj;

    // FPU datapath: active stages at full energy, gated stages at residual.
    total += e.stage * static_cast<double>(rec.active_stage_cycles);
    total += e.gated_stage * static_cast<double>(rec.gated_stage_cycles);

    // ECU recovery (only in the {0,1} state).
    if (rec.recovered) total += e.recovery;

    // Memoization module — at the fixed nominal supply.
    if (rec.memo_enabled) {
      total += params_.lut_lookup_pj * static_cast<double>(rec.lut_lookups);
      total += params_.lut_update_pj * static_cast<double>(rec.lut_writes);
      total += params_.memo_static_pj_per_cycle *
               static_cast<double>(rec.latency_cycles);
    }
    return total;
  }

  /// Energy of the same instruction on the BASELINE architecture (no
  /// memoization module at all): full execution plus recovery whenever the
  /// instruction was flagged. Uses the record's timing_error bit — masked
  /// errors still cost a recovery on the baseline.
  [[nodiscard]] EnergyPj charge_baseline(const ExecutionRecord& rec,
                                         Volt v) const {
    return charge_baseline(rec, unit_energy(rec.unit, v));
  }

  /// charge_baseline() with the unit's energies already looked up.
  [[nodiscard]] EnergyPj charge_baseline(const ExecutionRecord& rec,
                                         const UnitEnergy& e) const noexcept {
    EnergyPj total = e.op;
    if (rec.timing_error) total += e.recovery;
    return total;
  }

  /// Convenience: both charges at the nominal supply.
  [[nodiscard]] EnergyPj charge(const ExecutionRecord& rec) const {
    return charge(rec, params_.nominal_voltage);
  }
  [[nodiscard]] EnergyPj charge_baseline(const ExecutionRecord& rec) const {
    return charge_baseline(rec, params_.nominal_voltage);
  }

 private:
  [[nodiscard]] UnitEnergy compute_unit_energy(FpuType unit, Volt v) const;

  EnergyParams params_;
  VoltageScaling scaling_;
  std::array<UnitEnergy, kNumFpuTypes> nominal_{};
};

/// Running energy totals for an experiment.
struct EnergyTotals {
  EnergyPj memoized_pj = 0.0;
  EnergyPj baseline_pj = 0.0;

  /// Relative energy saving of the memoized architecture vs. the baseline.
  [[nodiscard]] double saving() const noexcept {
    return baseline_pj <= 0.0 ? 0.0 : 1.0 - memoized_pj / baseline_pj;
  }

  EnergyTotals& operator+=(const EnergyTotals& o) noexcept {
    memoized_pj += o.memoized_pj;
    baseline_pj += o.baseline_pj;
    return *this;
  }
};

} // namespace tmemo
