#include "energy/energy_model.hpp"

#include "common/require.hpp"

namespace tmemo {

EnergyModel::EnergyModel(const EnergyParams& params,
                         const VoltageScaling& scaling)
    : params_(params), scaling_(scaling) {
  for (double e : params_.fpu_op_energy_pj) {
    TM_REQUIRE(e > 0.0, "per-op energy must be positive");
  }
  TM_REQUIRE(params_.lut_lookup_pj >= 0.0 && params_.lut_update_pj >= 0.0,
             "LUT energies must be non-negative");
  TM_REQUIRE(params_.clock_gate_residual >= 0.0 &&
                 params_.clock_gate_residual <= 1.0,
             "clock-gate residual is a fraction in [0, 1]");
  TM_REQUIRE(params_.recovery_energy_factor >= 0.0,
             "recovery energy factor must be non-negative");
  for (FpuType u : kAllFpuTypes) {
    nominal_[static_cast<std::size_t>(u)] =
        compute_unit_energy(u, params_.nominal_voltage);
  }
}

EnergyPj EnergyModel::op_energy(FpuType unit, Volt v) const {
  const double base =
      params_.fpu_op_energy_pj[static_cast<std::size_t>(unit)];
  return base * scaling_.energy_factor(v);
}

EnergyPj EnergyModel::stage_energy(FpuType unit, Volt v) const {
  return op_energy(unit, v) / static_cast<double>(fpu_latency_cycles(unit));
}

EnergyPj EnergyModel::recovery_energy(FpuType unit, Volt v) const {
  return params_.recovery_energy_factor * op_energy(unit, v);
}

UnitEnergy EnergyModel::compute_unit_energy(FpuType unit, Volt v) const {
  UnitEnergy e;
  e.op = op_energy(unit, v);
  e.stage = stage_energy(unit, v);
  e.gated_stage = e.stage * params_.clock_gate_residual;
  e.recovery = recovery_energy(unit, v);
  return e;
}

} // namespace tmemo
