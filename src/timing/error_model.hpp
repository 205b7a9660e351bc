// Timing-error injection models.
//
// An error model answers one question per dynamic instruction: does an EDS
// sensor somewhere in this FPU's pipeline flag a timing violation for this
// instruction? Two concrete models cover the paper's two experiments:
//
//  * FixedRateErrorModel — the Fig. 10 sweep, where the per-instruction
//    timing-error rate is an independent variable swept over [0%, 4%];
//  * VoltageErrorModel  — the Fig. 11 voltage-overscaling study, where the
//    per-instruction error probability is derived from the alpha-power
//    delay model in timing/voltage.hpp at the configured supply voltage.
#pragma once

#include <memory>

#include "common/types.hpp"
#include "fpu/opcode.hpp"
#include "timing/voltage.hpp"

namespace tmemo {

/// Interface: per-instruction timing-error probability for a unit type.
class TimingErrorModel {
 public:
  virtual ~TimingErrorModel() = default;

  /// Probability that one instruction on a `unit`-type FPU suffers at least
  /// one timing error across its pipeline stages.
  [[nodiscard]] virtual double op_error_probability(FpuType unit) const = 0;
};

/// Error-free execution (the 0% point of Fig. 10).
class NoErrorModel final : public TimingErrorModel {
 public:
  [[nodiscard]] double op_error_probability(FpuType) const override {
    return 0.0;
  }
};

/// Uniform per-instruction error rate, independent of unit type — the
/// abstraction used by the paper's Fig. 10 sweep (0%..4%).
class FixedRateErrorModel final : public TimingErrorModel {
 public:
  explicit FixedRateErrorModel(double rate);
  [[nodiscard]] double op_error_probability(FpuType) const override {
    return rate_;
  }
  [[nodiscard]] double rate() const noexcept { return rate_; }

 private:
  double rate_;
};

/// Voltage-overscaling-induced error rate: per-stage Gaussian path delays
/// scaled by the alpha-power law, aggregated over the unit's pipeline
/// depth. Deeper pipelines (RECIP: 16 stages) see proportionally more
/// errors, as the paper argues in §1.
class VoltageErrorModel final : public TimingErrorModel {
 public:
  VoltageErrorModel(VoltageScaling scaling, Volt supply);

  [[nodiscard]] double op_error_probability(FpuType unit) const override;
  [[nodiscard]] Volt supply() const noexcept { return supply_; }
  [[nodiscard]] const VoltageScaling& scaling() const noexcept {
    return scaling_;
  }

 private:
  VoltageScaling scaling_;
  Volt supply_;
};

} // namespace tmemo
