// Error-detection sequential (EDS) sensor model.
//
// Every FPU pipeline stage carries EDS circuits (Bowman et al. [6][9]) that
// sample critical signals near the clock edge and raise an error flag when a
// late transition is observed. The flag is propagated stage by stage toward
// the end of the pipeline, where it reaches the error control unit (ECU).
//
// For the statistics this library reports, what matters is (a) whether an
// instruction is flagged at all (drawn from a TimingErrorModel) and (b) in
// which stage the violation occurred, which determines how far the error
// signal travels before recovery can start.
#pragma once

#include "common/rng.hpp"
#include "common/types.hpp"
#include "fpu/opcode.hpp"
#include "inject/fault_config.hpp"
#include "timing/error_model.hpp"

namespace tmemo {

/// Outcome of the EDS sensors for one instruction traversing one FPU.
/// `error` is what the downstream hardware sees; with imperfect sensors
/// (inject::EdsFaultConfig) it can disagree with the ground truth.
struct EdsObservation {
  bool error = false;  ///< flag presented to the ECU/memo module
  int errant_stage = -1;  ///< 0-based stage of the first violation (-1: none)
  int propagation_cycles = 0;  ///< cycles for the flag to reach pipeline end
  bool true_error = false;      ///< ground truth: the datapath really erred
  bool false_negative = false;  ///< real violation, flag suppressed (SDC path)
  bool false_positive = false;  ///< spurious flag, no violation occurred
};

/// Per-FPU EDS sensor bank.
class EdsSensorBank {
 public:
  EdsSensorBank(FpuType unit, std::uint64_t seed,
                const inject::EdsFaultConfig& faults = {})
      : unit_(unit),
        depth_(fpu_latency_cycles(unit)),
        rng_(seed),
        faults_(faults) {}

  [[nodiscard]] FpuType unit() const noexcept { return unit_; }
  [[nodiscard]] int depth() const noexcept { return depth_; }
  [[nodiscard]] const inject::EdsFaultConfig& faults() const noexcept {
    return faults_;
  }

  /// Samples the sensors for one instruction erring with probability
  /// `p_error`. An errant stage is drawn uniformly (each stage has the same
  /// per-cycle violation probability); the propagation latency is the
  /// number of remaining stages the flag must ripple through.
  ///
  /// With a nonzero EdsFaultConfig the observed flag can diverge from the
  /// ground truth: a real violation is suppressed with probability
  /// false_negative_rate, a clean pass misfires with probability
  /// false_positive_rate. The imperfection draws are gated behind
  /// faults_.enabled() so the RNG stream — and therefore every golden
  /// result — is bit-identical when injection is off.
  [[nodiscard]] EdsObservation observe(double p_error) {
    EdsObservation obs;
    obs.true_error = rng_.bernoulli(p_error);
    obs.error = obs.true_error;
    if (faults_.enabled()) {
      if (obs.true_error) {
        if (faults_.false_negative_rate > 0.0 &&
            rng_.bernoulli(faults_.false_negative_rate)) {
          obs.error = false;
          obs.false_negative = true;
        }
      } else if (faults_.false_positive_rate > 0.0 &&
                 rng_.bernoulli(faults_.false_positive_rate)) {
        obs.error = true;
        obs.false_positive = true;
      }
    }
    if (obs.error) {
      obs.errant_stage = static_cast<int>(
          rng_.next_below(static_cast<std::uint64_t>(depth_)));
      obs.propagation_cycles = depth_ - 1 - obs.errant_stage;
    }
    return obs;
  }

  /// observe() at `model`'s error probability for this bank's unit.
  [[nodiscard]] EdsObservation observe(const TimingErrorModel& model) {
    return observe(model.op_error_probability(unit_));
  }

  /// Reseeds the sensor RNG (deterministic experiment replays).
  void reseed(std::uint64_t seed) { rng_.reseed(seed); }

 private:
  FpuType unit_;
  int depth_;
  Xorshift128 rng_;
  inject::EdsFaultConfig faults_;
};

} // namespace tmemo
