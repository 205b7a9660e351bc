// A resilient FPU: one pipelined FP unit instrumented with EDS sensors, an
// ECU recovery path, and the tightly coupled temporal-memoization module
// (Fig. 9 of the paper).
//
// The class offers a transactional per-instruction interface. step()
// consumes one dynamic instruction, updates the LUT, ECU and statistics, and
// returns a compact LaneOutcome; it is what the GPGPU simulation layer
// drives. execute() is step() plus a complete ExecutionRecord, for observers
// and tests. Cycle-level pipeline structure (occupancy, flush) is modeled by
// FpuPipeline and exercised by the unit tests; the transaction interface
// accounts latency and stage activity consistently with that structure
// without stepping every cycle, which keeps multi-million-instruction
// workloads tractable.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "common/types.hpp"
#include "fpu/instruction.hpp"
#include "fpu/opcode.hpp"
#include "fpu/semantics.hpp"
#include "inject/fault_config.hpp"
#include "inject/lut_injector.hpp"
#include "memo/lut.hpp"
#include "memo/module.hpp"
#include "memo/registers.hpp"
#include "telemetry/probe.hpp"
#include "timing/ecu.hpp"
#include "timing/eds.hpp"
#include "timing/error_model.hpp"

namespace tmemo {

/// Everything that happened while executing one instruction on one FPU.
/// The energy model converts these records into picojoules; the statistics
/// layer aggregates them into the paper's hit-rate and recovery figures.
struct ExecutionRecord {
  FpuType unit = FpuType::kAdd;
  FpOpcode opcode = FpOpcode::kAdd;
  WorkItemId work_item = 0;       ///< issuing work-item (tracing)
  StaticInstrId static_id = 0;    ///< static instruction index (tracing)
  MemoAction action = MemoAction::kNormalExecution;

  bool lut_hit = false;        ///< matching constraint satisfied
  bool timing_error = false;   ///< EDS flagged this instruction
  bool error_masked = false;   ///< hit suppressed the error signal
  bool recovered = false;      ///< baseline ECU recovery ran
  bool lut_updated = false;    ///< W_en fired (error-free miss)
  bool memo_enabled = false;   ///< module was powered for this op

  int active_stage_cycles = 0; ///< FPU stage-cycles that actually toggled
  int gated_stage_cycles = 0;  ///< stage-cycles squashed by clock gating
  int recovery_cycles = 0;     ///< extra cycles spent in ECU recovery
  int latency_cycles = 0;      ///< observed issue-to-commit latency
  int lut_lookups = 0;         ///< LUT read accesses (0 when power-gated)
  int lut_writes = 0;          ///< LUT FIFO writes
  bool spatial_reuse = false;  ///< lane served by the spatial broadcast
  int spatial_compares = 0;    ///< lane-vs-master comparator activations

  // Fault-injection outcomes (all false/0 with injection off).
  bool eds_false_negative = false; ///< real violation, flag suppressed
  bool eds_false_positive = false; ///< spurious flag, wasted recovery
  bool corrupt_reuse = false;      ///< hit served from an SEU-flipped line
  bool sdc = false;                ///< silently corrupted value committed

  float result = 0.0f;         ///< architecturally committed value (Q_pipe)
  float exact_result = 0.0f;   ///< golden datapath value (for fidelity)
  std::array<float, kMaxOperands> operands{};  ///< source operand values
};

/// What one instruction's transaction on a ResilientFpu decided: the
/// Table-2 action plus the facts record() cannot derive from the action,
/// the unit and the instruction.
struct LaneOutcome {
  float result = 0.0f;      ///< architecturally committed value (Q_pipe)
  int recovery_cycles = 0;  ///< extra cycles spent in ECU recovery
  MemoAction action = MemoAction::kNormalExecution;
  bool memo_enabled = false;       ///< module was powered for this op
  bool eds_false_negative = false; ///< real violation, flag suppressed
  bool eds_false_positive = false; ///< spurious flag, wasted recovery
  bool corrupt_reuse = false;      ///< hit served from an SEU-flipped line
  bool sdc = false;                ///< silently corrupted value committed

  /// No error flag reached the module: the op's energy depends only on its
  /// unit, whether it hit, and whether the module was powered.
  [[nodiscard]] bool clean() const noexcept {
    return action == MemoAction::kNormalExecution ||
           action == MemoAction::kReuse;
  }

  /// The full record of `ins` executed on a `unit` FPU with this outcome.
  [[nodiscard]] ExecutionRecord record(FpuType unit,
                                       const FpInstruction& ins) const;
};

/// Aggregate per-FPU execution statistics.
struct FpuStats {
  std::uint64_t instructions = 0;
  std::uint64_t hits = 0;
  std::uint64_t timing_errors = 0;
  std::uint64_t masked_errors = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t recovery_cycles = 0;
  std::uint64_t active_stage_cycles = 0;
  std::uint64_t gated_stage_cycles = 0;
  std::uint64_t lut_updates = 0;
  // Fault-injection accounting (all zero with injection off; see
  // docs/FAULT_INJECTION.md for the SDC definition).
  std::uint64_t seu_flips = 0;            ///< LUT bits upset while live
  std::uint64_t parity_invalidations = 0; ///< corrupt lines parity dropped
  std::uint64_t corrupt_reuses = 0;       ///< hits served from flipped lines
  std::uint64_t eds_false_negatives = 0;  ///< violations the sensors missed
  std::uint64_t eds_false_positives = 0;  ///< spurious flags (wasted replays)
  std::uint64_t sdc_ops = 0;              ///< ops that committed silent corruption

  [[nodiscard]] double hit_rate() const noexcept {
    return instructions == 0
               ? 0.0
               : static_cast<double>(hits) / static_cast<double>(instructions);
  }

  FpuStats& operator+=(const FpuStats& o) noexcept {
    instructions += o.instructions;
    hits += o.hits;
    timing_errors += o.timing_errors;
    masked_errors += o.masked_errors;
    recoveries += o.recoveries;
    recovery_cycles += o.recovery_cycles;
    active_stage_cycles += o.active_stage_cycles;
    gated_stage_cycles += o.gated_stage_cycles;
    lut_updates += o.lut_updates;
    seu_flips += o.seu_flips;
    parity_invalidations += o.parity_invalidations;
    corrupt_reuses += o.corrupt_reuses;
    eds_false_negatives += o.eds_false_negatives;
    eds_false_positives += o.eds_false_positives;
    sdc_ops += o.sdc_ops;
    return *this;
  }
};

/// Configuration of one resilient FPU instance.
struct ResilientFpuConfig {
  int lut_depth = 2;  ///< FIFO entries (paper final design: 2)
  RecoveryPolicy recovery = RecoveryPolicy::kMultipleIssueReplay;
  std::uint64_t eds_seed = 1;  ///< deterministic EDS sampling stream
  /// Fault injection + hardening knobs; default = fault-free hardware. The
  /// injector's RNG stream derives from eds_seed (so per-FPU streams stay
  /// unique through the device's mix_seed fan-out) and is never drawn from
  /// while injection is off.
  inject::FaultInjectionConfig inject;
};

/// One FPU + EDS + ECU + temporal-memoization module.
class ResilientFpu {
 public:
  ResilientFpu(FpuType unit, const ResilientFpuConfig& config);

  [[nodiscard]] FpuType unit() const noexcept { return unit_; }

  /// The module's memory-mapped register file (application-visible).
  [[nodiscard]] MemoRegisterFile& registers() noexcept { return regs_; }
  [[nodiscard]] const MemoRegisterFile& registers() const noexcept {
    return regs_;
  }

  /// Direct LUT access (preloading, inspection, tests).
  [[nodiscard]] MemoLut& lut() noexcept { return lut_; }
  [[nodiscard]] const MemoLut& lut() const noexcept { return lut_; }

  [[nodiscard]] const Ecu& ecu() const noexcept { return ecu_; }
  [[nodiscard]] const FpuStats& stats() const noexcept { return stats_; }

  /// Executes one dynamic instruction that suffers a timing error with
  /// probability `p_error`: LUT lookup, EDS sampling, the Table-2 decision,
  /// LUT update or ECU recovery, statistics and probes. Deterministic for a
  /// fixed seed sequence.
  LaneOutcome step(const FpInstruction& ins, double p_error);

  /// step() under the given timing-error model, returning the full record.
  ExecutionRecord execute(const FpInstruction& ins,
                          const TimingErrorModel& errors) {
    return step(ins, errors.op_error_probability(unit_)).record(unit_, ins);
  }

  /// Clears statistics and the ECU counters but keeps LUT contents and
  /// register programming (a new measurement window).
  void reset_stats();

  /// Power-gates / un-gates the module (clears LUT state when gating, as
  /// the storage loses its contents).
  void set_power_gated(bool gated);
  [[nodiscard]] bool power_gated() const noexcept { return power_gated_; }

  /// Fault injection or the watchdog is configured: ops may raise injected
  /// fault events, or take a degraded path once a replay storm trips.
  [[nodiscard]] bool faults_armed() const noexcept { return faults_armed_; }

  /// Attaches (nullptr detaches) a telemetry sink; `cu`/`core` identify
  /// this FPU's position for event attribution. With no sink attached the
  /// step() hot path pays one null-check per probe site (see
  /// telemetry/probe.hpp for the zero-overhead contract).
  void set_probe(telemetry::ProbeSink* sink, std::uint32_t cu,
                 std::uint16_t core) noexcept {
    probe_ = sink;
    probe_cu_ = cu;
    probe_core_ = core;
    ecu_.set_probe(sink, cu, core);
  }

  /// Points step()'s own probes at `sink`, leaving the ECU's alone. A
  /// compute unit mutes them (nullptr) for the lanes of a batched
  /// instruction, which it reports at once (telemetry/probe.hpp).
  void set_step_probe(telemetry::ProbeSink* sink) noexcept { probe_ = sink; }

 private:
  /// Emission helper: stamps this FPU's identity onto a probe event.
  void probe(telemetry::ProbeEvent::Kind kind, std::uint64_t value = 0,
             std::uint8_t aux = 0) const {
    TMEMO_TELEM(probe_, telemetry::ProbeEvent{
                            kind, static_cast<std::uint8_t>(unit_), aux,
                            probe_core_, probe_cu_, value});
  }

  // Hot state first: everything a fault-free op reads or writes, together.
  MemoLut lut_;
  MemoRegisterFile regs_;
  FpuType unit_;
  bool power_gated_ = false;
  bool faults_armed_;  ///< injection or watchdog on: read the cold state
  int depth_;
  telemetry::ProbeSink* probe_ = nullptr;
  FpuStats stats_;
  EdsSensorBank eds_;
  // Cold state: touched on errors, faults and telemetry attribution only.
  Ecu ecu_;
  inject::LutFaultInjector injector_;
  std::uint32_t probe_cu_ = 0;
  std::uint16_t probe_core_ = 0;
};

} // namespace tmemo
