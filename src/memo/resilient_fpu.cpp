#include "memo/resilient_fpu.hpp"

namespace tmemo {

ResilientFpu::ResilientFpu(FpuType unit, const ResilientFpuConfig& config)
    : lut_(config.lut_depth),
      unit_(unit),
      faults_armed_(config.inject.any_faults() ||
                    config.inject.watchdog.enabled()),
      depth_(fpu_latency_cycles(unit)),
      eds_(unit, config.eds_seed, config.inject.eds),
      ecu_(config.recovery, config.inject.watchdog),
      injector_(config.inject.lut,
                inject::derive_fault_seed(config.eds_seed,
                                          static_cast<std::uint64_t>(unit))) {
  lut_.set_parity_protected(config.inject.lut.parity);
}

LaneOutcome ResilientFpu::step(const FpInstruction& ins, double p_error) {
  LaneOutcome out;
  out.memo_enabled = !power_gated_ && regs_.enabled();

  // 0. Fault environment for this op. The SEU process advances by this
  //    op's pipeline occupancy; a tripped watchdog applies its degradation
  //    before the lookup/sampling below. Everything in this block is gated
  //    behind injection-on checks, so the fault-free path is unchanged.
  const bool storm = faults_armed_ && ecu_.storm_tripped();
  if (storm &&
      ecu_.watchdog().action == inject::WatchdogAction::kDisableMemoization) {
    out.memo_enabled = false;
  }
  if (faults_armed_ && injector_.config().enabled() && !power_gated_) {
    const int flips = injector_.advance(lut_, depth_);
    if (flips > 0) {
      stats_.seu_flips += static_cast<std::uint64_t>(flips);
      probe(telemetry::ProbeEvent::Kind::kLutSeuFlip,
            static_cast<std::uint64_t>(flips));
    }
  }

  // 1. LUT lookup, performed in parallel with the first FPU stage.
  MemoLut::LookupResult memorized;
  if (out.memo_enabled) {
    const std::uint64_t parity_before = lut_.stats().parity_invalidations;
    memorized = lut_.lookup_checked(ins, regs_.constraint());
    const std::uint64_t dropped =
        lut_.stats().parity_invalidations - parity_before;
    if (dropped > 0) {
      stats_.parity_invalidations += dropped;
      probe(telemetry::ProbeEvent::Kind::kLutParityDrop, dropped);
    }
    probe(memorized.hit ? telemetry::ProbeEvent::Kind::kLutHit
                        : telemetry::ProbeEvent::Kind::kLutMiss);
  }

  // 2. EDS sensors sample the datapath. On a hit the remaining stages are
  //    clock-gated, so only the first stage (which ran in parallel with the
  //    lookup) can raise a violation; the per-op draw covers whichever
  //    stages actually toggled. The flag is suppressed before reaching the
  //    ECU in the {1,1} state. A raised guardband (watchdog degradation)
  //    makes violations impossible, so the sensors are not sampled at all.
  EdsObservation eds;
  const bool guardband_raised =
      storm &&
      ecu_.watchdog().action == inject::WatchdogAction::kRaiseGuardband;
  if (!guardband_raised) eds = eds_.observe(p_error);
  if (eds.false_negative) {
    out.eds_false_negative = true;
    ++stats_.eds_false_negatives;
    probe(telemetry::ProbeEvent::Kind::kEdsFalseNegative);
  }
  if (eds.false_positive) {
    out.eds_false_positive = true;
    ++stats_.eds_false_positives;
    probe(telemetry::ProbeEvent::Kind::kEdsFalsePositive);
  }
  if (eds.error) probe(telemetry::ProbeEvent::Kind::kEdsError);

  // 3. Table-2 decision, driven by the *observed* flag: a false negative
  //    behaves like a clean pass, a false positive like a real violation.
  out.action = memo_action(memorized.hit, eds.error);

  switch (out.action) {
    case MemoAction::kNormalExecution: {
      out.result = evaluate_fp_op(ins);
      if (eds.false_negative) {
        // The violation was real but the flag never reached the ECU: the
        // errant datapath value commits silently. One fraction bit of the
        // exact result latches wrong, and — worse — the corrupted value is
        // what W_en memorizes, so later hits replay the corruption.
        out.result =
            inject::flip_random_fraction_bit(out.result, injector_.rng());
        out.sdc = true;
      }
      if (out.memo_enabled) {
        lut_.update(ins, out.result);
        ++stats_.lut_updates;
        probe(telemetry::ProbeEvent::Kind::kLutWrite);
      }
      stats_.active_stage_cycles += static_cast<std::uint64_t>(depth_);
      break;
    }
    case MemoAction::kTriggerRecovery: {
      // The errant instruction is prevented from committing; the ECU
      // flushes and replays it. The replayed execution is error-free [9],
      // so the committed value is the exact result. The LUT is NOT updated:
      // W_en requires an error-free first-pass execution. A false-positive
      // flag pays the same replay cost for nothing — that waste is exactly
      // what EcuStats/FpuStats now make visible.
      out.result = evaluate_fp_op(ins);
      out.recovery_cycles = ecu_.recover(unit_, /*flushed_in_flight_ops=*/0);
      ++stats_.recoveries;
      stats_.recovery_cycles += static_cast<std::uint64_t>(out.recovery_cycles);
      stats_.active_stage_cycles += static_cast<std::uint64_t>(depth_);
      break;
    }
    case MemoAction::kReuse:
    case MemoAction::kReuseMaskError: {
      // Q_L drives the output mux; stages 2..depth are squashed by the
      // forwarded clock-gating signal. Stage 1 already toggled in parallel
      // with the lookup. The memorized result propagates to the pipeline
      // end, so observed latency equals the pipeline depth.
      out.result = memorized.value;
      if (memorized.corrupted) {
        // The matched line absorbed SEU flips after it was written: the
        // operand comparison and/or the forwarded Q_L used upset bits, so
        // the committed value is untrustworthy — silent data corruption
        // (parity protection would have invalidated odd-flip lines before
        // the match; see MemoLut::lookup_checked).
        out.corrupt_reuse = true;
        out.sdc = true;
        ++stats_.corrupt_reuses;
      }
      if (out.action == MemoAction::kReuseMaskError) {
        ++stats_.masked_errors;
        ecu_.note_masked_error(unit_);
      }
      ++stats_.hits;
      stats_.active_stage_cycles += 1;
      stats_.gated_stage_cycles += static_cast<std::uint64_t>(depth_ - 1);
      break;
    }
  }

  if (out.sdc) {
    ++stats_.sdc_ops;
    probe(telemetry::ProbeEvent::Kind::kSdcCommit);
  }

  // 4. Statistics.
  ++stats_.instructions;
  stats_.timing_errors += eds.error ? 1 : 0;
  regs_.latch_status_hits(stats_.hits);
  probe(telemetry::ProbeEvent::Kind::kOpRetired,
        static_cast<std::uint64_t>(depth_ + out.recovery_cycles),
        static_cast<std::uint8_t>(out.action));
  return out;
}

ExecutionRecord LaneOutcome::record(FpuType unit,
                                    const FpInstruction& ins) const {
  // One aggregate, so every field is written once (no zeroing pass first).
  const bool hit = memo_clock_gates(action);
  const bool updated = memo_enabled && memo_updates_lut(action);
  return {.unit = unit,
          .opcode = ins.opcode,
          .work_item = ins.work_item,
          .static_id = ins.static_id,
          .action = action,
          .lut_hit = hit,
          .timing_error = !clean(),
          .error_masked = memo_masks_error(action),
          .recovered = memo_triggers_recovery(action),
          .lut_updated = updated,
          .memo_enabled = memo_enabled,
          .active_stage_cycles = hit ? 1 : fpu_latency_cycles(unit),
          .gated_stage_cycles = hit ? fpu_latency_cycles(unit) - 1 : 0,
          .recovery_cycles = recovery_cycles,
          .latency_cycles = fpu_latency_cycles(unit) + recovery_cycles,
          .lut_lookups = memo_enabled ? 1 : 0,
          .lut_writes = updated ? 1 : 0,
          .eds_false_negative = eds_false_negative,
          .eds_false_positive = eds_false_positive,
          .corrupt_reuse = corrupt_reuse,
          .sdc = sdc,
          .result = result,
          .exact_result = hit || sdc ? evaluate_fp_op(ins) : result,
          .operands = ins.operands};
}

void ResilientFpu::reset_stats() {
  stats_ = {};
  lut_.reset_stats();
  ecu_.reset_stats();
}

void ResilientFpu::set_power_gated(bool gated) {
  if (gated && !power_gated_) lut_.clear();
  power_gated_ = gated;
}

} // namespace tmemo
