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

ExecutionRecord ResilientFpu::execute(const FpInstruction& ins,
                                      const TimingErrorModel& errors) {
  ExecutionRecord rec;
  rec.unit = unit_;
  rec.opcode = ins.opcode;
  rec.work_item = ins.work_item;
  rec.static_id = ins.static_id;
  rec.operands = ins.operands;
  rec.exact_result = evaluate_fp_op(ins);
  rec.memo_enabled = !power_gated_ && regs_.enabled();

  // 0. Fault environment for this op. The SEU process advances by this
  //    op's pipeline occupancy; a tripped watchdog applies its degradation
  //    before the lookup/sampling below. Everything in this block is gated
  //    behind injection-on checks, so the fault-free path is unchanged.
  const bool storm = faults_armed_ && ecu_.storm_tripped();
  if (storm &&
      ecu_.watchdog().action == inject::WatchdogAction::kDisableMemoization) {
    rec.memo_enabled = false;
  }
  if (faults_armed_ && injector_.config().enabled() && !power_gated_) {
    const int flips = injector_.advance(lut_, depth_);
    if (flips > 0) {
      rec.lut_seu_flips = flips;
      stats_.seu_flips += static_cast<std::uint64_t>(flips);
      probe(telemetry::ProbeEvent::Kind::kLutSeuFlip,
            static_cast<std::uint64_t>(flips));
    }
  }

  // 1. LUT lookup, performed in parallel with the first FPU stage.
  MemoLut::LookupResult memorized;
  if (rec.memo_enabled) {
    const std::uint64_t parity_before = lut_.stats().parity_invalidations;
    memorized = lut_.lookup_checked(ins, regs_.constraint());
    rec.lut_lookups = 1;
    const std::uint64_t dropped =
        lut_.stats().parity_invalidations - parity_before;
    if (dropped > 0) {
      stats_.parity_invalidations += dropped;
      probe(telemetry::ProbeEvent::Kind::kLutParityDrop, dropped);
    }
  }
  rec.lut_hit = memorized.hit;
  if (rec.lut_lookups > 0) {
    probe(rec.lut_hit ? telemetry::ProbeEvent::Kind::kLutHit
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
  if (!guardband_raised) eds = eds_.observe(errors);
  rec.timing_error = eds.error;
  if (eds.false_negative) {
    rec.eds_false_negative = true;
    ++stats_.eds_false_negatives;
    probe(telemetry::ProbeEvent::Kind::kEdsFalseNegative);
  }
  if (eds.false_positive) {
    rec.eds_false_positive = true;
    ++stats_.eds_false_positives;
    probe(telemetry::ProbeEvent::Kind::kEdsFalsePositive);
  }
  if (rec.timing_error) probe(telemetry::ProbeEvent::Kind::kEdsError);

  // 3. Table-2 decision, driven by the *observed* flag: a false negative
  //    behaves like a clean pass, a false positive like a real violation.
  rec.action = memo_action(rec.lut_hit, rec.timing_error);

  switch (rec.action) {
    case MemoAction::kNormalExecution: {
      rec.result = rec.exact_result;
      if (eds.false_negative) {
        // The violation was real but the flag never reached the ECU: the
        // errant datapath value commits silently. One fraction bit of the
        // exact result latches wrong, and — worse — the corrupted value is
        // what W_en memorizes, so later hits replay the corruption.
        rec.result = inject::flip_random_fraction_bit(rec.exact_result,
                                                      injector_.rng());
        rec.sdc = true;
      }
      rec.active_stage_cycles = depth_;
      rec.latency_cycles = depth_;
      if (rec.memo_enabled) {
        lut_.update(ins, rec.result);
        rec.lut_updated = true;
        rec.lut_writes = 1;
        probe(telemetry::ProbeEvent::Kind::kLutWrite);
      }
      break;
    }
    case MemoAction::kTriggerRecovery: {
      // The errant instruction is prevented from committing; the ECU
      // flushes and replays it. The replayed execution is error-free [9],
      // so the committed value is the exact result. The LUT is NOT updated:
      // W_en requires an error-free first-pass execution. A false-positive
      // flag pays the same replay cost for nothing — that waste is exactly
      // what EcuStats/FpuStats now make visible.
      rec.result = rec.exact_result;
      rec.active_stage_cycles = depth_; // errant pass toggled all stages
      rec.recovery_cycles = ecu_.recover(unit_, /*flushed_in_flight_ops=*/0);
      rec.latency_cycles = depth_ + rec.recovery_cycles;
      rec.recovered = true;
      break;
    }
    case MemoAction::kReuse:
    case MemoAction::kReuseMaskError: {
      // Q_L drives the output mux; stages 2..depth are squashed by the
      // forwarded clock-gating signal. Stage 1 already toggled in parallel
      // with the lookup. The memorized result propagates to the pipeline
      // end, so observed latency equals the pipeline depth.
      rec.result = memorized.value;
      if (memorized.corrupted) {
        // The matched line absorbed SEU flips after it was written: the
        // operand comparison and/or the forwarded Q_L used upset bits, so
        // the committed value is untrustworthy — silent data corruption
        // (parity protection would have invalidated odd-flip lines before
        // the match; see MemoLut::lookup_checked).
        rec.corrupt_reuse = true;
        rec.sdc = true;
        ++stats_.corrupt_reuses;
      }
      rec.active_stage_cycles = 1;
      rec.gated_stage_cycles = depth_ - 1;
      rec.latency_cycles = depth_;
      if (rec.action == MemoAction::kReuseMaskError) {
        rec.error_masked = true;
        ecu_.note_masked_error(unit_);
      }
      break;
    }
  }

  if (rec.sdc) {
    ++stats_.sdc_ops;
    probe(telemetry::ProbeEvent::Kind::kSdcCommit);
  }

  // 4. Statistics.
  ++stats_.instructions;
  stats_.hits += rec.lut_hit ? 1 : 0;
  stats_.timing_errors += rec.timing_error ? 1 : 0;
  stats_.masked_errors += rec.error_masked ? 1 : 0;
  stats_.recoveries += rec.recovered ? 1 : 0;
  stats_.recovery_cycles += static_cast<std::uint64_t>(rec.recovery_cycles);
  stats_.active_stage_cycles +=
      static_cast<std::uint64_t>(rec.active_stage_cycles);
  stats_.gated_stage_cycles +=
      static_cast<std::uint64_t>(rec.gated_stage_cycles);
  stats_.lut_updates += rec.lut_updated ? 1 : 0;
  regs_.latch_status_hits(stats_.hits);
  probe(telemetry::ProbeEvent::Kind::kOpRetired,
        static_cast<std::uint64_t>(rec.latency_cycles),
        static_cast<std::uint8_t>(rec.action));
  return rec;
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
