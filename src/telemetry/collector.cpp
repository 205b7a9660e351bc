#include "telemetry/collector.hpp"

#include <array>
#include <bit>
#include <string>

#include "fpu/opcode.hpp"
#include "memo/module.hpp"

namespace tmemo::telemetry {

namespace {

std::string unit_metric(std::string_view unit_name, const char* suffix) {
  std::string s = "fpu.";
  s += unit_name;
  s += suffix;
  return s;
}

std::string_view unit_name(std::uint8_t unit) {
  return fpu_type_name(static_cast<FpuType>(unit));
}

// Specs built once, so a cached histogram costs no spec construction per
// event. 65 lane buckets so a full 64-lane wavefront (the common case)
// gets its own bucket [64,65) instead of landing in overflow.
const HistogramSpec kLanesSpec = HistogramSpec::linear(0, 65, 65);
const HistogramSpec kLog2Spec = HistogramSpec::log2();

} // namespace

void record_supervision_event(
    Timeline& timeline, std::string name, std::uint32_t worker,
    std::uint64_t seq,
    std::vector<std::pair<std::string, std::uint64_t>> args) {
  TimelineEvent ev;
  ev.phase = TimelineEvent::Phase::kInstant;
  ev.name = std::move(name);
  ev.category = "campaign";
  ev.pid = worker;
  ev.tid = 0;
  ev.ts = seq;
  ev.args = std::move(args);
  timeline.instant(std::move(ev));
}

TelemetryCollector::TelemetryCollector(CollectorConfig config) {
  if (config.timeline) {
    timeline_ = std::make_shared<Timeline>(config.timeline_max_events);
  }
}

void TelemetryCollector::on_event(const ProbeEvent& e) {
  switch (e.kind) {
    case ProbeEvent::Kind::kWavefrontIssue: {
      counter(wavefront_issues_, "sim.wavefront_issues").add();
      histogram(active_lanes_, "sim.wavefront_active_lanes", kLanesSpec)
          .record(e.value);
      if (timeline_) {
        PendingOp& op = pending(e.cu);
        flush_op(e.cu, op);
        op.active = true;
        op.start_tick = tick_;
        op.unit = e.unit;
        op.lanes = e.value;
      }
      break;
    }
    case ProbeEvent::Kind::kLutHit:
    case ProbeEvent::Kind::kLutMiss: {
      const bool hit = e.kind == ProbeEvent::Kind::kLutHit;
      if (hit) {
        counter(lut_hits_, "memo.lut.hits").add();
        unit_counter(e.unit, kUnitHits).add();
      } else {
        counter(lut_misses_, "memo.lut.misses").add();
        unit_counter(e.unit, kUnitMisses).add();
      }
      CoreState& core = core_state(e);
      ++core.lut_lookups;
      core.lut_hits += hit ? 1 : 0;
      if (timeline_) {
        PendingOp& op = pending(e.cu);
        ++(hit ? op.hits : op.misses);
        ++(hit ? op.cum_hits : op.cum_misses);
      }
      break;
    }
    case ProbeEvent::Kind::kLutWrite:
      counter(lut_writes_, "memo.lut.writes").add();
      break;
    case ProbeEvent::Kind::kEdsError: {
      counter(eds_errors_, "timing.eds_errors").add();
      if (timeline_) {
        ++pending(e.cu).errors;
        mark("eds_error", "timing", e, nullptr);
      }
      break;
    }
    case ProbeEvent::Kind::kErrorMasked:
      counter(masked_errors_, "timing.masked_errors").add();
      break;
    case ProbeEvent::Kind::kEcuReplay: {
      counter(ecu_replays_, "timing.ecu.replays").add();
      counter(ecu_replay_cycles_, "timing.ecu.replay_cycles").add(e.value);
      core_state(e).replay_in_op = true;
      if (timeline_) {
        ++pending(e.cu).replays;
        mark("ecu_replay", "timing", e, "cycles");
      }
      break;
    }
    case ProbeEvent::Kind::kSpatialReuse:
      counter(spatial_reuses_, "memo.spatial.reuses").add();
      counter(lanes_executed_, "sim.lanes_executed").add();
      ++tick_;
      break;
    case ProbeEvent::Kind::kOpRetired: {
      counter(lanes_executed_, "sim.lanes_executed").add();
      unit_counter(e.unit, kUnitOps).add();
      action_counter(e.aux).add();
      histogram(op_latency_, "fpu.op_latency_cycles", kLog2Spec)
          .record(e.value);
      retire_on(core_state(e));
      ++tick_;
      break;
    }
    case ProbeEvent::Kind::kLutSeuFlip:
      counter(seu_flips_, "inject.lut.seu_flips").add(e.value);
      break;
    case ProbeEvent::Kind::kLutParityDrop:
      counter(parity_invalidations_, "inject.lut.parity_invalidations")
          .add(e.value);
      break;
    case ProbeEvent::Kind::kEdsFalseNegative:
      counter(eds_false_negatives_, "inject.eds.false_negatives").add();
      break;
    case ProbeEvent::Kind::kEdsFalsePositive:
      counter(eds_false_positives_, "inject.eds.false_positives").add();
      break;
    case ProbeEvent::Kind::kWatchdogTrip: {
      counter(watchdog_trips_, "inject.watchdog.trips").add();
      if (timeline_) mark("watchdog_trip", "inject", e, "recovery_cycles");
      break;
    }
    case ProbeEvent::Kind::kSdcCommit:
      counter(sdc_commits_, "inject.sdc.committed_ops").add();
      break;
  }
}

void TelemetryCollector::on_wavefront(const WavefrontEvents& w) {
  const auto count = [](std::uint64_t mask) {
    return static_cast<std::uint64_t>(std::popcount(mask));
  };
  const std::uint64_t lanes = count(w.active);
  const std::uint64_t hits = count(w.hit);
  const std::uint64_t misses = count(w.lookup & ~w.hit);
  const std::uint64_t writes = count(w.write);
  // Core c runs lanes c, c + cores, c + 2 * cores, ...
  std::uint64_t stride = 0;
  std::uint64_t cores_used = 0;
  for (unsigned lane = 0; lane < 64; lane += w.cores) {
    stride |= 1ull << lane;
    cores_used |= w.active >> lane;
  }
  cores_used &= w.cores >= 64 ? ~0ull : (1ull << w.cores) - 1;

  // Fold only once every instrument and per-core slot the fold touches
  // exists. Until then the per-lane events create them, so the collector
  // allocates in exactly the order it does for an unbatched stream; peak
  // RSS depends on that order through the heap's layout.
  const auto has = [](std::uint64_t n, const void* slot) {
    return n == 0 || slot != nullptr;
  };
  const std::array<Counter*, 3>* unit =
      w.unit < kNumFpuTypes ? &unit_counters_[w.unit] : nullptr;
  if (unit == nullptr || !has(lanes, lanes_executed_) ||
      !has(lanes, op_latency_) || !has(lanes, (*unit)[kUnitOps]) ||
      !has(hits, lut_hits_) || !has(hits, (*unit)[kUnitHits]) ||
      !has(hits, action_counters_[WavefrontEvents::kReuse]) ||
      !has(misses, lut_misses_) || !has(misses, (*unit)[kUnitMisses]) ||
      !has(writes, lut_writes_) ||
      !has(lanes - hits, action_counters_[WavefrontEvents::kNormalExecution]) ||
      w.cu >= cus_.size() ||
      cus_[w.cu].cores.size() <
          static_cast<std::size_t>(std::bit_width(cores_used))) {
    ProbeSink::on_wavefront(w);
    return;
  }

  on_event(ProbeEvent{ProbeEvent::Kind::kWavefrontIssue, w.unit, 0, 0, w.cu,
                      lanes});
  if (hits > 0) {
    lut_hits_->add(hits);
    (*unit)[kUnitHits]->add(hits);
    action_counters_[WavefrontEvents::kReuse]->add(hits);
  }
  if (misses > 0) {
    lut_misses_->add(misses);
    (*unit)[kUnitMisses]->add(misses);
  }
  if (writes > 0) lut_writes_->add(writes);
  if (hits < lanes) {
    action_counters_[WavefrontEvents::kNormalExecution]->add(lanes - hits);
  }
  if (lanes > 0) {
    lanes_executed_->add(lanes);
    (*unit)[kUnitOps]->add(lanes);
    op_latency_->record(w.depth, lanes);
  }

  std::vector<CoreState>& cores = cus_[w.cu].cores;
  for (std::uint64_t left = cores_used; left != 0; left &= left - 1) {
    const int c = std::countr_zero(left);
    const std::uint64_t on_core = stride << c;
    CoreState& core = cores[static_cast<std::size_t>(c)];
    core.lut_lookups += count(w.lookup & on_core);
    core.lut_hits += count(w.hit & on_core);
    // A second retire on the core ends whatever burst the first one left
    // open; later ones find nothing to do.
    retire_on(core);
    if (count(w.active & on_core) > 1) retire_on(core);
  }

  if (timeline_) {
    PendingOp& op = pending(w.cu);
    op.hits += hits;
    op.misses += misses;
    op.cum_hits += hits;
    op.cum_misses += misses;
  }
  tick_ += lanes;
}

void TelemetryCollector::retire_on(CoreState& core) {
  if (core.replay_in_op) {
    core.replay_in_op = false;
    ++core.replay_burst;
  } else if (core.replay_burst > 0) {
    record_burst(core.replay_burst);
    core.replay_burst = 0;
  }
}

// Out-of-range units and actions are not cached: they go by name every
// time, as `fpu.?.<suffix>` and `memo.action.unknown`.
Counter& TelemetryCollector::unit_counter(std::uint8_t unit,
                                          UnitColumn column) {
  static constexpr std::array<const char*, 3> kSuffix = {".hits", ".misses",
                                                         ".ops"};
  const char* suffix = kSuffix[column];
  if (unit >= kNumFpuTypes) {
    return registry_.counter(unit_metric(unit_name(unit), suffix));
  }
  Counter*& slot = unit_counters_[unit][column];
  if (slot == nullptr) {
    slot = &registry_.counter(unit_metric(unit_name(unit), suffix));
  }
  return *slot;
}

Counter& TelemetryCollector::action_counter(std::uint8_t aux) {
  const auto action = static_cast<MemoAction>(aux);
  if (aux >= kNumActions) {
    return registry_.counter(memo_action_metric_name(action));
  }
  Counter*& slot = action_counters_[aux];
  if (slot == nullptr) {
    slot = &registry_.counter(memo_action_metric_name(action));
  }
  return *slot;
}

void TelemetryCollector::record_burst(std::uint64_t length) {
  histogram(replay_burst_, "memo.replay_burst_len", kLog2Spec).record(length);
}

void TelemetryCollector::mark(std::string_view name,
                              std::string_view category, const ProbeEvent& e,
                              const char* arg) {
  if (timeline_->full()) {
    timeline_->drop();
    return;
  }
  TimelineEvent ev;
  ev.phase = TimelineEvent::Phase::kInstant;
  ev.name = name;
  ev.category = category;
  ev.pid = e.cu;
  ev.tid = e.core;
  ev.ts = tick_;
  if (arg != nullptr) ev.args.emplace_back(arg, e.value);
  timeline_->instant(std::move(ev));
}

void TelemetryCollector::flush_op(std::uint32_t cu, PendingOp& op) {
  if (!op.active || !timeline_) return;
  if (timeline_->full()) {
    timeline_->drop(2);
  } else {
    TimelineEvent ev;
    ev.phase = TimelineEvent::Phase::kComplete;
    ev.name = unit_name(op.unit);
    ev.category = "issue";
    ev.pid = cu;
    ev.tid = 0;
    ev.ts = op.start_tick;
    ev.dur = tick_ > op.start_tick ? tick_ - op.start_tick : 1;
    ev.args.reserve(5);
    ev.args.emplace_back("lanes", op.lanes);
    ev.args.emplace_back("lut_hits", op.hits);
    ev.args.emplace_back("lut_misses", op.misses);
    ev.args.emplace_back("eds_errors", op.errors);
    ev.args.emplace_back("ecu_replays", op.replays);
    timeline_->complete(std::move(ev));

    if (timeline_->full()) {
      timeline_->drop();
    } else {
      TimelineEvent ctr;
      ctr.phase = TimelineEvent::Phase::kCounter;
      ctr.name = "lut";
      ctr.category = "memo";
      ctr.pid = cu;
      ctr.tid = 0;
      ctr.ts = tick_;
      ctr.args.reserve(2);
      ctr.args.emplace_back("hits", op.cum_hits);
      ctr.args.emplace_back("misses", op.cum_misses);
      timeline_->counter(std::move(ctr));
    }
  }

  op.active = false;
  op.lanes = op.hits = op.misses = op.errors = op.replays = 0;
}

MetricsSnapshot TelemetryCollector::finish() {
  if (!finished_) {
    finished_ = true;
    // Flush per-core derived state in (cu, core) order (deterministic).
    Histogram* spread = nullptr;
    for (CuState& cu : cus_) {
      for (CoreState& core : cu.cores) {
        if (core.replay_in_op) {
          core.replay_in_op = false;
          ++core.replay_burst;
        }
        if (core.replay_burst > 0) {
          record_burst(core.replay_burst);
          core.replay_burst = 0;
        }
        if (core.lut_lookups > 0) {
          histogram(spread, "core.hit_rate_permille",
                    HistogramSpec::linear(0, 1000, 50))
              .record(core.lut_hits * 1000 / core.lut_lookups);
        }
      }
    }
    if (timeline_) {
      for (std::uint32_t cu = 0; cu < cus_.size(); ++cu) {
        if (!cus_[cu].on_timeline) continue;
        flush_op(cu, cus_[cu].op);
        timeline_->set_process_name(cu, "compute_unit " + std::to_string(cu));
      }
      registry_.gauge("sim.timeline_dropped_events")
          .set(timeline_->dropped());
    }
  }
  return registry_.snapshot();
}

} // namespace tmemo::telemetry
