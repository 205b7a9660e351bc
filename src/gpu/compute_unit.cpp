#include "gpu/compute_unit.hpp"

#include <bit>

#include "common/require.hpp"
#include "common/rng.hpp"

namespace tmemo {

// A batched lane retires with these aux bytes (telemetry/probe.hpp).
static_assert(telemetry::WavefrontEvents::kNormalExecution ==
              static_cast<std::uint8_t>(MemoAction::kNormalExecution));
static_assert(telemetry::WavefrontEvents::kReuse ==
              static_cast<std::uint8_t>(MemoAction::kReuse));

ComputeUnit::ComputeUnit(const DeviceConfig& config, std::uint64_t seed)
    : wavefront_size_(config.wavefront_size),
      subwavefronts_(config.subwavefronts()) {
  cores_.reserve(static_cast<std::size_t>(config.stream_cores_per_cu));
  for (int sc = 0; sc < config.stream_cores_per_cu; ++sc) {
    cores_.emplace_back(config.fpu,
                        mix_seed(seed, static_cast<std::uint64_t>(sc)));
  }
}

void ComputeUnit::execute_wavefront_op(
    FpOpcode op, StaticInstrId static_id, const float* a, const float* b,
    const float* c, std::uint64_t active_mask, WorkItemId base_work_item,
    const TimingErrorModel& errors, ExecutionSink* sink, float* results) {
  // Batched (telemetry/probe.hpp): no lane can draw a timing error, take an
  // injected fault or reuse a spatial broadcast, so each lane's only events
  // are its lookup, LUT write and retire. Every FPU of the device shares one
  // fault configuration.
  if (TMEMO_TELEM_ATTACHED(probe_) && !spatial_ &&
      !cores_.front().fpu_at(0).faults_armed() &&
      errors.op_error_probability(opcode_unit(op)) <= 0.0) {
    issue<true>(op, static_id, a, b, c, active_mask, base_work_item, errors,
                sink, results);
    return;
  }
  issue<false>(op, static_id, a, b, c, active_mask, base_work_item, errors,
               sink, results);
}

template <bool kBatched>
void ComputeUnit::issue(FpOpcode op, StaticInstrId static_id, const float* a,
                        const float* b, const float* c,
                        std::uint64_t active_mask, WorkItemId base_work_item,
                        const TimingErrorModel& errors, ExecutionSink* sink,
                        float* results) {
  TM_REQUIRE(results != nullptr, "results array is required");
  const int arity = opcode_arity(op);
  TM_REQUIRE(a != nullptr, "operand a is required");
  TM_REQUIRE(arity < 2 || b != nullptr, "operand b required for this opcode");
  TM_REQUIRE(arity < 3 || c != nullptr, "operand c required for this opcode");

  const FpuType unit = opcode_unit(op);
  const std::uint64_t lane_mask =
      wavefront_size_ >= 64 ? ~0ull : (1ull << wavefront_size_) - 1;
  if constexpr (!kBatched) {
    TMEMO_TELEM(probe_,
                telemetry::ProbeEvent{
                    telemetry::ProbeEvent::Kind::kWavefrontIssue,
                    static_cast<std::uint8_t>(unit), 0, 0, probe_cu_,
                    static_cast<std::uint64_t>(
                        std::popcount(active_mask & lane_mask))});
  }
  // A batched instruction mutes step()'s probes on the FPUs it runs on,
  // collects its lanes' lookup and hit bits instead, and reports them in one
  // call after the last lane.
  telemetry::WavefrontEvents summary;

  // Fixed for the whole vector instruction: its error probability, depth
  // and FPU on every stream core. With no observer attached the sink is the
  // device's accumulator, which charges clean lanes from its table; every
  // other lane builds a record for the sink.
  const double p_error = errors.op_error_probability(unit);
  const std::size_t fpu = cores_.front().fpu_index(unit, static_id);
  auto* const acc = dynamic_cast<EnergyAccumulator*>(sink);
  const int depth = fpu_latency_cycles(unit);

  // Spatial memoization (reference [20]): the first active lane is the
  // master; subsequent lanes whose operands match it under the spatial
  // constraint reuse its broadcast result without touching their FPUs.
  SpatialMaster master;
  SpatialStats& sstats = spatial_stats_[static_cast<std::size_t>(unit)];

  if constexpr (kBatched) {
    for (StreamCore& core : cores_) core.fpu_at(fpu).set_step_probe(nullptr);
  }

  const int lanes_per_sub = static_cast<int>(cores_.size());
  for (int sub = 0; sub < subwavefronts_; ++sub) {
    for (int sc = 0; sc < lanes_per_sub; ++sc) {
      const int lane = sub * lanes_per_sub + sc;
      if (lane >= wavefront_size_) break;
      if ((active_mask & (1ull << lane)) == 0) continue;

      const FpInstruction ins{
          op,
          {a[lane], arity >= 2 ? b[lane] : 0.0f, arity >= 3 ? c[lane] : 0.0f},
          base_work_item + static_cast<WorkItemId>(lane),
          static_id};

      int spatial_compares = 0;  // 1: compared against the master
      if (spatial_ && master.armed()) {
        ++sstats.comparisons;
        spatial_compares = 1;
        if (master.matches(ins, spatial_constraint_)) {
          ++sstats.reuses;
          // The lane's FPU is fully clock-gated; the master's committed
          // (exact) value arrives over the broadcast network. A timing
          // error that WOULD have occurred on this lane is drawn anyway so
          // the paired-baseline energy comparison stays exact; the spatial
          // reuse masks it by construction.
          ExecutionRecord rec;
          rec.unit = unit;
          rec.opcode = op;
          rec.work_item = ins.work_item;
          rec.static_id = static_id;
          rec.action = MemoAction::kReuse;
          rec.spatial_reuse = true;
          rec.spatial_compares = 1;
          rec.timing_error = spatial_rng_.bernoulli(p_error);
          rec.error_masked = rec.timing_error;
          rec.gated_stage_cycles = depth;
          rec.latency_cycles = depth;
          rec.result = master.result();
          rec.exact_result = evaluate_fp_op(ins);
          rec.operands = ins.operands;
          results[lane] = rec.result;
          TMEMO_TELEM(probe_,
                      telemetry::ProbeEvent{
                          telemetry::ProbeEvent::Kind::kSpatialReuse,
                          static_cast<std::uint8_t>(unit), 0,
                          static_cast<std::uint16_t>(sc), probe_cu_,
                          static_cast<std::uint64_t>(rec.latency_cycles)});
          if (sink != nullptr) sink->consume(rec);
          continue;
        }
      }

      const LaneOutcome out =
          cores_[static_cast<std::size_t>(sc)].fpu_at(fpu).step(ins, p_error);
      if constexpr (kBatched) {
        const std::uint64_t bit = 1ull << lane;
        if (out.memo_enabled) summary.lookup |= bit;
        if (out.action == MemoAction::kReuse) summary.hit |= bit;
      }
      // Committed values are exact on the non-reuse path only when the
      // temporal LUT did not approximate; arm the master with whatever was
      // committed — reusing lanes must mirror the architecture.
      if (spatial_ && !master.armed()) master.arm(ins, out.result);
      results[lane] = out.result;
      if (acc != nullptr && spatial_compares == 0 && out.clean()) {
        acc->charge_clean(unit, out);
      } else if (sink != nullptr) {
        ExecutionRecord rec = out.record(unit, ins);
        rec.spatial_compares = spatial_compares;
        sink->consume(rec);
      }
    }
  }

  if constexpr (kBatched) {
    for (StreamCore& core : cores_) core.fpu_at(fpu).set_step_probe(probe_);
    summary.cu = probe_cu_;
    summary.unit = static_cast<std::uint8_t>(unit);
    summary.depth = static_cast<std::uint8_t>(depth);
    summary.cores = static_cast<std::uint16_t>(lanes_per_sub);
    summary.active = active_mask & lane_mask;
    // A powered module's error-free miss always writes the LUT.
    summary.write = summary.lookup & ~summary.hit;
    probe_->on_wavefront(summary);
  }
}

StreamCore& ComputeUnit::stream_core(int i) {
  TM_REQUIRE(i >= 0 && i < stream_core_count(), "stream-core index range");
  return cores_[static_cast<std::size_t>(i)];
}

void ComputeUnit::set_probe(telemetry::ProbeSink* sink, std::uint32_t cu) {
  probe_ = sink;
  probe_cu_ = cu;
  for (std::size_t sc = 0; sc < cores_.size(); ++sc) {
    cores_[sc].set_probe(sink, cu, static_cast<std::uint16_t>(sc));
  }
}

} // namespace tmemo
