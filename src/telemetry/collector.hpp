// TelemetryCollector: the standard ProbeSink of the simulator.
//
// One collector is attached to one GpuDevice for one run (Simulation::run
// creates it when the RunSpec asks for metrics or a timeline). It folds the
// probe-event stream into a MetricRegistry — counters for every hot-path
// event class, per-FPU-type breakdowns, and distribution histograms for
// the quantities the paper reports as averages only (per-stream-core
// hit-rate spread, replay-burst lengths, per-op latency, wavefront
// occupancy) — and, optionally, into a per-run event Timeline.
//
// Not thread-safe: the simulator executes one run on one thread, and the
// campaign engine gives every job its own collector, merging the
// resulting snapshots deterministically afterwards.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fpu/opcode.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/probe.hpp"
#include "telemetry/timeline.hpp"

namespace tmemo::telemetry {

struct CollectorConfig {
  /// Record a per-run event timeline (memory-capped; see Timeline).
  bool timeline = false;
  std::size_t timeline_max_events = Timeline::kDefaultMaxEvents;
};

/// Records one campaign-supervision event ("worker_spawn", "worker_crash",
/// "worker_respawn", "job_redispatch", "job_timeout_kill") on a supervisor
/// timeline (docs/RESILIENCE.md). Lives here so timeline event naming stays
/// inside the telemetry layer. `seq` is the supervisor's own monotonic
/// event sequence — supervision timestamps are ordinal, never wall-clock,
/// so a supervision trace is as deterministic as the campaign that
/// produced it (wall-dependent *occurrence* of crashes aside). `worker` is
/// the worker slot, rendered as the trace's pid.
void record_supervision_event(
    Timeline& timeline, std::string name, std::uint32_t worker,
    std::uint64_t seq,
    std::vector<std::pair<std::string, std::uint64_t>> args);

class TelemetryCollector final : public ProbeSink {
 public:
  explicit TelemetryCollector(CollectorConfig config = {});

  void on_event(const ProbeEvent& event) override;
  /// Folds a batched instruction in O(stream cores), leaving the registry
  /// and timeline exactly as its expanded per-lane events would. Until the
  /// instruments and per-core slots it touches exist, it takes those
  /// events instead.
  void on_wavefront(const WavefrontEvents& w) override;

  /// The registry backing this collector; callers may add their own
  /// instruments (Simulation::run sets the run.* configuration gauges).
  [[nodiscard]] MetricRegistry& registry() noexcept { return registry_; }

  /// Flushes derived per-core state (open replay bursts, hit-rate spread,
  /// pending timeline spans) and returns the final snapshot. Call exactly
  /// once, after the run completes.
  [[nodiscard]] MetricsSnapshot finish();

  /// The recorded timeline (null unless configured). Valid after finish().
  [[nodiscard]] std::shared_ptr<const Timeline> take_timeline() noexcept {
    return std::move(timeline_);
  }

 private:
  struct CoreState {
    std::uint64_t lut_lookups = 0;
    std::uint64_t lut_hits = 0;
    std::uint64_t replay_burst = 0;  ///< consecutive ops that replayed
    bool replay_in_op = false;       ///< current op triggered the ECU
  };

  /// One in-flight static vector instruction on one compute unit
  /// (timeline aggregation only).
  struct PendingOp {
    bool active = false;
    std::uint64_t start_tick = 0;
    std::uint8_t unit = 0;
    std::uint64_t lanes = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t errors = 0;
    std::uint64_t replays = 0;
    std::uint64_t cum_hits = 0;   ///< per-CU cumulative, for "C" series
    std::uint64_t cum_misses = 0;
  };

  /// Everything kept per compute unit. `on_timeline` marks a CU the
  /// timeline has seen: finish() flushes and names exactly those.
  struct CuState {
    bool on_timeline = false;
    PendingOp op;
    std::vector<CoreState> cores; ///< indexed by stream core
  };

  /// Number of MemoAction values with a cached `memo.action.*` counter.
  static constexpr std::size_t kNumActions = 4;

  CuState& cu_state(std::uint32_t cu) {
    if (cu >= cus_.size()) cus_.resize(std::size_t{cu} + 1);
    return cus_[cu];
  }
  CoreState& core_state(const ProbeEvent& e) {
    std::vector<CoreState>& cores = cu_state(e.cu).cores;
    if (e.core >= cores.size()) cores.resize(std::size_t{e.core} + 1);
    return cores[e.core];
  }
  PendingOp& pending(std::uint32_t cu) {
    CuState& s = cu_state(cu);
    s.on_timeline = true;
    return s.op;
  }

  // Each instrument is registered by name on its first event and reached
  // through its cached pointer afterwards, so an instrument still appears
  // in the snapshot only once something happened to it.
  Counter& counter(Counter*& slot, std::string_view name) {
    if (slot == nullptr) slot = &registry_.counter(name);
    return *slot;
  }
  Histogram& histogram(Histogram*& slot, std::string_view name,
                       const HistogramSpec& spec) {
    if (slot == nullptr) slot = &registry_.histogram(name, spec);
    return *slot;
  }
  /// `fpu.<UNIT>.{hits,misses,ops}`, cached per unit.
  enum UnitColumn : std::uint8_t { kUnitHits, kUnitMisses, kUnitOps };
  Counter& unit_counter(std::uint8_t unit, UnitColumn column);
  /// `memo.action.*` for the MemoAction byte of a retire, cached per
  /// action.
  Counter& action_counter(std::uint8_t aux);
  void record_burst(std::uint64_t length);
  /// The replay-burst bookkeeping of one retire on `core`.
  void retire_on(CoreState& core);
  void mark(std::string_view name, std::string_view category,
            const ProbeEvent& e, const char* arg);
  void flush_op(std::uint32_t cu, PendingOp& op);

  MetricRegistry registry_;
  std::shared_ptr<Timeline> timeline_;
  std::vector<CuState> cus_; ///< indexed by compute unit
  std::uint64_t tick_ = 0; ///< committed dynamic instructions (sim clock)
  bool finished_ = false;

  Counter* wavefront_issues_ = nullptr;
  Counter* lut_hits_ = nullptr;
  Counter* lut_misses_ = nullptr;
  Counter* lut_writes_ = nullptr;
  Counter* eds_errors_ = nullptr;
  Counter* masked_errors_ = nullptr;
  Counter* ecu_replays_ = nullptr;
  Counter* ecu_replay_cycles_ = nullptr;
  Counter* spatial_reuses_ = nullptr;
  Counter* lanes_executed_ = nullptr;
  Counter* seu_flips_ = nullptr;
  Counter* parity_invalidations_ = nullptr;
  Counter* eds_false_negatives_ = nullptr;
  Counter* eds_false_positives_ = nullptr;
  Counter* watchdog_trips_ = nullptr;
  Counter* sdc_commits_ = nullptr;
  std::array<std::array<Counter*, 3>, kNumFpuTypes> unit_counters_{};
  std::array<Counter*, kNumActions> action_counters_{};
  Histogram* active_lanes_ = nullptr;
  Histogram* op_latency_ = nullptr;
  Histogram* replay_burst_ = nullptr;
};

} // namespace tmemo::telemetry
