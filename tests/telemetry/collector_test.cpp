// TelemetryCollector unit tests: synthetic probe-event streams in, exact
// counter/histogram values out, plus the TMEMO_TELEM null-sink contract
// the zero-overhead-when-off guarantee rests on.
#include "telemetry/collector.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "fpu/opcode.hpp"
#include "memo/module.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/probe.hpp"
#include "telemetry/timeline.hpp"

namespace tmemo::telemetry {
namespace {

ProbeEvent event(ProbeEvent::Kind kind, std::uint64_t value = 0,
                 std::uint8_t aux = 0, std::uint32_t cu = 0,
                 std::uint16_t core = 0, FpuType unit = FpuType::kAdd) {
  return ProbeEvent{kind, static_cast<std::uint8_t>(unit), aux, core, cu,
                    value};
}

TEST(TelemetryCollector, FoldsEventStreamIntoNamedCounters) {
  TelemetryCollector col;
  col.on_event(event(ProbeEvent::Kind::kWavefrontIssue, 16));
  col.on_event(event(ProbeEvent::Kind::kLutHit));
  col.on_event(event(ProbeEvent::Kind::kEdsError));
  col.on_event(event(ProbeEvent::Kind::kErrorMasked));
  col.on_event(event(ProbeEvent::Kind::kOpRetired, 3,
                     static_cast<std::uint8_t>(MemoAction::kReuseMaskError)));
  col.on_event(event(ProbeEvent::Kind::kLutMiss));
  col.on_event(event(ProbeEvent::Kind::kLutWrite));
  col.on_event(event(ProbeEvent::Kind::kOpRetired, 5,
                     static_cast<std::uint8_t>(MemoAction::kNormalExecution)));
  col.on_event(event(ProbeEvent::Kind::kSpatialReuse, 3));

  const MetricsSnapshot s = col.finish();
  const auto value = [&](const char* name) {
    const auto* c = s.find_counter(name);
    return c == nullptr ? std::uint64_t{0} : c->value;
  };
  EXPECT_EQ(value("sim.wavefront_issues"), 1u);
  EXPECT_EQ(value("memo.lut.hits"), 1u);
  EXPECT_EQ(value("memo.lut.misses"), 1u);
  EXPECT_EQ(value("memo.lut.writes"), 1u);
  EXPECT_EQ(value("timing.eds_errors"), 1u);
  EXPECT_EQ(value("timing.masked_errors"), 1u);
  EXPECT_EQ(value("memo.spatial.reuses"), 1u);
  // 2 retired + 1 spatially served lane.
  EXPECT_EQ(value("sim.lanes_executed"), 3u);
  // Per-unit breakdown (all events above ran on the ADD unit).
  EXPECT_EQ(value("fpu.ADD.hits"), 1u);
  EXPECT_EQ(value("fpu.ADD.misses"), 1u);
  EXPECT_EQ(value("fpu.ADD.ops"), 2u);
  // Per-action breakdown comes from the kOpRetired aux byte.
  EXPECT_EQ(value("memo.action.reuse_mask_error"), 1u);
  EXPECT_EQ(value("memo.action.normal_execution"), 1u);

  const auto* lanes = s.find_histogram("sim.wavefront_active_lanes");
  ASSERT_NE(lanes, nullptr);
  EXPECT_EQ(lanes->count, 1u);
  EXPECT_EQ(lanes->sum, 16u);
  const auto* lat = s.find_histogram("fpu.op_latency_cycles");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count, 2u);
  EXPECT_EQ(lat->sum, 8u);
}

TEST(TelemetryCollector, EcuReplayAccumulatesCyclesAndBurstLengths) {
  TelemetryCollector col;
  // Two consecutive replayed ops, then a clean op ends the burst.
  for (int i = 0; i < 2; ++i) {
    col.on_event(event(ProbeEvent::Kind::kEcuReplay, 12));
    col.on_event(event(ProbeEvent::Kind::kOpRetired, 15,
                       static_cast<std::uint8_t>(MemoAction::kTriggerRecovery)));
  }
  col.on_event(event(ProbeEvent::Kind::kOpRetired, 3,
                     static_cast<std::uint8_t>(MemoAction::kReuse)));

  const MetricsSnapshot s = col.finish();
  EXPECT_EQ(s.find_counter("timing.ecu.replays")->value, 2u);
  EXPECT_EQ(s.find_counter("timing.ecu.replay_cycles")->value, 24u);
  const auto* burst = s.find_histogram("memo.replay_burst_len");
  ASSERT_NE(burst, nullptr);
  EXPECT_EQ(burst->count, 1u);
  EXPECT_EQ(burst->sum, 2u); // one burst of length 2
}

TEST(TelemetryCollector, FinishFlushesOpenBurstsAndHitRateSpread) {
  TelemetryCollector col;
  // Core (0,0): 1 hit of 2 lookups = 500 permille. An unterminated replay
  // burst (no clean op afterwards) must still be flushed by finish().
  col.on_event(event(ProbeEvent::Kind::kLutHit));
  col.on_event(event(ProbeEvent::Kind::kLutMiss));
  col.on_event(event(ProbeEvent::Kind::kEcuReplay, 12));
  col.on_event(event(ProbeEvent::Kind::kOpRetired, 15,
                     static_cast<std::uint8_t>(MemoAction::kTriggerRecovery)));

  const MetricsSnapshot s = col.finish();
  const auto* spread = s.find_histogram("core.hit_rate_permille");
  ASSERT_NE(spread, nullptr);
  EXPECT_EQ(spread->count, 1u);
  EXPECT_EQ(spread->sum, 500u);
  const auto* burst = s.find_histogram("memo.replay_burst_len");
  ASSERT_NE(burst, nullptr);
  EXPECT_EQ(burst->count, 1u);
  EXPECT_EQ(burst->sum, 1u);
}

TEST(TelemetryCollector, FinishIsIdempotent) {
  TelemetryCollector col;
  col.on_event(event(ProbeEvent::Kind::kLutHit));
  col.on_event(event(ProbeEvent::Kind::kLutMiss));
  (void)col.finish();
  const MetricsSnapshot again = col.finish();
  // A second finish() must not double-flush the derived histograms.
  EXPECT_EQ(again.find_histogram("core.hit_rate_permille")->count, 1u);
}

TEST(TelemetryCollector, TimelineRecordsSpansAndCapsMemory) {
  CollectorConfig cfg;
  cfg.timeline = true;
  cfg.timeline_max_events = 2;
  TelemetryCollector col(cfg);
  for (int op = 0; op < 4; ++op) {
    col.on_event(event(ProbeEvent::Kind::kWavefrontIssue, 8));
    col.on_event(event(ProbeEvent::Kind::kEdsError));
    col.on_event(event(ProbeEvent::Kind::kOpRetired, 3,
                       static_cast<std::uint8_t>(MemoAction::kReuseMaskError)));
  }
  const MetricsSnapshot s = col.finish();
  const std::shared_ptr<const Timeline> tl = col.take_timeline();
  ASSERT_NE(tl, nullptr);
  EXPECT_EQ(tl->events().size(), 2u);
  EXPECT_GT(tl->dropped(), 0u);
  // The drop count is surfaced in the snapshot so campaign merges keep the
  // worst shard's value.
  ASSERT_NE(s.find_gauge("sim.timeline_dropped_events"), nullptr);
  EXPECT_EQ(s.find_gauge("sim.timeline_dropped_events")->value,
            tl->dropped());
  ASSERT_EQ(tl->process_names().size(), 1u);
  EXPECT_EQ(tl->process_names()[0].second, "compute_unit 0");
}

TEST(TelemetryCollector, MetricsOnlyModeHasNoTimeline) {
  TelemetryCollector col;
  col.on_event(event(ProbeEvent::Kind::kLutHit));
  (void)col.finish();
  EXPECT_EQ(col.take_timeline(), nullptr);
}

// -- Batched instructions ----------------------------------------------------

/// Hands every event to `target` and overrides nothing else, so a summary
/// reaches `target` through ProbeSink's default per-lane expansion.
class Expanding final : public ProbeSink {
 public:
  explicit Expanding(TelemetryCollector& target) : target_(target) {}
  void on_event(const ProbeEvent& e) override { target_.on_event(e); }

 private:
  TelemetryCollector& target_;
};

std::string exported(TelemetryCollector& col) {
  std::ostringstream os;
  write_metrics_json(col.finish(), os);
  write_chrome_trace(*col.take_timeline(), os);
  return os.str();
}

TEST(TelemetryCollector, WavefrontSummaryFoldsLikeItsExpansion) {
  using Kind = ProbeEvent::Kind;
  const auto tail = static_cast<std::uint8_t>(MemoAction::kTriggerRecovery);
  const auto replay = [](std::uint16_t core) {
    return event(Kind::kEcuReplay, 12, 0, 1, core);
  };
  const auto retire = [tail](std::uint16_t core) {
    return event(Kind::kOpRetired, 15, tail, 1, core);
  };
  // Core 0 retires lanes 0 and 16, core 1 lanes 1 and 17, core 3 lane 3,
  // core 5 lanes 5 and 21; the module is off on lane 3.
  WavefrontEvents w{.cu = 1,
                    .unit = static_cast<std::uint8_t>(FpuType::kMul),
                    .depth = 4,
                    .cores = 16};
  w.active = (1ull << 0) | (1ull << 16) | (1ull << 1) | (1ull << 17) |
             (1ull << 3) | (1ull << 5) | (1ull << 21);
  w.lookup = w.active & ~(1ull << 3);
  w.hit = (1ull << 16) | (1ull << 21);
  w.write = w.lookup & ~w.hit;
  const WavefrontEvents empty{.cu = 1, .depth = 4, .cores = 16};

  TelemetryCollector direct({.timeline = true});
  TelemetryCollector expanded_into({.timeline = true});
  Expanding expanded(expanded_into);
  for (ProbeSink* sink : {static_cast<ProbeSink*>(&direct),
                          static_cast<ProbeSink*>(&expanded)}) {
    sink->on_event(event(Kind::kWavefrontIssue, 2, 0, 1));
    sink->on_event(event(Kind::kLutMiss, 0, 0, 1, 0));
    // The first summary finds the MUL counters missing, so the collector
    // takes it lane by lane; the later ones it folds.
    sink->on_wavefront(w);
    // Open replay state the next summary must close: a replay with no
    // retire yet on core 0 (two lanes), a finished burst on core 3 (one).
    sink->on_event(replay(0));
    sink->on_event(replay(3));
    sink->on_event(retire(3));
    sink->on_wavefront(w);
    // Core 0's second lane closed the burst its first lane extended, so
    // this replay starts a new one.
    sink->on_event(replay(0));
    sink->on_event(retire(0));
    sink->on_wavefront(empty);
    sink->on_wavefront(w);
    sink->on_event(event(Kind::kWavefrontIssue, 0, 0, 1));
  }
  EXPECT_EQ(exported(direct), exported(expanded_into));
}

// -- The TMEMO_TELEM contract ------------------------------------------------

TEST(ProbeMacro, NullSinkNeverEvaluatesTheEventExpression) {
  int evaluations = 0;
  const auto make = [&evaluations] {
    ++evaluations;
    return ProbeEvent{};
  };
  ProbeSink* sink = nullptr;
  TMEMO_TELEM(sink, make());
  EXPECT_EQ(evaluations, 0);

  TelemetryCollector col;
  sink = &col;
  TMEMO_TELEM(sink, make());
  EXPECT_EQ(evaluations, 1);
  EXPECT_EQ(col.finish().find_counter("sim.lanes_executed")->value, 1u);
}

} // namespace
} // namespace tmemo::telemetry
