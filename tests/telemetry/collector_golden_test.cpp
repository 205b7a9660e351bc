// Byte-identity lock for TelemetryCollector: a fixed, seeded probe-event
// stream goes in, and FNV-1a digests of the exported metrics (JSON and CSV)
// and of the Chrome trace come out. The stream reaches every
// ProbeEvent::Kind, compute units 0 and 3 only (1 and 2 are never seen),
// stream cores out of order, an out-of-range unit and MemoAction, and
// replay bursts still open at finish(). The timeline runs off, uncapped,
// and capped so that one slot is left when a span is flushed: the span is
// kept and its counter sample is the first event dropped.
//
// A change that only makes the collector faster must leave every digest
// untouched.
#include "telemetry/collector.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "fpu/opcode.hpp"
#include "memo/module.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/probe.hpp"
#include "telemetry/timeline.hpp"

namespace tmemo::telemetry {
namespace {

using Kind = ProbeEvent::Kind;

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t s_;
};

ProbeEvent ev(Kind kind, std::uint32_t cu, std::uint16_t core,
              std::uint8_t unit, std::uint64_t value = 0,
              std::uint8_t aux = 0) {
  return ProbeEvent{kind, unit, aux, core, cu, value};
}

std::uint8_t action(MemoAction a) { return static_cast<std::uint8_t>(a); }

/// One lane's transaction in the probe order the device emits: lookup,
/// error, action, retire.
void lane(std::vector<ProbeEvent>& out, SplitMix64& rng, std::uint32_t cu,
          std::uint16_t core, std::uint8_t unit) {
  if (rng.below(8) == 0) {
    out.push_back(ev(Kind::kSpatialReuse, cu, core, unit));
    return;
  }
  const bool hit = rng.below(2) == 0;
  const bool err = rng.below(4) == 0;
  out.push_back(ev(hit ? Kind::kLutHit : Kind::kLutMiss, cu, core, unit));
  if (err) {
    out.push_back(ev(Kind::kEdsError, cu, core, unit));
    if (hit) {
      out.push_back(ev(Kind::kErrorMasked, cu, core, unit));
    } else {
      out.push_back(ev(Kind::kEcuReplay, cu, core, unit, 1 + rng.below(20)));
    }
  } else if (!hit) {
    out.push_back(ev(Kind::kLutWrite, cu, core, unit));
  }
  const MemoAction a = hit ? (err ? MemoAction::kReuseMaskError
                                  : MemoAction::kReuse)
                           : (err ? MemoAction::kTriggerRecovery
                                  : MemoAction::kNormalExecution);
  out.push_back(ev(Kind::kOpRetired, cu, core, unit, rng.below(40),
                   action(a)));
}

void fault(std::vector<ProbeEvent>& out, SplitMix64& rng, std::uint32_t cu,
           std::uint16_t core, std::uint8_t unit, int which) {
  switch (which % 6) {
    case 0: out.push_back(ev(Kind::kLutSeuFlip, cu, core, unit,
                             1 + rng.below(3))); break;
    case 1: out.push_back(ev(Kind::kLutParityDrop, cu, core, unit,
                             1 + rng.below(2))); break;
    case 2: out.push_back(ev(Kind::kEdsFalseNegative, cu, core, unit)); break;
    case 3: out.push_back(ev(Kind::kEdsFalsePositive, cu, core, unit)); break;
    case 4: out.push_back(ev(Kind::kWatchdogTrip, cu, core, unit,
                             5 + rng.below(50))); break;
    default: out.push_back(ev(Kind::kSdcCommit, cu, core, unit)); break;
  }
}

std::vector<ProbeEvent> golden_stream() {
  SplitMix64 rng(0x7e1e3e7a11ull);
  std::vector<ProbeEvent> out;
  int faults = 0;
  for (int op = 0; op < 240; ++op) {
    const std::uint32_t cu = rng.below(2) == 0 ? 0 : 3;
    const auto unit = static_cast<std::uint8_t>(rng.below(kNumFpuTypes));
    out.push_back(ev(Kind::kWavefrontIssue, cu, 0, unit, 1 + rng.below(64)));
    // Stream cores visited out of order: a stride-5 walk from a random
    // start over the 16 cores of the CU.
    const std::uint64_t start = rng.below(16);
    const std::uint64_t lanes = 1 + rng.below(6);
    for (std::uint64_t i = 0; i < lanes; ++i) {
      const auto core = static_cast<std::uint16_t>((start + 5 * i) % 16);
      lane(out, rng, cu, core, unit);
      if (rng.below(16) == 0) fault(out, rng, cu, core, unit, faults++);
    }
  }
  // One instruction on an out-of-range unit, and one retire whose
  // MemoAction byte is out of range.
  out.push_back(ev(Kind::kWavefrontIssue, 3, 0, 200, 4));
  out.push_back(ev(Kind::kLutHit, 3, 9, 200));
  out.push_back(ev(Kind::kOpRetired, 3, 9, 200, 7,
                   action(MemoAction::kReuse)));
  out.push_back(ev(Kind::kWavefrontIssue, 0, 0, 1, 2));
  out.push_back(ev(Kind::kLutMiss, 0, 4, 1));
  out.push_back(ev(Kind::kOpRetired, 0, 4, 1, 3, 9));
  // Every fault kind at least once.
  for (int k = 0; k < 6; ++k) fault(out, rng, 3, 2, 2, k);
  // Replay bursts left open at finish(): core (3,11) ends on two replayed
  // retires, core (0,14) on a replay whose op never retires.
  out.push_back(ev(Kind::kWavefrontIssue, 3, 0, 2, 2));
  for (int i = 0; i < 2; ++i) {
    out.push_back(ev(Kind::kLutMiss, 3, 11, 2));
    out.push_back(ev(Kind::kEdsError, 3, 11, 2));
    out.push_back(ev(Kind::kEcuReplay, 3, 11, 2, 12));
    out.push_back(ev(Kind::kOpRetired, 3, 11, 2, 15,
                     action(MemoAction::kTriggerRecovery)));
  }
  out.push_back(ev(Kind::kWavefrontIssue, 0, 0, 5, 1));
  out.push_back(ev(Kind::kLutMiss, 0, 14, 5));
  out.push_back(ev(Kind::kEdsError, 0, 14, 5));
  out.push_back(ev(Kind::kEcuReplay, 0, 14, 5, 9));
  return out;
}

struct Digests {
  std::uint64_t metrics_json = 0;
  std::uint64_t metrics_csv = 0;
  std::uint64_t trace = 0;
  std::uint64_t dropped = 0;
  std::size_t timeline_events = 0;
  bool last_is_span = false;
  bool out_of_range_by_name = false;
};

Digests run(bool timeline, std::size_t max_events) {
  CollectorConfig cfg;
  cfg.timeline = timeline;
  cfg.timeline_max_events = max_events;
  TelemetryCollector col(cfg);
  for (const ProbeEvent& e : golden_stream()) col.on_event(e);
  const MetricsSnapshot snap = col.finish();

  Digests d;
  std::ostringstream json;
  write_metrics_json(snap, json);
  d.metrics_json = fnv1a(json.str());
  std::ostringstream csv;
  write_metrics_csv(snap, csv);
  d.metrics_csv = fnv1a(csv.str());
  d.out_of_range_by_name = snap.find_counter("fpu.?.ops") != nullptr &&
                           snap.find_counter("fpu.?.hits") != nullptr &&
                           snap.find_counter("memo.action.unknown") != nullptr;
  if (const auto* g = snap.find_gauge("sim.timeline_dropped_events")) {
    d.dropped = g->value;
  }
  if (const std::shared_ptr<const Timeline> tl = col.take_timeline()) {
    std::ostringstream trace;
    write_chrome_trace(*tl, trace);
    d.trace = fnv1a(trace.str());
    d.timeline_events = tl->events().size();
    d.last_is_span = !tl->events().empty() &&
                     tl->events().back().phase ==
                         TimelineEvent::Phase::kComplete;
  }
  return d;
}

TEST(CollectorGolden, StreamReachesEveryKind) {
  std::set<Kind> kinds;
  std::set<std::uint32_t> cus;
  for (const ProbeEvent& e : golden_stream()) {
    kinds.insert(e.kind);
    cus.insert(e.cu);
  }
  EXPECT_EQ(kinds.size(), static_cast<std::size_t>(Kind::kSdcCommit) + 1);
  EXPECT_EQ(cus, (std::set<std::uint32_t>{0, 3}));
}

TEST(CollectorGolden, MetricsOnlyExportIsByteIdentical) {
  const Digests d = run(false, Timeline::kDefaultMaxEvents);
  EXPECT_TRUE(d.out_of_range_by_name);
  EXPECT_EQ(d.metrics_json, 0x56a6d8a18a1f3218ull);
  EXPECT_EQ(d.metrics_csv, 0xd681946ae7b9861aull);
}

TEST(CollectorGolden, UncappedTimelineIsByteIdentical) {
  const Digests d = run(true, Timeline::kDefaultMaxEvents);
  EXPECT_EQ(d.metrics_json, 0x779474191024f3d7ull);
  EXPECT_EQ(d.metrics_csv, 0x00d783b5c772ef03ull);
  EXPECT_EQ(d.trace, 0xdc3c6b9a736b77feull);
  EXPECT_EQ(d.dropped, 0u);
  EXPECT_EQ(d.timeline_events, 785u);
}

TEST(CollectorGolden, CapReachedInsideAFlushKeepsTheSpan) {
  // The span at index 401 takes the last slot; its counter sample is
  // dropped, and so is everything after it.
  const Digests d = run(true, 402);
  EXPECT_TRUE(d.last_is_span);
  EXPECT_EQ(d.timeline_events, 402u);
  EXPECT_EQ(d.dropped, 383u);
  EXPECT_EQ(d.metrics_json, 0x3fb4414ad2c5e6ffull);
  EXPECT_EQ(d.metrics_csv, 0xb0ec9f3b3b484da3ull);
  EXPECT_EQ(d.trace, 0xd76cee1e25b4324aull);
}

} // namespace
} // namespace tmemo::telemetry
