#include "gpu/compute_unit.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "telemetry/probe.hpp"

namespace tmemo {
namespace {

class RecordingSink final : public ExecutionSink {
 public:
  void consume(const ExecutionRecord& rec) override { records.push_back(rec); }
  std::vector<ExecutionRecord> records;
};

DeviceConfig small_config() {
  DeviceConfig c = DeviceConfig::single_cu();
  return c;
}

TEST(ComputeUnit, SixteenStreamCores) {
  ComputeUnit cu(small_config(), 1);
  EXPECT_EQ(cu.stream_core_count(), 16);
}

TEST(ComputeUnit, ExecutesAllActiveLanes) {
  ComputeUnit cu(small_config(), 1);
  const NoErrorModel none;
  RecordingSink sink;
  std::array<float, 64> a{}, b{}, out{};
  for (int i = 0; i < 64; ++i) {
    a[static_cast<std::size_t>(i)] = static_cast<float>(i);
    b[static_cast<std::size_t>(i)] = 1.0f;
  }
  cu.execute_wavefront_op(FpOpcode::kAdd, 0, a.data(), b.data(), nullptr,
                          ~0ull, 0, none, &sink, out.data());
  EXPECT_EQ(sink.records.size(), 64u);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)], static_cast<float>(i) + 1.0f);
  }
}

TEST(ComputeUnit, InactiveLanesSkipped) {
  ComputeUnit cu(small_config(), 1);
  const NoErrorModel none;
  RecordingSink sink;
  std::array<float, 64> a{}, out{};
  out.fill(-99.0f);
  const std::uint64_t mask = 0x5ull; // lanes 0 and 2
  cu.execute_wavefront_op(FpOpcode::kAbs, 0, a.data(), nullptr, nullptr,
                          mask, 0, none, &sink, out.data());
  EXPECT_EQ(sink.records.size(), 2u);
  EXPECT_EQ(out[0], 0.0f);
  EXPECT_EQ(out[1], -99.0f); // untouched
  EXPECT_EQ(out[2], 0.0f);
}

TEST(ComputeUnit, SubWavefrontTimeMultiplexOrder) {
  // THE key scheduling property (paper §3): stream core j executes lanes
  // j, j+16, j+32, j+48 back-to-back. Verify via the work-item ids of the
  // records in sink order: the first 16 records are lanes 0..15 (sub 0),
  // then 16..31, etc.
  ComputeUnit cu(small_config(), 1);
  const NoErrorModel none;
  RecordingSink sink;
  std::array<float, 64> a{}, out{};
  cu.execute_wavefront_op(FpOpcode::kAbs, 0, a.data(), nullptr, nullptr,
                          ~0ull, 100, none, &sink, out.data());
  ASSERT_EQ(sink.records.size(), 64u);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(sink.records[static_cast<std::size_t>(i)].work_item,
              static_cast<WorkItemId>(100 + i));
  }
}

TEST(ComputeUnit, SameCoreLanesShareLut) {
  // Lanes 0 and 16 run on stream core 0: identical operands hit.
  // Lanes 0 and 1 run on different cores: no sharing.
  ComputeUnit cu(small_config(), 1);
  const NoErrorModel none;
  RecordingSink sink;
  std::array<float, 64> a{}, b{}, out{};
  a.fill(3.0f);
  b.fill(4.0f);
  cu.execute_wavefront_op(FpOpcode::kMul, 0, a.data(), b.data(), nullptr,
                          (1ull << 0) | (1ull << 1) | (1ull << 16), 0, none,
                          &sink, out.data());
  ASSERT_EQ(sink.records.size(), 3u);
  // Record order: lane 0 (SC0), lane 1 (SC1), lane 16 (SC0 again).
  EXPECT_FALSE(sink.records[0].lut_hit); // SC0 cold
  EXPECT_FALSE(sink.records[1].lut_hit); // SC1 cold
  EXPECT_TRUE(sink.records[2].lut_hit);  // SC0 warm from lane 0
}

TEST(ComputeUnit, MissingOperandPointerRejected) {
  ComputeUnit cu(small_config(), 1);
  const NoErrorModel none;
  std::array<float, 64> a{}, out{};
  EXPECT_THROW(
      cu.execute_wavefront_op(FpOpcode::kAdd, 0, a.data(), nullptr, nullptr,
                              1ull, 0, none, nullptr, out.data()),
      std::invalid_argument);
  EXPECT_THROW(
      cu.execute_wavefront_op(FpOpcode::kMulAdd, 0, a.data(), a.data(),
                              nullptr, 1ull, 0, none, nullptr, out.data()),
      std::invalid_argument);
  EXPECT_THROW(
      cu.execute_wavefront_op(FpOpcode::kAdd, 0, a.data(), a.data(), nullptr,
                              1ull, 0, none, nullptr, nullptr),
      std::invalid_argument);
}

TEST(ComputeUnit, NullSinkAllowed) {
  ComputeUnit cu(small_config(), 1);
  const NoErrorModel none;
  std::array<float, 64> a{}, out{};
  EXPECT_NO_THROW(cu.execute_wavefront_op(FpOpcode::kAbs, 0, a.data(),
                                          nullptr, nullptr, ~0ull, 0, none,
                                          nullptr, out.data()));
}

TEST(ComputeUnit, NarrowWavefrontConfig) {
  DeviceConfig cfg = DeviceConfig::single_cu();
  cfg.wavefront_size = 32; // 2 sub-wavefronts
  ComputeUnit cu(cfg, 1);
  const NoErrorModel none;
  RecordingSink sink;
  std::array<float, 64> a{}, out{};
  cu.execute_wavefront_op(FpOpcode::kAbs, 0, a.data(), nullptr, nullptr,
                          ~0ull, 0, none, &sink, out.data());
  EXPECT_EQ(sink.records.size(), 32u);
}

// ---------------------------------------------------------------------------
// The lean path (the device's own EnergyAccumulator as the sink) and the
// record path (any other sink, which receives every ExecutionRecord) must
// leave bit-identical state behind: results, every FPU's statistics and LUT
// contents, the spatial statistics, probe events and the energy totals.

/// An observer that forwards every record to an accumulator, the way the
/// trace writer and the performance model do.
class ForwardingSink final : public ExecutionSink {
 public:
  explicit ForwardingSink(EnergyAccumulator& acc) : acc_(acc) {}
  void consume(const ExecutionRecord& rec) override { acc_.consume(rec); }

 private:
  EnergyAccumulator& acc_;
};

class EventLog final : public telemetry::ProbeSink {
 public:
  void on_event(const telemetry::ProbeEvent& e) override {
    events.push_back(e);
  }
  std::vector<telemetry::ProbeEvent> events;
};

struct LaneScenario {
  std::string name;
  std::function<void(DeviceConfig&)> configure = [](DeviceConfig&) {};
  std::function<void(ComputeUnit&)> program = [](ComputeUnit&) {};
  std::function<std::shared_ptr<const TimingErrorModel>()> errors = [] {
    return std::make_shared<NoErrorModel>();
  };
  Volt supply = 0.9;
  bool probe = false;
};

// Prints the case as its name, so the listed test IDs carry no raw bytes.
void PrintTo(const LaneScenario& s, std::ostream* os) { *os << s.name; }

template <typename T>
bool same_bytes(const T& x, const T& y) {
  static_assert(std::has_unique_object_representations_v<T>);
  return std::memcmp(&x, &y, sizeof(T)) == 0;
}

void expect_same_lut(const MemoLut& x, const MemoLut& y) {
  ASSERT_EQ(x.size(), y.size());
  EXPECT_TRUE(same_bytes(x.stats(), y.stats()));
  for (std::size_t i = 0; i < x.entries().size(); ++i) {
    const LutEntry& ex = x.entries()[i];
    const LutEntry& ey = y.entries()[i];
    EXPECT_EQ(ex.opcode, ey.opcode);
    EXPECT_EQ(ex.seu_flips, ey.seu_flips);
    EXPECT_EQ(std::bit_cast<std::uint32_t>(ex.result),
              std::bit_cast<std::uint32_t>(ey.result));
    for (int k = 0; k < kMaxOperands; ++k) {
      const auto ku = static_cast<std::size_t>(k);
      EXPECT_EQ(std::bit_cast<std::uint32_t>(ex.operands[ku]),
                std::bit_cast<std::uint32_t>(ey.operands[ku]));
    }
  }
}

class LeanPathEquivalence : public ::testing::TestWithParam<LaneScenario> {};

TEST_P(LeanPathEquivalence, MatchesTheRecordPathBitForBit) {
  const LaneScenario& sc = GetParam();
  DeviceConfig cfg = DeviceConfig::single_cu();
  sc.configure(cfg);
  ComputeUnit lean(cfg, 77);
  ComputeUnit observed(cfg, 77);
  sc.program(lean);
  sc.program(observed);
  EventLog lean_log, observed_log;
  if (sc.probe) {
    lean.set_probe(&lean_log, 3);
    observed.set_probe(&observed_log, 3);
  }
  const auto errors = sc.errors();
  EnergyAccumulator lean_acc{EnergyModel{}};
  EnergyAccumulator observed_acc{EnergyModel{}};
  lean_acc.set_supply(sc.supply);
  observed_acc.set_supply(sc.supply);
  ForwardingSink forward(observed_acc);

  // Small operand pools so stream cores see repeats (temporal hits) and
  // whole wavefronts agree (spatial reuse); the near-duplicates exercise
  // the threshold and mask constraints.
  const std::array<float, 6> pool = {1.5f,  1.5000001f, -2.25f,
                                     0.75f, 3.0f,       -0.0f};
  Xorshift128 rng(2024);
  std::array<float, 64> a{}, b{}, c{};
  for (int step = 0; step < 400; ++step) {
    const auto op = static_cast<FpOpcode>(step % kNumFpOpcodes);
    const int spread = 1 + static_cast<int>(rng.next_below(6));
    for (std::size_t l = 0; l < 64; ++l) {
      a[l] = pool[rng.next_below(static_cast<std::uint64_t>(spread))];
      b[l] = pool[rng.next_below(static_cast<std::uint64_t>(spread))];
      c[l] = pool[rng.next_below(3)];
    }
    const std::uint64_t mask =
        rng.bernoulli(0.5) ? ~0ull : rng.next_u64() | 1ull;
    const auto sid = static_cast<StaticInstrId>(rng.next_below(9));
    std::array<float, 64> out_lean{}, out_observed{};
    lean.execute_wavefront_op(op, sid, a.data(), b.data(), c.data(), mask,
                              100, *errors, &lean_acc, out_lean.data());
    observed.execute_wavefront_op(op, sid, a.data(), b.data(), c.data(), mask,
                                  100, *errors, &forward,
                                  out_observed.data());
    for (std::size_t l = 0; l < 64; ++l) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(out_lean[l]),
                std::bit_cast<std::uint32_t>(out_observed[l]))
          << "step " << step << " lane " << l;
    }
  }

  std::vector<const ResilientFpu*> fl, fo;
  lean.for_each_fpu([&](const ResilientFpu& f) { fl.push_back(&f); });
  observed.for_each_fpu([&](const ResilientFpu& f) { fo.push_back(&f); });
  ASSERT_EQ(fl.size(), fo.size());
  std::uint64_t instructions = 0;
  for (std::size_t i = 0; i < fl.size(); ++i) {
    SCOPED_TRACE("fpu " + std::to_string(i));
    EXPECT_TRUE(same_bytes(fl[i]->stats(), fo[i]->stats()));
    EXPECT_TRUE(same_bytes(fl[i]->ecu().stats(), fo[i]->ecu().stats()));
    expect_same_lut(fl[i]->lut(), fo[i]->lut());
    instructions += fl[i]->stats().instructions;
  }
  EXPECT_GT(instructions, 0u);
  for (int u = 0; u < kNumFpuTypes; ++u) {
    const auto ui = static_cast<std::size_t>(u);
    EXPECT_TRUE(same_bytes(lean.spatial_stats()[ui],
                           observed.spatial_stats()[ui]));
    const EnergyTotals& el = lean_acc.unit(static_cast<FpuType>(u));
    const EnergyTotals& eo = observed_acc.unit(static_cast<FpuType>(u));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(el.memoized_pj),
              std::bit_cast<std::uint64_t>(eo.memoized_pj))
        << "unit " << u;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(el.baseline_pj),
              std::bit_cast<std::uint64_t>(eo.baseline_pj))
        << "unit " << u;
  }
  ASSERT_EQ(lean_log.events.size(), observed_log.events.size());
  for (std::size_t i = 0; i < lean_log.events.size(); ++i) {
    const telemetry::ProbeEvent& x = lean_log.events[i];
    const telemetry::ProbeEvent& y = observed_log.events[i];
    EXPECT_TRUE(x.kind == y.kind && x.unit == y.unit && x.aux == y.aux &&
                x.core == y.core && x.cu == y.cu && x.value == y.value)
        << "event " << i;
  }
  if (sc.probe) {
    EXPECT_FALSE(lean_log.events.empty());
  }
}

std::vector<LaneScenario> lane_scenarios() {
  const auto rate = [](double r) {
    return [r]() -> std::shared_ptr<const TimingErrorModel> {
      return std::make_shared<FixedRateErrorModel>(r);
    };
  };
  const auto each_fpu = [](auto fn) {
    return [fn](ComputeUnit& cu) { cu.for_each_fpu(fn); };
  };
  std::vector<LaneScenario> s;
  s.push_back({.name = "ExactClean"});
  s.push_back({.name = "ExactErr2pct", .errors = rate(0.02)});
  s.push_back({.name = "ExactErrAlways", .errors = rate(1.0)});
  s.push_back({.name = "ExactCommutative",
               .program = each_fpu([](ResilientFpu& f) {
                 f.registers().set_commutativity(true);
               }),
               .errors = rate(0.02)});
  for (bool comm : {false, true}) {
    const std::string suffix = comm ? "Commutative" : "";
    s.push_back({.name = "Threshold" + suffix,
                 .program =
                     [comm](ComputeUnit& cu) {
                       cu.for_each_fpu([comm](ResilientFpu& f) {
                         f.registers().program_threshold(0.01f);
                         f.registers().set_commutativity(comm);
                       });
                       cu.set_spatial_constraint(
                           MatchConstraint::approximate(0.01f));
                     },
                 .errors = rate(0.02)});
    // ctest registers each case under gtest's listing, which ends in the
    // param's raw bytes, a heap address first; reports that cut names at
    // a fixed width then showed that address for a name as short as
    // "Mask", and the case seemed to vanish between builds. Hence the
    // longer name for the non-commutative mask case.
    s.push_back({.name = comm ? "MaskCommutative" : "MaskOrdered",
                 .program =
                     [comm](ComputeUnit& cu) {
                       cu.for_each_fpu([comm](ResilientFpu& f) {
                         f.registers().program_threshold_as_mask(0.01f);
                         f.registers().set_commutativity(comm);
                       });
                       cu.set_spatial_constraint(MatchConstraint::masked(
                           mask_ignoring_fraction_lsbs(
                               fraction_lsbs_for_threshold(0.01f))));
                     },
                 .errors = rate(0.02)});
  }
  s.push_back({.name = "VoltageOverscaled",
               .errors =
                   [] {
                     return std::make_shared<VoltageErrorModel>(
                         VoltageScaling{}, 0.8);
                   },
               .supply = 0.8});
  s.push_back({.name = "MemoDisabled",
               .program = each_fpu([](ResilientFpu& f) {
                 f.registers().set_enabled(false);
               }),
               .errors = rate(0.02)});
  s.push_back({.name = "PowerGated",
               .program = each_fpu(
                   [](ResilientFpu& f) { f.set_power_gated(true); }),
               .errors = rate(0.02)});
  s.push_back({.name = "LutDepth8",
               .configure = [](DeviceConfig& c) { c.fpu.lut_depth = 8; },
               .errors = rate(0.02)});
  s.push_back({.name = "Spatial",
               .program =
                   [](ComputeUnit& cu) { cu.set_spatial_memoization(true); },
               .errors = rate(0.02)});
  s.push_back({.name = "SpatialErrAlways",
               .program =
                   [](ComputeUnit& cu) { cu.set_spatial_memoization(true); },
               .errors = rate(1.0)});
  s.push_back({.name = "SeuParityEdsFaults",
               .configure =
                   [](DeviceConfig& c) {
                     c.fpu.inject.lut.seu_per_cycle = 0.05;
                     c.fpu.inject.lut.parity = true;
                     c.fpu.inject.eds.false_negative_rate = 0.4;
                     c.fpu.inject.eds.false_positive_rate = 0.01;
                   },
               .errors = rate(0.1)});
  for (auto action : {inject::WatchdogAction::kDisableMemoization,
                      inject::WatchdogAction::kRaiseGuardband}) {
    s.push_back(
        {.name = std::string("Watchdog") +
                 (action == inject::WatchdogAction::kRaiseGuardband
                      ? "Guardband"
                      : "DisableMemo"),
         .configure =
             [action](DeviceConfig& c) {
               c.fpu.inject.watchdog.recovery_cycle_budget = 40;
               c.fpu.inject.watchdog.action = action;
             },
         .errors = rate(0.2)});
  }
  s.push_back({.name = "Telemetry",
               .program =
                   [](ComputeUnit& cu) { cu.set_spatial_memoization(true); },
               .errors = rate(0.05),
               .probe = true});
  s.push_back({.name = "TelemetryWithFaults",
               .configure =
                   [](DeviceConfig& c) {
                     c.fpu.inject.lut.seu_per_cycle = 0.05;
                     c.fpu.inject.eds.false_negative_rate = 0.4;
                   },
               .errors = rate(0.1),
               .probe = true});
  return s;
}

INSTANTIATE_TEST_SUITE_P(
    LeanPath, LeanPathEquivalence, ::testing::ValuesIn(lane_scenarios()),
    [](const ::testing::TestParamInfo<LaneScenario>& p) {
      return p.param.name;
    });

} // namespace
} // namespace tmemo
