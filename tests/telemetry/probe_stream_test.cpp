// Behaviour lock for the probe stream, the input of every telemetry sink.
//
// PinnedStream hashes (FNV-1a) every event a fixed ComputeUnit program
// raises, as an on_event-only sink sees it, with and without timing
// errors, injected faults and spatial memoization: the error-free cases
// arrive as batched wavefront summaries (ProbeSink::on_wavefront) and the
// others as per-lane events, and the digests were taken before batching
// existed. SinkEquivalence runs the seven Table-1 kernels with a
// TelemetryCollector attached directly, so it folds each summary itself,
// and behind an on_event-only pass-through, so it sees the expanded
// stream; both must export the same bytes, and those bytes are pinned
// too.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "gpu/compute_unit.hpp"
#include "gpu/device.hpp"
#include "sim/simulation.hpp"
#include "telemetry/collector.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/probe.hpp"
#include "workloads/workload.hpp"

namespace tmemo {
namespace {

using telemetry::ProbeEvent;

class Fnv1a {
 public:
  void byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ull;
  }
  void u64(std::uint64_t v, int bytes = 8) {
    for (int i = 0; i < bytes; ++i) {
      byte(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void str(std::string_view s) {
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t fnv1a(std::string_view s) {
  Fnv1a h;
  h.str(s);
  return h.value();
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llxull",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Hashes every event it is handed, counting the batched instructions it
/// receives through ProbeSink's default per-lane expansion.
class StreamHash final : public telemetry::ProbeSink {
 public:
  void on_wavefront(const telemetry::WavefrontEvents& w) override {
    ++batched;
    ProbeSink::on_wavefront(w);
  }
  void on_event(const ProbeEvent& e) override {
    ++events;
    h.u64(static_cast<std::uint8_t>(e.kind), 1);
    h.u64(e.unit, 1);
    h.u64(e.aux, 1);
    h.u64(e.core, 2);
    h.u64(e.cu, 4);
    h.u64(e.value);
  }
  Fnv1a h;
  std::uint64_t events = 0;
  std::uint64_t batched = 0;
};

// ---------------------------------------------------------------------------
// PinnedStream

struct StreamCase {
  std::string name;
  std::function<void(DeviceConfig&)> configure = [](DeviceConfig&) {};
  std::function<void(ComputeUnit&)> program = [](ComputeUnit&) {};
  double rate = 0.0;
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  bool batched = false; ///< every instruction reaches on_wavefront
};

// Prints the case as its name, so the listed test IDs carry no raw bytes.
void PrintTo(const StreamCase& c, std::ostream* os) { *os << c.name; }

class PinnedStream : public ::testing::TestWithParam<StreamCase> {};

TEST_P(PinnedStream, MatchesItsDigest) {
  const StreamCase& sc = GetParam();
  DeviceConfig cfg = DeviceConfig::single_cu();
  sc.configure(cfg);
  ComputeUnit cu(cfg, 41);
  sc.program(cu);
  StreamHash log;
  cu.set_probe(&log, 2);
  EnergyAccumulator acc{EnergyModel{}};
  const FixedRateErrorModel errors(sc.rate);

  // Small operand pools give the LUTs repeats (hits) and the spatial
  // comparators matches; random masks and static ids vary lanes and FPUs.
  const std::array<float, 5> pool = {1.5f, -2.25f, 0.75f, 3.0f, 1.5000001f};
  Xorshift128 rng(77);
  std::array<float, 64> a{}, b{}, c{}, out{};
  for (int step = 0; step < 300; ++step) {
    const auto op = static_cast<FpOpcode>(step % kNumFpOpcodes);
    const int spread = 1 + static_cast<int>(rng.next_below(5));
    for (std::size_t l = 0; l < 64; ++l) {
      a[l] = pool[rng.next_below(static_cast<std::uint64_t>(spread))];
      b[l] = pool[rng.next_below(static_cast<std::uint64_t>(spread))];
      c[l] = pool[rng.next_below(2)];
    }
    const std::uint64_t mask =
        rng.bernoulli(0.5) ? ~0ull : rng.next_u64() | (1ull << 17);
    const auto sid = static_cast<StaticInstrId>(rng.next_below(6));
    cu.execute_wavefront_op(op, sid, a.data(), b.data(), c.data(), mask, 0,
                            errors, &acc, out.data());
  }
  EXPECT_EQ(log.batched, sc.batched ? 300u : 0u);
  EXPECT_EQ(log.events, sc.events);
  EXPECT_EQ(log.h.value(), sc.digest) << "actual " << hex(log.h.value());
}

std::vector<StreamCase> stream_cases() {
  std::vector<StreamCase> s;
  s.push_back({.name = "RateZero",
               .digest = 0x27ea562553d87d50ull,
               .events = 38932,
               .batched = true});
  // Lookup and write masks that differ from the active mask: the module is
  // off on odd stream cores and power-gated on core 4.
  s.push_back({.name = "RateZeroThresholdMemoOffOddCores",
               .program =
                   [](ComputeUnit& cu) {
                     for (int sc = 0; sc < cu.stream_core_count(); ++sc) {
                       cu.stream_core(sc).for_each_fpu([sc](ResilientFpu& f) {
                         f.registers().program_threshold(0.01f);
                         if (sc % 2 == 1) f.registers().set_enabled(false);
                         if (sc == 4) f.set_power_gated(true);
                       });
                     }
                   },
               .digest = 0xaf0edca05479ce42ull,
               .events = 25268,
               .batched = true});
  s.push_back({.name = "RateZeroNarrowWavefront",
               .configure = [](DeviceConfig& c) { c.wavefront_size = 32; },
               .digest = 0x30f0f812721d6dacull,
               .events = 20609,
               .batched = true});
  s.push_back({.name = "Rate2pct",
               .rate = 0.02,
               .digest = 0x3cc643d86e1f5415ull,
               .events = 39386});
  s.push_back({.name = "SeuParity",
               .configure =
                   [](DeviceConfig& c) {
                     c.fpu.inject.lut.seu_per_cycle = 0.05;
                     c.fpu.inject.lut.parity = true;
                   },
               .digest = 0x7db8a70726fea06aull,
               .events = 45138});
  s.push_back({.name = "Spatial",
               .program =
                   [](ComputeUnit& cu) { cu.set_spatial_memoization(true); },
               .digest = 0x683bf3607ce72637ull,
               .events = 30786});
  return s;
}

INSTANTIATE_TEST_SUITE_P(
    ProbeStream, PinnedStream, ::testing::ValuesIn(stream_cases()),
    [](const ::testing::TestParamInfo<StreamCase>& p) { return p.param.name; });

// ---------------------------------------------------------------------------
// SinkEquivalence

/// Forwards every event and overrides nothing else.
class PassThrough final : public telemetry::ProbeSink {
 public:
  explicit PassThrough(telemetry::ProbeSink& target) : target_(target) {}
  void on_event(const ProbeEvent& e) override { target_.on_event(e); }

 private:
  telemetry::ProbeSink& target_;
};

struct Exported {
  std::string metrics_json;
  std::string trace;
};

/// One Simulation::run-shaped error-rate run of `w` with a metrics and
/// timeline collector, optionally behind a PassThrough.
Exported run_collected(const Workload& w, double rate, bool through) {
  const ExperimentConfig config{};
  const VoltageScaling scaling(config.voltage);
  GpuDevice device(config.device, EnergyModel(config.energy, scaling));
  const float t = w.table1_threshold();
  if (t <= 0.0f) {
    device.program_exact();
  } else if (w.error_tolerant()) {
    device.program_threshold_as_mask(t);
  } else {
    device.program_threshold(t);
  }
  device.set_commutativity(config.commutativity);
  device.set_error_model(std::make_shared<FixedRateErrorModel>(rate));
  device.set_fpu_supply(config.energy.nominal_voltage);

  telemetry::TelemetryCollector collector({.timeline = true});
  PassThrough pass(collector);
  device.set_telemetry(through ? static_cast<telemetry::ProbeSink*>(&pass)
                               : &collector);
  const WorkloadResult result = w.run(device);
  EXPECT_TRUE(result.passed) << w.name();
  device.set_telemetry(nullptr);

  Exported out;
  std::ostringstream json;
  telemetry::write_metrics_json(collector.finish(), json);
  out.metrics_json = json.str();
  std::ostringstream trace;
  telemetry::write_chrome_trace(*collector.take_timeline(), trace);
  out.trace = trace.str();
  return out;
}

struct KernelCase {
  std::size_t index = 0; ///< into make_all_workloads(kScale)
  std::string name;
  double rate = 0.0;
  std::uint64_t metrics_json = 0;
  std::uint64_t trace = 0;
};

void PrintTo(const KernelCase& c, std::ostream* os) { *os << c.name; }

constexpr double kScale = 0.04;

class SinkEquivalence : public ::testing::TestWithParam<KernelCase> {};

TEST_P(SinkEquivalence, DirectAndPassThroughExportTheSameBytes) {
  const KernelCase& kc = GetParam();
  const auto suite = make_all_workloads(kScale);
  ASSERT_LT(kc.index, suite.size());
  const Workload& w = *suite[kc.index];
  const Exported direct = run_collected(w, kc.rate, false);
  const Exported through = run_collected(w, kc.rate, true);
  EXPECT_TRUE(direct.metrics_json == through.metrics_json);
  EXPECT_TRUE(direct.trace == through.trace);
  EXPECT_EQ(fnv1a(direct.metrics_json), kc.metrics_json)
      << "actual " << hex(fnv1a(direct.metrics_json));
  EXPECT_EQ(fnv1a(direct.trace), kc.trace)
      << "actual " << hex(fnv1a(direct.trace));
}

std::vector<KernelCase> kernel_cases() {
  // {metrics JSON, Chrome trace} digests per kernel at rate 0 and 2 %.
  struct Pinned {
    std::string_view kernel;
    std::array<std::uint64_t, 2> rate0, rate2;
  };
  static constexpr std::array<Pinned, 7> kPinned = {{
      {"Sobel",
       {0xfa3f857ff19751acull, 0xf2ef0d069da0e81eull},
       {0x6f7de2f0bddc9201ull, 0x5d106bebf83097b9ull}},
      {"Gaussian",
       {0x929f1ed8b6d694c4ull, 0x854e01dde334ce40ull},
       {0x9ebb429ab79c4816ull, 0x1c8d3520cc3384e2ull}},
      {"Haar",
       {0x70a58511b851988full, 0x8539aae75f3983a0ull},
       {0x8265596ef93e81d3ull, 0x2f6cfb5c855758d0ull}},
      {"BinomialOption",
       {0x31bb4da6782c8374ull, 0x42d13e36cb8641f0ull},
       {0xfb70958b6ccd8e97ull, 0xa260ec2d5f61b819ull}},
      {"BlackScholes",
       {0xbf458adcece16d96ull, 0x27ea4ddc29dc21ceull},
       {0xe09cff0a7d61c0b2ull, 0xdfd074ac17e9f7bdull}},
      {"FWT",
       {0xd71c59ad8b1d3abeull, 0x1a72885d2f03cf31ull},
       {0x752f1a7d548cd575ull, 0x08aa842e9df63585ull}},
      {"EigenValue",
       {0xb321e9edd802c1e4ull, 0xfc129dd09cbf9a2dull},
       {0xeee047516ab842b4ull, 0xf17fa5f43939c4f0ull}},
  }};
  const auto suite = make_all_workloads(kScale);
  std::vector<KernelCase> cases;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const std::string name(suite[i]->name());
    const Pinned* pin = nullptr;
    for (const Pinned& p : kPinned) {
      if (p.kernel == name) pin = &p;
    }
    for (const bool faulty : {false, true}) {
      KernelCase kc{.index = i,
                    .name = name + (faulty ? "Rate2pct" : "Rate0"),
                    .rate = faulty ? 0.02 : 0.0};
      if (pin != nullptr) {
        const auto& d = faulty ? pin->rate2 : pin->rate0;
        kc.metrics_json = d[0];
        kc.trace = d[1];
      }
      cases.push_back(kc);
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Table1, SinkEquivalence, ::testing::ValuesIn(kernel_cases()),
    [](const ::testing::TestParamInfo<KernelCase>& p) { return p.param.name; });

} // namespace
} // namespace tmemo
