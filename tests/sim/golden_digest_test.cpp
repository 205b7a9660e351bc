// Behaviour lock for the per-lane issue path: FNV-1a digests of every
// simulated statistic of all seven Table-1 kernels (scale 0.01) under six
// configurations that between them reach the recovery, voltage, spatial,
// deep-LUT and fault-injection paths. A change that only makes the
// simulator faster must leave every digest untouched; a change meant to
// alter simulated behaviour must say so and re-pin them.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>

#include "sim/simulation.hpp"
#include "workloads/workload.hpp"

namespace tmemo {
namespace {

class Fnv1a {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void f32(float v) { u64(std::bit_cast<std::uint32_t>(v)); }
  void str(std::string_view s) {
    u64(s.size());
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ull;
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

void hash_stats(Fnv1a& h, const FpuStats& s) {
  for (const std::uint64_t v :
       {s.instructions, s.hits, s.timing_errors, s.masked_errors,
        s.recoveries, s.recovery_cycles, s.active_stage_cycles,
        s.gated_stage_cycles, s.lut_updates, s.seu_flips,
        s.parity_invalidations, s.corrupt_reuses, s.eds_false_negatives,
        s.eds_false_positives, s.sdc_ops}) {
    h.u64(v);
  }
}

void hash_report(Fnv1a& h, const KernelRunReport& r) {
  h.str(r.kernel);
  h.str(r.input_parameter);
  h.f32(r.threshold);
  h.f64(r.supply);
  h.f64(r.error_rate_configured);
  for (const FpuStats& s : r.unit_stats) hash_stats(h, s);
  h.f64(r.weighted_hit_rate);
  h.f64(r.energy.memoized_pj);
  h.f64(r.energy.baseline_pj);
  h.u64(r.result.output_values);
  h.f64(r.result.max_abs_error);
  h.f64(r.result.mean_abs_error);
  h.f64(r.result.rel_rms_error);
  h.u64(r.result.sdc_values);
  h.u64(r.result.passed ? 1 : 0);
}

/// Spatial statistics are not part of KernelRunReport, so the spatial
/// configuration also runs each kernel on a device built here, configured
/// as Simulation::run configures it.
void hash_spatial(Fnv1a& h, const ExperimentConfig& cfg, const Workload& w,
                  double error_rate, SpatialStats& reached) {
  const VoltageScaling scaling(cfg.voltage);
  GpuDevice device(cfg.device, EnergyModel(cfg.energy, scaling));
  const float t = w.table1_threshold();
  if (t <= 0.0f) {
    device.program_exact();
  } else if (w.error_tolerant()) {
    device.program_threshold_as_mask(t);
  } else {
    device.program_threshold(t);
  }
  device.set_spatial_memoization(true);
  device.set_error_model(std::make_shared<FixedRateErrorModel>(error_rate));
  (void)w.run(device);
  for (const SpatialStats& s : device.spatial_stats()) {
    h.u64(s.comparisons);
    h.u64(s.reuses);
    reached += s;
  }
  for (const FpuStats& s : device.unit_stats()) hash_stats(h, s);
  h.f64(device.energy().memoized_pj);
  h.f64(device.energy().baseline_pj);
}

/// Totals over a case's runs, to show the case reaches the path it guards.
struct Reached {
  FpuStats fpu;
  SpatialStats spatial;
};

struct GoldenCase {
  const char* name;
  std::function<void(ExperimentConfig&)> configure;
  RunSpec spec;
  std::function<bool(const Reached&)> reaches;
  std::uint64_t expected;
};

std::uint64_t digest(const GoldenCase& c, Reached& reached) {
  ExperimentConfig cfg;
  c.configure(cfg);
  const Simulation sim(cfg);
  Fnv1a h;
  for (const auto& w : make_all_workloads(0.01)) {
    const KernelRunReport r = sim.run(*w, c.spec);
    hash_report(h, r);
    for (const FpuStats& s : r.unit_stats) reached.fpu += s;
    if (cfg.spatial) {
      hash_spatial(h, cfg, *w, c.spec.error_rate(), reached.spatial);
    }
  }
  return h.value();
}

TEST(GoldenDigest, SevenKernelsUnderSixConfigurations) {
  const GoldenCase cases[] = {
      {"error-rate-0", [](ExperimentConfig&) {},
       RunSpec::at_error_rate(0.0),
       [](const Reached& r) { return r.fpu.hits > 0; }, 0x043b0fbdb6d0a3d7ull},
      {"error-rate-2pct", [](ExperimentConfig&) {},
       RunSpec::at_error_rate(0.02).seed(11),
       [](const Reached& r) {
         return r.fpu.recoveries > 0 && r.fpu.masked_errors > 0;
       },
       0xf07c17ab5b605846ull},
      {"voltage-0.80", [](ExperimentConfig&) {},
       RunSpec::at_voltage(0.80).seed(12),
       [](const Reached& r) { return r.fpu.timing_errors > 0; }, 0x4adb20b25e08f8a7ull},
      {"spatial", [](ExperimentConfig& c) { c.spatial = true; },
       RunSpec::at_error_rate(0.02).seed(13),
       [](const Reached& r) { return r.spatial.reuses > 0; }, 0x810ab9b13f932f7cull},
      {"lut-depth-8",
       [](ExperimentConfig& c) { c.device.fpu.lut_depth = 8; },
       RunSpec::at_error_rate(0.02).seed(14),
       [](const Reached& r) { return r.fpu.hits > 0; }, 0x53b1b917f84c9834ull},
      {"seu-parity-eds-fn",
       [](ExperimentConfig& c) {
         c.device.fpu.inject.lut.seu_per_cycle = 2e-3;
         c.device.fpu.inject.lut.parity = true;
         c.device.fpu.inject.eds.false_negative_rate = 0.05;
       },
       RunSpec::at_error_rate(0.02).seed(15),
       [](const Reached& r) {
         return r.fpu.seu_flips > 0 && r.fpu.parity_invalidations > 0 &&
                r.fpu.eds_false_negatives > 0 && r.fpu.sdc_ops > 0;
       },
       0x836a5583e8af2f6cull},
  };
  for (const GoldenCase& c : cases) {
    SCOPED_TRACE(c.name);
    Reached reached;
    const std::uint64_t got = digest(c, reached);
    EXPECT_TRUE(c.reaches(reached)) << c.name << " misses its path";
    char hex[32];
    std::snprintf(hex, sizeof hex, "0x%016llx",
                  static_cast<unsigned long long>(got));
    EXPECT_EQ(got, c.expected) << c.name << " digest " << hex;
  }
}

} // namespace
} // namespace tmemo
