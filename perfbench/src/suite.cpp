// suite-clean and suite-telemetry: the seven Table-1 kernels at scale 0.04,
// error rate 0, Table-1 thresholds, run one after another through
// Simulation::run on one thread. suite-telemetry turns on metrics and the
// timeline and exports every snapshot to JSON in memory.
#include <algorithm>
#include <cstdio>

#include "bench.hpp"

namespace perfbench {

using namespace tmemo;

namespace {

RunSpec suite_spec(std::uint64_t seed, bool telemetry) {
  RunSpec spec = RunSpec::at_error_rate(0.0);
  spec.seed(seed);
  if (telemetry) spec.metrics(true).timeline(true);
  return spec;
}

/// The warm-up unit: the cheapest kernel of the suite.
const Workload& warmup_workload(
    const std::vector<std::unique_ptr<Workload>>& suite) {
  for (const auto& w : suite) {
    if (w->name() == "Haar") return *w;
  }
  return *suite.front();
}

struct UnitRun {
  KernelRunReport report;
  std::string metrics_json;
  double ns = 0.0;
};

/// One untraced unit, exactly as the workload defines it.
UnitRun run_unit(const Simulation& sim, const Workload& w, const RunSpec& spec,
                 bool telemetry) {
  const Clock::time_point t0 = Clock::now();
  UnitRun u;
  u.report = sim.run(w, spec);
  if (telemetry) u.metrics_json = export_metrics(u.report.metrics);
  u.ns = elapsed_ns(t0);
  return u;
}

void check_unit(const KernelRunReport& r, const std::string& json,
                std::uint64_t seed, DigestCheck& digests, Tally& tally) {
  std::string why;
  if (!r.result.passed) {
    tally.record(false, 1, r.kernel + ": host verification failed");
  } else if (!digests.check(r.kernel, seed, report_digest(r, json), why)) {
    tally.record(false, 1, why);
  } else {
    tally.record(true, 1, {});
  }
}

/// Samples of one timed loop over whole passes of the suite.
struct PassSamples {
  std::vector<double> pass_ms;
  std::vector<double> run_ms;
  std::vector<KernelRunReport> first_pass;
  std::uint64_t lane_ops = 0;
  double ns = 0.0;

  [[nodiscard]] double ns_per_lane_op() const {
    return ns / static_cast<double>(lane_ops);
  }
};

std::string count_note(std::size_t n, const char* what) {
  return std::to_string(n) + ' ' + what;
}

} // namespace

std::vector<std::pair<std::string, std::uint64_t>> suite_digests(
    std::uint64_t seed, bool telemetry) {
  const Simulation sim;
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const auto& w : make_all_workloads(kScale)) {
    const UnitRun u = run_unit(sim, *w, suite_spec(seed, telemetry), telemetry);
    out.emplace_back(u.report.kernel, report_digest(u.report, u.metrics_json));
  }
  return out;
}

void run_suite(const Options& opts, bool telemetry, const ReferenceTable& refs,
               Outcome& out) {
  const std::string name = telemetry ? "suite-telemetry" : "suite-clean";
  const Simulation sim;
  DigestCheck digests(refs, name);
  Tracer tracer;
  Tracer* tr = opts.trace ? &tracer : nullptr;

  // Set-up: build the workloads (synthetic images, option and signal
  // inputs), then one untimed warm-up unit so lazy set-up and allocator
  // growth are paid here and not in the timed loop.
  std::vector<std::unique_ptr<Workload>> suite;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan s(tr, "workloads.setup", static_cast<std::uint64_t>(rep));
      suite = make_all_workloads(kScale);
    }
    const UnitRun warm = run_unit(sim, warmup_workload(suite),
                                  suite_spec(kLockSeed, telemetry), telemetry);
    setup_s.push_back(elapsed_ns(t0) * 1e-9);
    check_unit(warm.report, warm.metrics_json, kLockSeed, digests, out.tally);
  }

  std::vector<Unit> units;
  for (const auto& w : suite) {
    units.push_back(Unit{w.get(), suite_spec(opts.seed, telemetry)});
  }

  // Runs whole passes until `budget_s` has elapsed (at least one), through
  // Simulation::run or, when traced, through its span-instrumented copy.
  TimedProbeTap tap(nullptr, 0);
  std::uint64_t unit_id = 0;
  const auto timed_loop = [&](double budget_s, Tracer* traced) {
    PassSamples p;
    const Clock::time_point start = Clock::now();
    do {
      double pass_ns = 0.0;
      std::uint64_t pass_ops = 0;
      for (const Unit& u : units) {
        UnitRun run;
        if (traced != nullptr) {
          const Clock::time_point t0 = Clock::now();
          {
            ScopedSpan s(traced, "unit", unit_id);
            run.report = traced_run(sim.config(), u, *traced, unit_id,
                                    telemetry ? &tap : nullptr,
                                    telemetry ? &run.metrics_json : nullptr);
          }
          run.ns = elapsed_ns(t0);
          ++unit_id;
        } else {
          run = run_unit(sim, *u.workload, u.spec, telemetry);
        }
        pass_ns += run.ns;
        pass_ops += run.report.total_instructions();
        p.run_ms.push_back(run.ns * 1e-6);
        check_unit(run.report, run.metrics_json, opts.seed, digests, out.tally);
        if (p.pass_ms.empty()) {
          // Only the statistics are kept; holding every timeline would
          // inflate peak_rss_mb beyond what one run needs.
          run.report.timeline.reset();
          p.first_pass.push_back(std::move(run.report));
        }
      }
      p.pass_ms.push_back(pass_ns * 1e-6);
      p.lane_ops += pass_ops;
      p.ns += pass_ns;
    } while (elapsed_ns(start) * 1e-9 < budget_s);
    return p;
  };

  const double budget = opts.trace ? 0.3 * opts.seconds : opts.seconds;
  const PassSamples clean = timed_loop(budget, nullptr);

  MetricSet& e2e = out.end_to_end;
  const std::size_t passes = clean.pass_ms.size();
  e2e.add("setup_s", median(setup_s), "s",
          "median of " + count_note(setup_s.size(), "set-ups"));
  e2e.add("ns_per_lane_op", clean.ns_per_lane_op(), "ns",
          count_note(passes, "passes") + ", " +
              std::to_string(clean.lane_ops) + " lane-ops");
  e2e.add("run_ms.p50", quantile(clean.run_ms, 0.5), "ms",
          count_note(clean.run_ms.size(), "Simulation::run samples"));
  e2e.add("run_ms.p90", quantile(clean.run_ms, 0.9), "ms",
          count_note(clean.run_ms.size(), "Simulation::run samples"));
  e2e.add("jobs_per_s",
          static_cast<double>(clean.run_ms.size()) / (clean.ns * 1e-9), "1/s",
          "Simulation::run calls per second");
  e2e.add("campaign_ms.p50", quantile(clean.pass_ms, 0.5), "ms",
          count_note(passes, "passes of the seven kernels"));
  e2e.add("campaign_ms.p90", quantile(clean.pass_ms, 0.9), "ms",
          count_note(passes, "passes of the seven kernels"));

  if (!opts.trace) return;

  const PassSamples traced = timed_loop(0.3 * opts.seconds, &tracer);
  const double clean_ns = clean.ns_per_lane_op();
  const double traced_ns = traced.ns_per_lane_op();
  char line[160];
  std::snprintf(line, sizeof line,
                "traced ns_per_lane_op %.3f ns vs untraced %.3f ns: tracing "
                "overhead %+.3f ns (%+.1f%%)",
                traced_ns, clean_ns, traced_ns - clean_ns,
                100.0 * (traced_ns - clean_ns) / clean_ns);
  out.lines.push_back(line);
  std::snprintf(line, sizeof line,
                "traced run_ms.p50 %.3f ms, run_ms.p90 %.3f ms (%zu samples)",
                quantile(traced.run_ms, 0.5), quantile(traced.run_ms, 0.9),
                traced.run_ms.size());
  out.lines.push_back(line);

  LayerInputs in;
  for (std::size_t i = 0; i < units.size(); ++i) {
    in.add(units[i], clean.first_pass[i]);
  }
  add_unit_counts(clean.first_pass, out.per_layer);
  run_layer_probes(opts, in, refs, tracer, out);
  tracer.write_csv(opts.work_dir + "/trace-" + name + "-" +
                   std::to_string(opts.seed) + ".csv");
}

} // namespace perfbench
