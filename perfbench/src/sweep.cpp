// sweep-faulty: a fig10-style campaign (Haar at the 1024-point floor plus
// BlackScholes over error rates 0..4 %) run by CampaignEngine under process
// isolation, with a journal and checkpointing. Per-job fixed costs (device
// build, worker dispatch, result frames, journal commits) dominate here.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <sstream>

#include "bench.hpp"
#include "io/atomic_file.hpp"
#include "workloads/blackscholes.hpp"
#include "workloads/haar.hpp"

namespace perfbench {

using namespace tmemo;

namespace {

constexpr std::size_t kCheckpointEvery = 4;

std::uint64_t lane_ops(const CampaignResult& res) {
  std::uint64_t n = 0;
  for (const JobResult& j : res.jobs) n += j.report.total_instructions();
  return n;
}

/// Records one campaign's jobs: each fails when it failed or its host
/// verification did; all fail when the grid digest is off.
void check_campaign(const CampaignResult& res, std::uint64_t seed,
                    DigestCheck& digests, Tally& tally) {
  std::string why;
  const bool grid_ok =
      digests.check("grid", seed, bytes_digest(grid_csv(res)), why);
  for (const JobResult& j : res.jobs) {
    if (!j.ok) {
      tally.record(false, 1, "job " + std::to_string(j.job.index) + ": " +
                                 j.error);
    } else if (!j.report.result.passed) {
      tally.record(false, 1, "job " + std::to_string(j.job.index) +
                                 ": host verification failed");
    } else {
      tally.record(grid_ok, 1, why);
    }
  }
}

} // namespace

CampaignRunOptions campaign_options(IsolationMode isolation,
                                    const std::string& journal) {
  CampaignRunOptions o;
  o.isolation = isolation;
  if (!journal.empty()) {
    std::filesystem::remove(journal);
    std::filesystem::remove(campaign_checkpoint_path(journal));
    o.journal_path = journal;
    o.checkpoint_every = kCheckpointEvery;
  }
  return o;
}

SweepSpec sweep_spec(std::uint64_t seed) {
  SweepSpec spec;
  spec.scale = kScale;
  spec.factory = [] {
    std::vector<std::unique_ptr<Workload>> v;
    v.push_back(std::make_unique<HaarWorkload>(1024));
    // make_all_workloads' BlackScholes size at scale 0.04.
    v.push_back(std::make_unique<BlackScholesWorkload>(
        static_cast<std::size_t>(std::max(1.0, 20.0 * kScale + 0.5))));
    return v;
  };
  spec.axis = SweepAxis::error_rate(0.0, 0.04, 5);
  spec.campaign_seed = seed;
  return spec;
}

std::string grid_csv(const CampaignResult& result) {
  CampaignResult zeroed;
  zeroed.jobs = result.jobs;
  for (JobResult& j : zeroed.jobs) j.wall_ms = 0.0;
  std::ostringstream os;
  write_campaign_csv(zeroed, os);
  return std::move(os).str();
}

std::uint64_t sweep_grid_digest(std::uint64_t seed) {
  const CampaignEngine engine(kSweepWorkers);
  return bytes_digest(grid_csv(engine.run(sweep_spec(seed))));
}

void run_sweep(const Options& opts, const ReferenceTable& refs, Outcome& out) {
  const CampaignEngine engine(kSweepWorkers);
  const std::string journal = opts.work_dir + "/sweep-journal.csv";
  DigestCheck digests(refs, "sweep-faulty");
  Tracer tracer;
  Tracer* tr = opts.trace ? &tracer : nullptr;

  // Set-up: build the grid and its workloads, then one untimed warm-up
  // campaign (the first worker forks and device builds happen there).
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    SweepSpec lock;
    {
      ScopedSpan s(tr, "workloads.setup", static_cast<std::uint64_t>(rep));
      lock = sweep_spec(kLockSeed);
      keep(lock.factory().size());
    }
    const CampaignResult warm =
        engine.run(lock, campaign_options(IsolationMode::kProcess, journal));
    setup_s.push_back(elapsed_ns(t0) * 1e-9);
    check_campaign(warm, kLockSeed, digests, out.tally);
  }

  const SweepSpec spec = sweep_spec(opts.seed);
  struct Samples {
    std::vector<double> campaign_ms, run_ms;
    double ns = 0.0;
    std::uint64_t ok = 0;
    std::uint64_t lane_ops = 0;
    std::optional<CampaignResult> first;
  };
  const auto timed_loop = [&](double budget_s, Tracer* traced) {
    Samples s;
    const Clock::time_point start = Clock::now();
    std::uint64_t id = 0;
    do {
      const CampaignRunOptions options =
          campaign_options(IsolationMode::kProcess, journal);
      const Clock::time_point t0 = Clock::now();
      std::optional<CampaignResult> res;
      {
        ScopedSpan span(traced, "sim.campaign", id++);
        res = engine.run(spec, options);
        span.set_count(res->jobs.size());
      }
      const double ns = elapsed_ns(t0);
      check_campaign(*res, opts.seed, digests, out.tally);
      for (const JobResult& j : res->jobs) s.ok += j.ok ? 1 : 0;
      s.campaign_ms.push_back(ns * 1e-6);
      // Host time per job. Single job times are bimodal (Haar ~1 ms,
      // BlackScholes ~25 ms, five of each), which would put their median
      // in the gap between the two; the campaign's mean is well-defined.
      s.run_ms.push_back(ns * 1e-6 / static_cast<double>(res->jobs.size()));
      s.ns += ns;
      s.lane_ops += lane_ops(*res);
      if (traced != nullptr) {
        ScopedSpan commit(traced, "io.atomic_commit", id);
        io::AtomicFileWriter w;
        w.open(opts.work_dir + "/sweep-grid.csv");
        write_campaign_csv(*res, w.stream());
        w.commit();
      }
      if (!s.first) s.first = std::move(res);
    } while (elapsed_ns(start) * 1e-9 < budget_s);
    return s;
  };

  const double budget = opts.trace ? 0.3 * opts.seconds : opts.seconds;
  const Samples clean = timed_loop(budget, nullptr);
  const CampaignResult& first = *clean.first;

  // Isolation must not change a byte of the grid.
  const CampaignResult threaded = engine.run(spec);
  out.tally.record(grid_csv(threaded) == grid_csv(first),
                   threaded.jobs.size(),
                   "thread-mode grid differs from the process-mode grid");

  const std::string n = std::to_string(clean.campaign_ms.size());
  MetricSet& e2e = out.end_to_end;
  e2e.add("setup_s", median(setup_s), "s",
          "median of " + std::to_string(setup_s.size()) + " set-ups");
  e2e.add("ns_per_lane_op", clean.ns / static_cast<double>(clean.lane_ops),
          "ns",
          "campaign wall time per simulated lane-op, " + n + " campaigns, " +
              std::to_string(lane_ops(first)) + " lane-ops each");
  e2e.add("run_ms.p50", quantile(clean.run_ms, 0.5), "ms",
          "campaign time per job, " + n + " campaigns");
  e2e.add("run_ms.p90", quantile(clean.run_ms, 0.9), "ms",
          "campaign time per job, " + n + " campaigns");
  e2e.add("jobs_per_s", static_cast<double>(clean.ok) / (clean.ns * 1e-9),
          "1/s",
          n + " campaigns of " + std::to_string(first.jobs.size()) +
              " jobs on " + std::to_string(engine.jobs()) + " workers");
  e2e.add("campaign_ms.p50", quantile(clean.campaign_ms, 0.5), "ms",
          n + " CampaignEngine::run samples");
  e2e.add("campaign_ms.p90", quantile(clean.campaign_ms, 0.9), "ms",
          n + " CampaignEngine::run samples");

  if (!opts.trace) return;

  const Samples traced = timed_loop(0.3 * opts.seconds, &tracer);
  const double clean_ms = median(clean.campaign_ms);
  const double traced_ms = median(traced.campaign_ms);
  char line[160];
  std::snprintf(line, sizeof line,
                "traced campaign_ms.p50 %.3f ms vs untraced %.3f ms: tracing "
                "overhead %+.3f ms (%+.1f%%)",
                traced_ms, clean_ms, traced_ms - clean_ms,
                100.0 * (traced_ms - clean_ms) / clean_ms);
  out.lines.push_back(line);

  // The grid's jobs once more, in this process, through the span-
  // instrumented copy of Simulation::run: where a job's time goes.
  const auto workloads = spec.factory();
  const ExperimentConfig config;
  LayerInputs in;
  for (const CampaignJob& job : CampaignEngine::expand(spec)) {
    const Unit u{workloads[job.workload_index].get(), job.spec};
    KernelRunReport r;
    {
      ScopedSpan s(&tracer, "unit", job.index);
      r = traced_run(config, u, tracer, job.index, nullptr, nullptr);
    }
    const KernelRunReport& campaign = first.jobs[job.index].report;
    out.tally.record(report_digest(r) == report_digest(campaign), 1,
                     "job " + std::to_string(job.index) +
                         ": in-process replay differs from the campaign");
    in.add(u, campaign);
  }
  std::vector<KernelRunReport> campaign_reports;
  for (const JobResult& j : first.jobs) campaign_reports.push_back(j.report);
  add_unit_counts(campaign_reports, out.per_layer);
  run_layer_probes(opts, in, refs, tracer, out);
  tracer.write_csv(opts.work_dir + "/trace-sweep-faulty-" +
                   std::to_string(opts.seed) + ".csv");
}

} // namespace perfbench
