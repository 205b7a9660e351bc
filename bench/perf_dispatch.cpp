// Dispatch-fabric throughput: the same campaign grid run under the three
// isolation modes (thread pool, forked local workers, remote TCP workers on
// loopback), reported as jobs/sec so the fabric overhead is a number the CI
// history can watch. The remote mode binds an OS-chosen port and fork()s
// its workerd children exactly like the loopback e2e tests, so the bench
// measures the real handshake + frame round-trips, not a mock.
//
// Emits BENCH_dispatch.json (override the path with TM_BENCH_JSON) next to
// the usual stdout table, then runs frame codec microbenchmarks.
#include <benchmark/benchmark.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/pod_io.hpp"
#include "io/atomic_file.hpp"
#include "net/frame.hpp"
#include "net/transport.hpp"
#include "net/workerd.hpp"
#include "sim/campaign.hpp"
#include "util.hpp"
#include "workloads/haar.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace tmemo;

/// Fixed worker count so the three modes are comparable; TM_JOBS overrides.
int worker_count() {
  const int jobs = bench::campaign_jobs();
  return jobs > 0 ? jobs : 2;
}

/// Campaign sized by TM_SCALE: 64 jobs at paper scale, floor of 6 so the
/// default laptop scale still exercises redistribution across workers.
SweepSpec dispatch_spec() {
  SweepSpec spec;
  spec.factory = [] {
    std::vector<std::unique_ptr<Workload>> v;
    v.push_back(std::make_unique<HaarWorkload>(128));
    return v;
  };
  const int points =
      std::max(6, static_cast<int>(64.0 * bench::workload_scale()));
  spec.axis = SweepAxis::error_rate(0.0, 0.04, points);
  return spec;
}

// Wall-clock reads are confined to wall_now()/wall_elapsed_ms (lint rule
// R1): these feed the wall_ms / jobs-per-sec report fields only.
std::chrono::steady_clock::time_point wall_now() {
  return std::chrono::steady_clock::now();
}

double wall_elapsed_ms(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(wall_now() - since)
      .count();
}

struct ModeSample {
  std::string mode;
  double wall_ms = 0.0;
  double jobs_per_sec = 0.0;
  std::size_t jobs = 0;
  int workers = 0;
  bool all_ok = false;
};

ModeSample time_campaign(const std::string& mode, const SweepSpec& spec,
                         const CampaignRunOptions& options) {
  const auto start = wall_now();
  const CampaignResult result = CampaignEngine(worker_count()).run(spec, options);
  const double wall_ms = wall_elapsed_ms(start);
  ModeSample sample;
  sample.mode = mode;
  sample.wall_ms = wall_ms;
  sample.jobs = result.jobs.size();
  sample.jobs_per_sec =
      wall_ms > 0.0 ? static_cast<double>(result.jobs.size()) * 1000.0 / wall_ms
                    : 0.0;
  sample.workers = result.workers;
  sample.all_ok = result.all_ok();
  return sample;
}

/// Forks a workerd child serving `spec` against the loopback supervisor;
/// the child inherits the bench's WorkloadFactory through the address
/// space, exactly like the process pool's local workers.
pid_t fork_workerd(const SweepSpec& spec, std::uint16_t port) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  net::WorkerdOptions options;
  options.connect = {"127.0.0.1", port};
  const net::WorkerdOutcome outcome = net::run_workerd(spec, options);
  ::_exit(outcome.ok ? 0 : 1);
}

ModeSample time_remote(const SweepSpec& spec) {
  net::Listener listener;
  listener.open({"127.0.0.1", 0});
  std::vector<pid_t> children;
  for (int i = 0; i < worker_count(); ++i) {
    children.push_back(fork_workerd(spec, listener.bound_port()));
  }
  CampaignRunOptions options;
  options.isolation = IsolationMode::kRemote;
  options.listener = &listener;
  ModeSample sample = time_campaign("remote-loopback", spec, options);
  for (const pid_t pid : children) {
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid ||
        !(WIFEXITED(status) && WEXITSTATUS(status) == 0)) {
      sample.all_ok = false;
    }
  }
  return sample;
}

void write_json(const std::vector<ModeSample>& samples,
                const std::string& path) {
  // Atomic commit (io/atomic_file.hpp): trend dashboards diff these JSON
  // files across runs; a half-written one from a killed bench would skew
  // the series. Best-effort like the old code: a failed commit only warns.
  io::AtomicFileWriter writer;
  try {
    writer.open(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_dispatch: %s\n", e.what());
    return;
  }
  std::ostream& out = writer.stream();
  out << "{\n  \"bench\": \"dispatch\",\n  \"scale\": "
      << bench::workload_scale() << ",\n  \"workers\": " << worker_count()
      << ",\n  \"modes\": [\n";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const ModeSample& s = samples[i];
    out << "    {\"mode\": \"" << s.mode
        << "\", \"jobs\": " << s.jobs << ", \"wall_ms\": " << s.wall_ms
        << ", \"jobs_per_sec\": " << s.jobs_per_sec
        << ", \"all_ok\": " << (s.all_ok ? "true" : "false") << "}"
        << (i + 1 < samples.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  try {
    writer.commit();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_dispatch: %s\n", e.what());
  }
}

void reproduce() {
  const SweepSpec spec = dispatch_spec();
  std::vector<ModeSample> samples;
  samples.push_back(time_campaign("thread", spec, CampaignRunOptions{}));
  {
    CampaignRunOptions options;
    options.isolation = IsolationMode::kProcess;
    samples.push_back(time_campaign("process", spec, options));
  }
  samples.push_back(time_remote(spec));

  ResultTable table("Dispatch fabric throughput (jobs/sec, higher is better)",
                    {"isolation", "jobs", "workers", "wall (ms)", "jobs/sec",
                     "all ok"});
  for (const ModeSample& s : samples) {
    table.begin_row()
        .add(s.mode)
        .add(static_cast<long long>(s.jobs))
        .add(static_cast<long long>(s.workers))
        .add(s.wall_ms)
        .add(s.jobs_per_sec)
        .add(s.all_ok ? "yes" : "NO");
  }
  bench::emit(table);

  const char* override_path = std::getenv("TM_BENCH_JSON");
  write_json(samples, override_path && *override_path ? override_path
                                                      : "BENCH_dispatch.json");
}

// -- Frame codec microbenchmarks: the per-event cost of the TCP fabric. ------

void BM_HelloRoundTrip(benchmark::State& state) {
  net::HelloFrame hello;
  hello.campaign_digest = 0x1234'5678'9abc'def0ull;
  hello.job_count = 64;
  for (auto _ : state) {
    const std::string wire = net::encode_hello(hello);
    net::HelloFrame back;
    benchmark::DoNotOptimize(net::decode_hello(wire, back));
  }
}
BENCHMARK(BM_HelloRoundTrip);

void BM_FrameBufferReassembly(benchmark::State& state) {
  const std::string payload = net::encode_hello(net::HelloFrame{});
  std::ostringstream framed;
  write_pod(framed, static_cast<std::uint32_t>(payload.size()));
  framed << payload;
  const std::string wire = framed.str();
  for (auto _ : state) {
    net::FrameBuffer frames(net::kMaxHandshakeFrameBytes);
    frames.append(wire.data(), wire.size());
    std::string out;
    benchmark::DoNotOptimize(frames.next(out));
  }
}
BENCHMARK(BM_FrameBufferReassembly);

} // namespace

int main(int argc, char** argv) {
  reproduce();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
