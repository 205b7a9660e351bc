// perfbench: host-time benchmark of the simulator on three workloads.
//
//   perfbench --workload suite-clean|suite-telemetry|sweep-faulty
//             --seed N --seconds S --trace 0|1
//             --reference reference_digests.txt --work-dir DIR
//   perfbench --workload W --digests N --reference ... --work-dir DIR
//
// Prints one line per metric (name, value, unit, note) and, last, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics untraced (--trace 0) or the per-layer metrics (--trace 1).
// --digests prints reference-table lines instead (see README.md).
#include <sched.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>

#include "bench.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload suite-clean|suite-telemetry|"
               "sweep-faulty --seed N --seconds S --trace 0|1 --reference "
               "FILE --work-dir DIR [--digests N]\n";
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
  std::size_t used = 0;
  unsigned long long n = 0;
  try {
    n = std::stoull(v, &used);
  } catch (const std::exception&) {
    usage(flag + " needs a non-negative integer, got '" + v + "'");
  }
  if (used != v.size() || v.front() == '-') {
    usage(flag + " needs a non-negative integer, got '" + v + "'");
  }
  return n;
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string v = argv[++i];
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = parse_u64(flag, v);
      have_seed = true;
    } else if (flag == "--seconds") {
      const std::uint64_t s = parse_u64(flag, v);
      if (s < 1 || s > 600) usage("--seconds must lie in [1, 600]");
      o.seconds = static_cast<int>(s);
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace must be 0 or 1");
      o.trace = v == "1";
    } else if (flag == "--reference") {
      o.reference_path = v;
    } else if (flag == "--work-dir") {
      o.work_dir = v;
    } else if (flag == "--digests") {
      o.digest_seeds = parse_u64(flag, v);
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (o.workload != "suite-clean" && o.workload != "suite-telemetry" &&
      o.workload != "sweep-faulty") {
    usage("unknown workload '" + o.workload + "'");
  }
  if (!have_seed && !o.digest_seeds) usage("--seed is required");
  if (o.reference_path.empty() || o.work_dir.empty()) {
    usage("--reference and --work-dir are required");
  }
  return o;
}

/// Peak RSS of this process plus its largest reaped child (the
/// process-mode campaign workers), in MiB.
double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

/// Pins this process, and so every worker it forks, to the last CPU it may
/// run on (the first one usually takes more of the interrupts). The sweep's
/// supervisor and worker hand every job back and forth; on a VM, waking a
/// worker on another, possibly descheduled vCPU spread campaign times by
/// ~18 % between runs. Both suites are single-threaded, so pinning costs
/// them nothing.
void pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof one, &one);
    return;
  }
}

std::string number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_metrics(const MetricSet& set) {
  for (const Metric& m : set.all()) {
    std::cout << m.name << ' ' << number(m.value) << ' ' << m.unit;
    if (!m.note.empty()) std::cout << "  (" << m.note << ')';
    std::cout << '\n';
  }
}

/// Reference-table lines for seeds [0, N) and the held-out seed; a suite
/// kernel whose digest is the same for every seed gets one `*` line.
void print_digests(const Options& opts) {
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t s = 0; s < *opts.digest_seeds; ++s) seeds.push_back(s);
  seeds.push_back(kHeldOutSeed);
  if (opts.workload == "sweep-faulty") {
    for (const std::uint64_t s : seeds) {
      std::cout << opts.workload << " grid " << s << ' '
                << hex64(sweep_grid_digest(s)) << '\n';
    }
    return;
  }
  const bool telemetry = opts.workload == "suite-telemetry";
  std::vector<std::vector<std::pair<std::string, std::uint64_t>>> runs;
  for (const std::uint64_t s : seeds) {
    runs.push_back(suite_digests(s, telemetry));
  }
  for (std::size_t k = 0; k < runs.front().size(); ++k) {
    bool same = true;
    for (const auto& r : runs) same = same && r[k] == runs.front()[k];
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      std::cout << opts.workload << ' ' << runs[i][k].first << ' '
                << (same ? std::string("*") : std::to_string(seeds[i])) << ' '
                << hex64(runs[i][k].second) << '\n';
      if (same) break;
    }
  }
}

} // namespace

int main(int argc, char** argv) {
  const Options opts = parse(argc, argv);
  try {
    std::filesystem::create_directories(opts.work_dir);
    if (opts.digest_seeds) {
      print_digests(opts);
      return 0;
    }
    ReferenceTable refs;
    refs.load(opts.reference_path);

    pin_to_one_cpu();
    Outcome out;
    if (opts.workload == "sweep-faulty") {
      run_sweep(opts, refs, out);
    } else {
      run_suite(opts, opts.workload == "suite-telemetry", refs, out);
    }
    out.end_to_end.add("peak_rss_mb", peak_rss_mb(), "MB",
                       "RUSAGE_SELF + RUSAGE_CHILDREN maxrss");

    const Tally& tally = out.tally;
    std::cout << "# workload " << opts.workload << " seed " << opts.seed
              << " seconds " << opts.seconds << " trace " << opts.trace
              << '\n';
    print_metrics(out.end_to_end);
    std::cout << "failed_ratio "
              << number(static_cast<double>(tally.failed()) /
                        static_cast<double>(std::max<std::uint64_t>(
                            tally.attempted(), 1)))
              << " ratio  (" << tally.failed() << " of " << tally.attempted()
              << " units)\n";
    if (opts.trace) {
      std::cout << "# per-layer (traced run)\n";
      print_metrics(out.per_layer);
    }
    for (const std::string& l : out.lines) std::cout << "# " << l << '\n';
    for (const std::string& p : tally.problems()) {
      std::cerr << "perfbench: FAILED " << p << '\n';
    }

    const MetricSet& reported = opts.trace ? out.per_layer : out.end_to_end;
    std::cout << "{\"correct\": " << (tally.correct() ? "true" : "false")
              << ", \"attempted\": " << tally.attempted()
              << ", \"failed\": " << tally.failed() << ", \"metrics\": {";
    const char* sep = "";
    for (const Metric& m : reported.all()) {
      std::cout << sep << '"' << m.name << "\": {\"value\": "
                << number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
      sep = ", ";
    }
    std::cout << "}}" << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
