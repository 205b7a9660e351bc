// tmemo_sim — command-line front end of the simulator.
//
// Runs any of the seven Table-1 kernels under a chosen timing-error
// environment — a single operating point or a whole sweep — and prints hit
// rates, energy, verification and (optionally) per-unit detail. Sweeps are
// executed by the campaign engine on a thread pool; per-job seeds derive
// from the campaign seed + job index, so results are identical for any
// --jobs value.
//
// Usage:
//   tmemo_sim [--kernel NAME|all]
//             [--error-rate R | --voltage V | --sweep AXIS:START:STOP:COUNT]
//             [--threshold T] [--scale S] [--lut-depth N]
//             [--no-memo] [--spatial] [--jobs N] [--seed S]
//             [--per-unit] [--csv] [--json FILE|-]
//             [--metrics-out FILE|-] [--metrics-format json|csv]
//             [--trace-out FILE]
//             [--inject-lut-seu R] [--inject-eds-fn R] [--inject-eds-fp R]
//             [--inject-parity] [--watchdog-budget N]
//             [--watchdog-action memo-off|guardband]
//             [--max-attempts N] [--job-timeout-ms T]
//             [--isolation thread|process|remote]
//             [--listen HOST:PORT] [--remote-local-workers N]
//             [--keepalive-ms T] [--keepalive-timeout-ms T]
//             [--inject-worker-crash JOB:SIG[:N]] [--inject-net SPEC]
//             [--journal FILE] [--resume FILE]
//             [--checkpoint-every N] [--inject-fs SPEC]
//
// The campaign-grid flags (kernel/axis/config) are shared with
// tmemo_workerd via tools/cli/spec_flags.hpp — a remote campaign passes
// the same grid flags to both tools, and the registration handshake
// rejects any drift.
//
// Flags taking a value accept both "--flag value" and "--flag=value";
// boolean flags take none. Every malformed invocation — unknown flag,
// malformed or out-of-range value, missing value — exits 2 with a one-line
// diagnostic on stderr (tested table-driven in tests/tools/cli_args_test).
// --retries N and --timeout-ms T are kept as aliases of
// --max-attempts N+1 and --job-timeout-ms T.
//
// Artifact durability (docs/RESILIENCE.md): every file artifact (--json,
// --metrics-out, --trace-out, journal checkpoints) is committed atomically
// — temp, fsync, rename — so the named path never holds a torn file.
// --inject-fs applies deterministic filesystem chaos to those commits and
// to journal appends; any artifact write failure, injected or real, exits
// 3 (distinct from 1 = jobs failed and 2 = bad command line).
//
// Examples:
//   tmemo_sim --kernel sobel --error-rate 0.02
//   tmemo_sim --kernel all --sweep error-rate:0:0.04:9 --jobs 8
//   tmemo_sim --kernel all --sweep voltage:0.9:0.8:6 --json fig11.json
//   tmemo_sim --kernel haar --threshold 0.1 --lut-depth 8 --csv
//   tmemo_sim --kernel haar --sweep error-rate:0:0.04:5
//             --metrics-out=m.json --trace-out=t.json   # see OBSERVABILITY.md
//   tmemo_sim --kernel haar --error-rate 0.02 --inject-lut-seu 1e-4
//             --inject-parity --csv              # see FAULT_INJECTION.md
//   tmemo_sim --kernel all --sweep error-rate:0:0.04:9 --journal run.journal
//   tmemo_sim --kernel all --sweep error-rate:0:0.04:9 --resume run.journal
//   tmemo_sim --kernel all --sweep error-rate:0:0.04:9
//             --isolation remote --listen 127.0.0.1:7070   # DISTRIBUTED.md
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>

#include "cli/spec_flags.hpp"
#include "common/table.hpp"
#include "io/atomic_file.hpp"
#include "io/fs_fault.hpp"
#include "sim/campaign.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/timeline.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace tmemo;

struct CliOptions {
  cli::SpecFlags spec;
  int jobs = 0; // 0 = hardware concurrency
  bool per_unit = false;
  bool csv = false;
  std::optional<std::string> json_path;
  std::optional<std::string> metrics_path;
  std::optional<std::string> trace_path;
  std::string metrics_format = "json";
  // Crash-safe campaign execution (docs/RESILIENCE.md, docs/DISTRIBUTED.md).
  int max_attempts = 1;
  double job_timeout_ms = 0.0;
  IsolationMode isolation = IsolationMode::kThread;
  std::optional<inject::WorkerCrashInjection> inject_worker_crash;
  std::string listen_address;
  int remote_local_workers = 0;
  // Remote-fabric liveness and chaos knobs (docs/DISTRIBUTED.md). The
  // optionals record an explicit flag so validation can insist on
  // --isolation=remote without breaking the defaults.
  std::optional<int> keepalive_interval_ms;
  std::optional<int> keepalive_timeout_ms;
  std::optional<net::NetFaultSpec> inject_net;
  std::optional<std::string> journal_path;
  std::optional<std::string> resume_path;
  // Artifact durability knobs (docs/RESILIENCE.md).
  std::optional<io::FsFaultSpec> inject_fs;
  std::size_t checkpoint_every = 0;
};

void print_usage(std::FILE* out, const char* argv0) {
  std::fprintf(
      out,
      "usage: %s %s\n"
      "          [--jobs N] [--per-unit] [--csv] [--json FILE|-]\n"
      "          [--metrics-out FILE|-] [--metrics-format json|csv]\n"
      "          [--trace-out FILE]\n"
      "          [--max-attempts N] [--job-timeout-ms T]\n"
      "          [--isolation thread|process|remote]\n"
      "          [--listen HOST:PORT] [--remote-local-workers N]\n"
      "          [--keepalive-ms T] [--keepalive-timeout-ms T]\n"
      "          [--inject-worker-crash JOB:SIG[:N]] [--inject-net SPEC]\n"
      "          [--journal FILE] [--resume FILE]\n"
      "          [--checkpoint-every N] [--inject-fs SPEC]\n"
      "sweep axes: error-rate, voltage (e.g. --sweep error-rate:0:0.04:9)\n"
      "kernels: sobel gaussian haar binomialoption blackscholes fwt "
      "eigenvalue all\n",
      argv0, cli::SpecFlags::usage_lines());
}

/// Every malformed invocation exits 2 with exactly one diagnostic line.
[[noreturn]] void fail(const std::string& message) {
  std::fprintf(stderr, "tmemo_sim: %s (try --help)\n", message.c_str());
  std::exit(2);
}

CliOptions parse(int argc, char** argv) try {
  using cli::CliError;
  CliOptions opt;
  for (int i = 1; i < argc; ++i) {
    // Accept both "--flag value" and "--flag=value".
    std::string arg = argv[i];
    std::optional<std::string> inline_value;
    if (arg.rfind("--", 0) == 0) {
      if (const std::size_t eq = arg.find('='); eq != std::string::npos) {
        inline_value = arg.substr(eq + 1);
        arg.resize(eq);
      }
    }
    auto value = [&]() -> std::string {
      if (inline_value) return *inline_value;
      if (i + 1 >= argc) throw CliError("missing value for " + arg);
      return argv[++i];
    };
    // Boolean flags reject an inline value: "--csv=yes" is a typo, not a
    // request.
    auto no_value = [&]() {
      if (inline_value) throw CliError(arg + " takes no value");
    };
    if (opt.spec.try_parse(arg, value, no_value)) {
      // Shared campaign-grid flag, handled.
    } else if (arg == "--jobs") {
      // 0 is not "auto" here — omitting the flag is; an explicit zero is a
      // misconfiguration.
      opt.jobs = static_cast<int>(cli::parse_int_in(arg, value(), 1, 4096));
    } else if (arg == "--per-unit") {
      no_value();
      opt.per_unit = true;
    } else if (arg == "--csv") {
      no_value();
      opt.csv = true;
    } else if (arg == "--json") {
      opt.json_path = value();
    } else if (arg == "--metrics-out") {
      opt.metrics_path = value();
    } else if (arg == "--trace-out") {
      opt.trace_path = value();
    } else if (arg == "--max-attempts") {
      opt.max_attempts =
          static_cast<int>(cli::parse_int_in(arg, value(), 1, 1000000));
    } else if (arg == "--retries") {
      // Alias: --retries N == --max-attempts N+1.
      opt.max_attempts =
          static_cast<int>(cli::parse_int_in(arg, value(), 0, 999999)) + 1;
    } else if (arg == "--job-timeout-ms" || arg == "--timeout-ms") {
      const double t = cli::parse_num(arg, value());
      if (t < 0.0) {
        throw CliError(arg + " must be >= 0, got " + std::to_string(t));
      }
      opt.job_timeout_ms = t;
    } else if (arg == "--isolation") {
      const std::string mode = value();
      if (mode == "thread") {
        opt.isolation = IsolationMode::kThread;
      } else if (mode == "process") {
        opt.isolation = IsolationMode::kProcess;
      } else if (mode == "remote") {
        opt.isolation = IsolationMode::kRemote;
      } else {
        throw CliError("--isolation must be thread, process or remote, got '" +
                       mode + "'");
      }
    } else if (arg == "--listen") {
      opt.listen_address = value();
      if (opt.listen_address.empty()) {
        throw CliError("missing value for --listen");
      }
    } else if (arg == "--remote-local-workers") {
      opt.remote_local_workers =
          static_cast<int>(cli::parse_int_in(arg, value(), 0, 4096));
    } else if (arg == "--keepalive-ms") {
      // 0 disables liveness probing entirely.
      opt.keepalive_interval_ms =
          static_cast<int>(cli::parse_int_in(arg, value(), 0, 3600000));
    } else if (arg == "--keepalive-timeout-ms") {
      opt.keepalive_timeout_ms =
          static_cast<int>(cli::parse_int_in(arg, value(), 1, 3600000));
    } else if (arg == "--inject-net") {
      const std::string text = value();
      opt.inject_net = net::NetFaultSpec::parse(text);
      if (!opt.inject_net) {
        throw CliError("malformed --inject-net '" + text +
                       "' (want e.g. seed=7,drop=0.02,stall=0.01,"
                       "corrupt=0.05,delay=0.2:20)");
      }
    } else if (arg == "--inject-worker-crash") {
      const std::string text = value();
      opt.inject_worker_crash = inject::WorkerCrashInjection::parse(text);
      if (!opt.inject_worker_crash) {
        throw CliError("malformed --inject-worker-crash '" + text +
                       "' (want JOB:SIGNAL[:COUNT], e.g. 3:segv or "
                       "0:SIGKILL:1)");
      }
    } else if (arg == "--journal") {
      opt.journal_path = value();
    } else if (arg == "--resume") {
      opt.resume_path = value();
    } else if (arg == "--checkpoint-every") {
      opt.checkpoint_every = static_cast<std::size_t>(
          cli::parse_int_in(arg, value(), 1, 1000000));
    } else if (arg == "--inject-fs") {
      const std::string text = value();
      opt.inject_fs = io::FsFaultSpec::parse(text);
      if (!opt.inject_fs) {
        throw CliError("malformed --inject-fs '" + text +
                       "' (want e.g. seed=7,short=0.02,enospc=0.01,"
                       "eio=0.01,fsync=0.01,crash=0.01,torn=0.02)");
      }
    } else if (arg == "--metrics-format") {
      opt.metrics_format = value();
      if (opt.metrics_format != "json" && opt.metrics_format != "csv") {
        throw CliError("--metrics-format must be json or csv, got '" +
                       opt.metrics_format + "'");
      }
    } else if (arg == "--help" || arg == "-h") {
      print_usage(stdout, argv[0]);
      std::exit(0);
    } else {
      throw CliError("unknown option: " + std::string(argv[i]));
    }
  }
  opt.spec.validate();
  if (opt.inject_worker_crash && opt.isolation != IsolationMode::kProcess) {
    throw cli::CliError("--inject-worker-crash requires --isolation=process");
  }
  if (opt.isolation == IsolationMode::kRemote && opt.listen_address.empty()) {
    throw cli::CliError("--isolation=remote requires --listen HOST:PORT");
  }
  if (!opt.listen_address.empty() &&
      opt.isolation != IsolationMode::kRemote) {
    throw cli::CliError("--listen requires --isolation=remote");
  }
  if (opt.remote_local_workers > 0 &&
      opt.isolation != IsolationMode::kRemote) {
    throw cli::CliError(
        "--remote-local-workers requires --isolation=remote");
  }
  if ((opt.keepalive_interval_ms || opt.keepalive_timeout_ms) &&
      opt.isolation != IsolationMode::kRemote) {
    throw cli::CliError(
        "--keepalive-ms/--keepalive-timeout-ms require --isolation=remote");
  }
  if (opt.inject_net && opt.isolation != IsolationMode::kRemote) {
    throw cli::CliError("--inject-net requires --isolation=remote");
  }
  if (opt.checkpoint_every > 0 && !opt.journal_path && !opt.resume_path) {
    throw cli::CliError("--checkpoint-every requires --journal or --resume");
  }
  return opt;
} catch (const cli::CliError& e) {
  fail(e.what());
}

std::string env_label(const JobResult& j) {
  char buf[32];
  if (j.job.spec.axis() == RunSpec::Axis::kVoltage) {
    std::snprintf(buf, sizeof(buf), "%.2f V", j.job.axis_value);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f%% err", j.job.axis_value * 100.0);
  }
  return buf;
}

/// Commits one file artifact atomically (temp → fsync → rename), with
/// --inject-fs chaos armed when requested. Returns false after printing
/// the diagnostic; callers exit 3 — artifact I/O failure, distinct from
/// "campaign jobs failed" (1) and "bad command line" (2).
template <typename Body>
bool write_artifact_file(const std::string& path,
                         const std::optional<io::FsFaultSpec>& inject_fs,
                         Body&& body) {
  try {
    io::AtomicFileWriter writer;
    if (inject_fs) {
      writer.open(path, *inject_fs);
    } else {
      writer.open(path);
    }
    body(writer.stream());
    writer.commit();
    return true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tmemo_sim: %s\n", e.what());
    return false;
  }
}

} // namespace

int main(int argc, char** argv) {
  const CliOptions opt = parse(argc, argv);

  SweepSpec spec = opt.spec.to_spec();
  spec.metrics = opt.metrics_path.has_value();
  spec.timeline = opt.trace_path.has_value();

  CampaignRunOptions run_options;
  run_options.max_attempts = opt.max_attempts;
  run_options.job_timeout_ms = opt.job_timeout_ms;
  run_options.isolation = opt.isolation;
  run_options.inject_worker_crash = opt.inject_worker_crash;
  run_options.listen_address = opt.listen_address;
  run_options.remote_local_workers = opt.remote_local_workers;
  if (opt.keepalive_interval_ms) {
    run_options.keepalive_interval_ms = *opt.keepalive_interval_ms;
  }
  if (opt.keepalive_timeout_ms) {
    run_options.keepalive_timeout_ms = *opt.keepalive_timeout_ms;
  }
  run_options.inject_net = opt.inject_net;
  run_options.inject_fs = opt.inject_fs;
  run_options.checkpoint_every = opt.checkpoint_every;
  if (opt.journal_path) run_options.journal_path = *opt.journal_path;
  if (opt.resume_path) {
    try {
      // Checkpoint-aware: a compacted journal's completed set is its
      // sealed `<journal>.checkpoint` plus the live tail, bit-identical
      // to replaying the uncompacted journal (docs/RESILIENCE.md).
      run_options.resume =
          read_campaign_journal_with_checkpoint(*opt.resume_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
    if (run_options.resume->malformed_rows > 0) {
      // A torn trailing write from a killed campaign: tolerated, but worth
      // a trace — the affected jobs simply re-run.
      std::fprintf(stderr,
                   "warning: %s: ignored %zu malformed journal row%s "
                   "(torn write from an interrupted campaign?)\n",
                   opt.resume_path->c_str(),
                   run_options.resume->malformed_rows,
                   run_options.resume->malformed_rows == 1 ? "" : "s");
    }
    // Resuming keeps journaling to the same file unless told otherwise.
    if (run_options.journal_path.empty()) {
      run_options.journal_path = *opt.resume_path;
    }
  }

  const CampaignEngine engine(opt.jobs);
  CampaignResult result;
  try {
    result = engine.run(spec, run_options);
  } catch (const std::invalid_argument& e) {
    fail(e.what());
  } catch (const std::runtime_error& e) {
    // A remote campaign that cannot bind its listen address is an
    // environment failure, not a CLI one.
    std::fprintf(stderr, "tmemo_sim: %s\n", e.what());
    return 1;
  }
  if (!result.artifact_error.empty()) {
    // The campaign finished in memory but its journal stopped persisting
    // (injected or real disk fault). Results still print below so nothing
    // is hidden, but the run exits 3: the journal on disk is incomplete.
    std::fprintf(stderr, "tmemo_sim: %s\n", result.artifact_error.c_str());
  }

  ResultTable table("tmemo_sim results",
                    {"kernel", "param", "threshold", "env", "hit rate",
                     "E_memo (nJ)", "E_base (nJ)", "saving", "verify"});
  ResultTable units("per-unit detail",
                    {"kernel", "unit", "instructions", "hit rate",
                     "errors", "recoveries"});

  for (const JobResult& j : result.jobs) {
    if (!j.ok) {
      table.begin_row()
          .add(j.job.kernel)
          .add("-")
          .add("-")
          .add(env_label(j))
          .add("-")
          .add("-")
          .add("-")
          .add("-")
          .add("ERROR: " + j.error);
      continue;
    }
    const KernelRunReport& r = j.report;
    table.begin_row()
        .add(r.kernel)
        .add(r.input_parameter)
        .add(static_cast<double>(r.threshold), 6)
        .add(env_label(j))
        .add(std::to_string(r.weighted_hit_rate * 100.0).substr(0, 5) + "%")
        .add(r.energy.memoized_pj / 1000.0, 1)
        .add(r.energy.baseline_pj / 1000.0, 1)
        .add(std::to_string(r.energy.saving() * 100.0).substr(0, 5) + "%")
        .add(r.result.passed ? "passed" : "FAILED");

    if (opt.per_unit) {
      for (FpuType u : kAllFpuTypes) {
        const FpuStats& s = r.unit_stats[static_cast<std::size_t>(u)];
        if (s.instructions == 0) continue;
        units.begin_row()
            .add(r.kernel)
            .add(std::string(fpu_type_name(u)))
            .add(static_cast<unsigned long long>(s.instructions))
            .add(std::to_string(s.hit_rate() * 100.0).substr(0, 5) + "%")
            .add(static_cast<unsigned long long>(s.timing_errors))
            .add(static_cast<unsigned long long>(s.recoveries));
      }
    }
  }

  if (opt.csv) {
    write_campaign_csv(result, std::cout);
    if (opt.per_unit) units.print_csv(std::cout);
  } else {
    table.print(std::cout);
    if (opt.per_unit) units.print(std::cout);
    if (result.jobs.size() > 1) {
      const char* noun_one = "thread";
      const char* noun_many = "threads";
      if (opt.isolation == IsolationMode::kProcess) {
        noun_one = "process";
        noun_many = "processes";
      } else if (opt.isolation == IsolationMode::kRemote) {
        noun_one = "(local or remote)";
        noun_many = "(local or remote)";
      }
      std::printf("%zu jobs, %d worker%s %s, %.0f ms total\n",
                  result.jobs.size(), result.workers,
                  result.workers == 1 ? "" : "s",
                  result.workers == 1 ? noun_one : noun_many,
                  result.wall_ms);
    }
    if (result.resumed_jobs > 0) {
      std::printf("%zu job%s restored from journal\n", result.resumed_jobs,
                  result.resumed_jobs == 1 ? "" : "s");
    }
  }

  if (opt.json_path) {
    if (*opt.json_path == "-") {
      write_campaign_json(result, std::cout);
    } else if (!write_artifact_file(
                   *opt.json_path, opt.inject_fs,
                   [&](std::ostream& out) { write_campaign_json(result, out); })) {
      return 3;
    }
  }

  if (opt.metrics_path) {
    const auto write = [&](std::ostream& out) {
      if (opt.metrics_format == "csv") {
        telemetry::write_metrics_csv(result.metrics, out);
      } else {
        telemetry::write_metrics_json(result.metrics, out);
      }
    };
    if (*opt.metrics_path == "-") {
      write(std::cout);
    } else if (!write_artifact_file(*opt.metrics_path, opt.inject_fs,
                                    write)) {
      return 3;
    }
  }

  if (opt.trace_path) {
    if (!result.timeline) {
      std::fprintf(stderr, "no timeline recorded (campaign had no jobs?)\n");
      return 1;
    }
    if (!write_artifact_file(*opt.trace_path, opt.inject_fs,
                             [&](std::ostream& out) {
                               telemetry::write_chrome_trace(*result.timeline,
                                                             out);
                             })) {
      return 3;
    }
  }

  // Stdout artifacts (--csv, --json -, --metrics-out -) can tear too — a
  // closed pipe or full disk behind a redirection must not pass as exit 0.
  std::cout.flush();
  if (!std::cout) {
    std::fprintf(stderr, "tmemo_sim: write to stdout failed\n");
    return 3;
  }

  if (!result.artifact_error.empty()) return 3;
  return result.all_passed() ? 0 : 1;
}
