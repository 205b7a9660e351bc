// Shared pieces of the perfbench program: options, metric sets, the
// behaviour-lock digest, outcome tallies, the in-memory span tracer and the
// seeded input generator. See ../README.md for what each workload measures.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/campaign.hpp"
#include "telemetry/probe.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double elapsed_ns(Clock::time_point since) {
  return std::chrono::duration<double, std::nano>(Clock::now() - since)
      .count();
}

/// Keeps `value` observable so the optimizer cannot drop the work that
/// produced it.
template <typename T>
inline void keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// Problem scale of every workload (the campaign engine's default).
inline constexpr double kScale = 0.04;
/// Seed of the untimed warm-up unit: its digest is always in the reference
/// table, so every run checks one stored digest whatever its own seed.
inline constexpr std::uint64_t kLockSeed = 0;
/// Campaign workers of sweep-faulty. One: the per-job fixed cost is what
/// that workload measures, and the benchmark runs pinned to one CPU (see
/// main.cpp), where more workers would only time-share it.
inline constexpr int kSweepWorkers = 1;
/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupReps = 7;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 10;
  bool trace = false;
  std::string reference_path;
  std::string work_dir;
  /// When set, print reference-table lines for seeds [0, digest_seeds) and
  /// the held-out seed instead of benchmarking.
  std::optional<std::uint64_t> digest_seeds;
};

/// Held-out seed: tune on other seeds, confirm a claim on this one.
inline constexpr std::uint64_t kHeldOutSeed = 7919;

// -- Metrics ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< printed beside the value, e.g. the sample count
};

class MetricSet {
 public:
  void add(std::string name, double value, std::string unit,
           std::string note = {}) {
    metrics_.push_back({std::move(name), value, std::move(unit),
                        std::move(note)});
  }
  [[nodiscard]] const std::vector<Metric>& all() const noexcept {
    return metrics_;
  }

 private:
  std::vector<Metric> metrics_;
};

/// Linear-interpolation quantile, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

// -- Behaviour lock -----------------------------------------------------------

/// FNV-1a over the bytes fed to it.
class Digest {
 public:
  void bytes(const void* data, std::size_t n);
  void text(std::string_view s) {
    const std::uint64_t n = s.size();
    bytes(&n, sizeof n);
    bytes(s.data(), s.size());
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { bytes(&v, sizeof v); }  // bit pattern, not value
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Digest of every simulated statistic of one run: per-unit FpuStats,
/// energy totals and hit rate by bit pattern, and the WorkloadResult.
/// `extra` (the exported metrics JSON, when telemetry is on) is appended.
[[nodiscard]] std::uint64_t report_digest(const tmemo::KernelRunReport& r,
                                          std::string_view extra = {});
[[nodiscard]] std::string hex64(std::uint64_t v);
[[nodiscard]] inline std::uint64_t bytes_digest(std::string_view bytes) {
  Digest d;
  d.bytes(bytes.data(), bytes.size());
  return d.value();
}

/// reference_digests.txt: `workload key seed digest` lines, seed `*`
/// matching every seed.
class ReferenceTable {
 public:
  void load(const std::string& path);
  [[nodiscard]] std::optional<std::uint64_t> find(std::string_view workload,
                                                  std::string_view key,
                                                  std::uint64_t seed) const;

 private:
  std::map<std::string, std::uint64_t> entries_;
};

/// Units attempted and failed, with a note for each failure.
class Tally {
 public:
  /// Counts `units` attempted; all of them failed unless `ok`.
  void record(bool ok, std::uint64_t units, const std::string& what);
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] bool correct() const noexcept {
    return failed_ == 0 && attempted_ > 0;
  }
  [[nodiscard]] const std::vector<std::string>& problems() const noexcept {
    return problems_;
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> problems_;
};

/// Checks a unit digest against the reference table and against the first
/// digest this run saw for the same key (determinism across repetitions).
class DigestCheck {
 public:
  DigestCheck(const ReferenceTable& table, std::string workload)
      : table_(table), workload_(std::move(workload)) {}
  [[nodiscard]] bool check(const std::string& key, std::uint64_t seed,
                           std::uint64_t digest, std::string& why);

 private:
  const ReferenceTable& table_;
  std::string workload_;
  std::map<std::string, std::uint64_t> first_;
};

// -- Tracing ----------------------------------------------------------------

/// In-memory spans: name, start, end, parent and unit id. A span may stand
/// for `count` back-to-back calls whose summed duration is `busy_ns` (used
/// for per-call probes too frequent to store one by one).
struct Span {
  std::string name;
  std::int64_t parent = -1;
  std::uint64_t unit = 0;
  double start_ns = 0.0;
  double end_ns = 0.0;
  std::uint64_t count = 1;
  double busy_ns = 0.0;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  /// Opens a span under the innermost open span.
  std::size_t begin(std::string_view name, std::uint64_t unit);
  void end(std::size_t id, std::uint64_t count = 1);
  /// Records an aggregate child of the innermost open span.
  void aggregate(std::string_view name, std::uint64_t unit, double start_ns,
                 double end_ns, std::uint64_t count, double busy_ns);
  [[nodiscard]] double now_ns() const { return elapsed_ns(origin_); }

  /// Spans named `name`, optionally only those whose root span is `root`.
  [[nodiscard]] std::vector<std::size_t> select(
      std::string_view name, std::string_view root = {}) const;
  [[nodiscard]] const Span& span(std::size_t id) const { return spans_[id]; }
  /// Duration minus the busy time of the span's direct children.
  [[nodiscard]] double self_ns(std::size_t id) const;

  /// Median over the selected spans of duration / count, in ns.
  [[nodiscard]] double median_per_op_ns(std::string_view name,
                                        std::string_view root = {}) const;

  /// Writes every span as CSV through io::AtomicFileWriter.
  void write_csv(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// Opens a span on construction and closes it on destruction; a no-op
/// without a tracer, so untraced code paths share the same source.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, std::string_view name, std::uint64_t unit = 0)
      : t_(t), id_(t ? t->begin(name, unit) : 0) {}
  ~ScopedSpan() {
    if (t_) t_->end(id_, count_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void set_count(std::uint64_t n) noexcept { count_ = n; }

 private:
  Tracer* t_;
  std::size_t id_;
  std::uint64_t count_ = 1;
};

/// Forwards probe events to a collector, timing every call and counting
/// events; optionally keeps the first `record_cap` events for replay.
class TimedProbeTap final : public tmemo::telemetry::ProbeSink {
 public:
  TimedProbeTap(tmemo::telemetry::ProbeSink* target, std::size_t record_cap)
      : target_(target), record_cap_(record_cap) {}
  void on_event(const tmemo::telemetry::ProbeEvent& e) override;
  void retarget(tmemo::telemetry::ProbeSink* target) { target_ = target; }
  [[nodiscard]] std::uint64_t events() const noexcept { return events_; }
  [[nodiscard]] double busy_ns() const noexcept { return busy_ns_; }
  void reset_busy() noexcept { busy_ns_ = 0.0; events_in_window_ = 0; }
  [[nodiscard]] std::uint64_t events_in_window() const noexcept {
    return events_in_window_;
  }
  [[nodiscard]] const std::vector<tmemo::telemetry::ProbeEvent>& recorded()
      const noexcept {
    return recorded_;
  }

 private:
  tmemo::telemetry::ProbeSink* target_;
  std::size_t record_cap_;
  std::uint64_t events_ = 0;
  std::uint64_t events_in_window_ = 0;
  double busy_ns_ = 0.0;
  std::vector<tmemo::telemetry::ProbeEvent> recorded_;
};

// -- Inputs -------------------------------------------------------------------

/// splitmix64: the benchmark's own generator, so its inputs do not depend
/// on the simulator's RNG code.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s_;
};

[[nodiscard]] std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t salt);

// -- Workloads ----------------------------------------------------------------

/// One simulated run: a workload in the environment of a RunSpec.
struct Unit {
  const tmemo::Workload* workload = nullptr;
  tmemo::RunSpec spec = tmemo::RunSpec::at_error_rate(0.0);
};

/// Everything one benchmark process reports.
struct Outcome {
  MetricSet end_to_end;
  MetricSet per_layer;
  std::vector<std::string> lines;  ///< extra human-readable report lines
  Tally tally;
};

/// Simulation::run rebuilt from its public calls, with a span around each:
/// gpu.device_build, workloads.run (with telemetry.on_event aggregated
/// beneath it when `tap` is set), telemetry.finish and telemetry.export.
/// Must produce the same report as Simulation::run; the digest check
/// holds it to that. `metrics_json` receives the exported snapshot.
[[nodiscard]] tmemo::KernelRunReport traced_run(
    const tmemo::ExperimentConfig& config, const Unit& unit, Tracer& tracer,
    std::uint64_t unit_id, TimedProbeTap* tap, std::string* metrics_json);

/// Exports a snapshot the way suite-telemetry does (into memory).
[[nodiscard]] std::string export_metrics(
    const tmemo::telemetry::MetricsSnapshot& snapshot);

/// memo.* and timing.* counts: FpuStats summed over a workload's units.
void add_unit_counts(const std::vector<tmemo::KernelRunReport>& reports,
                     MetricSet& out);

struct LayerInputs {
  /// The workload's units: replayed once with telemetry on.
  std::vector<Unit> units;
  /// report_digest() of each unit's untraced run, simulated statistics
  /// only (no metrics JSON).
  std::vector<std::uint64_t> expected;
  /// Instructions per FPU type over the workload (opcode mix).
  std::array<std::uint64_t, tmemo::kNumFpuTypes> mix{};

  /// Appends a unit with the report of its untraced run.
  void add(const Unit& unit, const tmemo::KernelRunReport& report);
};

/// The per-layer probes every traced run makes, whatever its workload:
/// the telemetry probe pass, layer microbenches, codec and fabric probes.
void run_layer_probes(const Options& opts, const LayerInputs& in,
                      const ReferenceTable& refs, Tracer& tracer,
                      Outcome& out);

void run_suite(const Options& opts, bool telemetry,
               const ReferenceTable& refs, Outcome& out);
void run_sweep(const Options& opts, const ReferenceTable& refs, Outcome& out);

/// The sweep-faulty grid (shared with the fabric probe).
[[nodiscard]] tmemo::SweepSpec sweep_spec(std::uint64_t seed);
/// Grid CSV with the host-time column zeroed, so it is a pure function of
/// the simulated statistics.
[[nodiscard]] std::string grid_csv(const tmemo::CampaignResult& result);
/// Campaign options for `isolation`; a non-empty `journal` is removed
/// (with its checkpoint) and then written with checkpointing.
[[nodiscard]] tmemo::CampaignRunOptions campaign_options(
    tmemo::IsolationMode isolation, const std::string& journal);

/// Reference digests: each suite kernel's run at `seed`, and the grid.
[[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
suite_digests(std::uint64_t seed, bool telemetry);
[[nodiscard]] std::uint64_t sweep_grid_digest(std::uint64_t seed);

} // namespace perfbench
