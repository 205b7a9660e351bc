#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "io/atomic_file.hpp"
#include "telemetry/collector.hpp"
#include "telemetry/exporters.hpp"

namespace perfbench {

using namespace tmemo;

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

void Digest::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ull;
  }
}

std::uint64_t report_digest(const KernelRunReport& r, std::string_view extra) {
  Digest d;
  d.text(r.kernel);
  d.text(r.input_parameter);
  d.f64(static_cast<double>(r.threshold));
  d.f64(r.supply);
  d.f64(r.error_rate_configured);
  for (const FpuStats& s : r.unit_stats) {
    for (const std::uint64_t v :
         {s.instructions, s.hits, s.timing_errors, s.masked_errors,
          s.recoveries, s.recovery_cycles, s.active_stage_cycles,
          s.gated_stage_cycles, s.lut_updates, s.seu_flips,
          s.parity_invalidations, s.corrupt_reuses, s.eds_false_negatives,
          s.eds_false_positives, s.sdc_ops}) {
      d.u64(v);
    }
  }
  d.f64(r.weighted_hit_rate);
  d.f64(r.energy.memoized_pj);
  d.f64(r.energy.baseline_pj);
  d.u64(r.result.output_values);
  d.f64(r.result.max_abs_error);
  d.f64(r.result.mean_abs_error);
  d.f64(r.result.rel_rms_error);
  d.u64(r.result.sdc_values);
  d.u64(r.result.passed ? 1 : 0);
  d.text(extra);
  return d.value();
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void ReferenceTable::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read reference digests: " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, key, seed, digest;
    if (!(fields >> workload >> key >> seed >> digest)) {
      throw std::runtime_error("malformed reference line: " + line);
    }
    entries_[workload + ' ' + key + ' ' + seed] =
        std::stoull(digest, nullptr, 16);
  }
}

std::optional<std::uint64_t> ReferenceTable::find(std::string_view workload,
                                                  std::string_view key,
                                                  std::uint64_t seed) const {
  const std::string base = std::string(workload) + ' ' + std::string(key) + ' ';
  for (const std::string& s : {std::to_string(seed), std::string("*")}) {
    const auto it = entries_.find(base + s);
    if (it != entries_.end()) return it->second;
  }
  return std::nullopt;
}

void Tally::record(bool ok, std::uint64_t units, const std::string& what) {
  attempted_ += units;
  if (!ok) {
    failed_ += units;
    problems_.push_back(what);
  }
}

bool DigestCheck::check(const std::string& key, std::uint64_t seed,
                        std::uint64_t digest, std::string& why) {
  const std::string first_key = key + '@' + std::to_string(seed);
  const auto [it, inserted] = first_.emplace(first_key, digest);
  if (!inserted && it->second != digest) {
    why = key + ": digest " + hex64(digest) + " differs from this run's " +
          hex64(it->second);
    return false;
  }
  if (const auto ref = table_.find(workload_, key, seed);
      ref && *ref != digest) {
    why = key + " seed " + std::to_string(seed) + ": digest " + hex64(digest) +
          " != reference " + hex64(*ref);
    return false;
  }
  return true;
}

std::size_t Tracer::begin(std::string_view name, std::uint64_t unit) {
  Span s;
  s.name = std::string(name);
  s.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  s.unit = unit;
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::end(std::size_t id, std::uint64_t count) {
  Span& s = spans_[id];
  s.end_ns = now_ns();
  s.count = count;
  s.busy_ns = s.end_ns - s.start_ns;
  // Spans close innermost-first; tolerate out-of-order closes anyway.
  const auto it = std::find(open_.rbegin(), open_.rend(), id);
  if (it != open_.rend()) open_.erase(std::next(it).base());
}

void Tracer::aggregate(std::string_view name, std::uint64_t unit,
                       double start_ns, double end_ns, std::uint64_t count,
                       double busy_ns) {
  Span s;
  s.name = std::string(name);
  s.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  s.unit = unit;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.count = count;
  s.busy_ns = busy_ns;
  spans_.push_back(std::move(s));
}

std::vector<std::size_t> Tracer::select(std::string_view name,
                                        std::string_view root) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name != name) continue;
    if (!root.empty()) {
      std::size_t r = i;
      while (spans_[r].parent >= 0) {
        r = static_cast<std::size_t>(spans_[r].parent);
      }
      if (spans_[r].name != root) continue;
    }
    out.push_back(i);
  }
  return out;
}

double Tracer::self_ns(std::size_t id) const {
  double covered = 0.0;
  for (const Span& s : spans_) {
    if (s.parent == static_cast<std::int64_t>(id)) covered += s.busy_ns;
  }
  return spans_[id].busy_ns - covered;
}

double Tracer::median_per_op_ns(std::string_view name,
                                std::string_view root) const {
  std::vector<double> v;
  for (const std::size_t i : select(name, root)) {
    const Span& s = spans_[i];
    v.push_back(s.busy_ns / static_cast<double>(std::max<std::uint64_t>(
                                s.count, 1)));
  }
  return median(std::move(v));
}

void Tracer::write_csv(const std::string& path) const {
  io::AtomicFileWriter w;
  w.open(path);
  std::ostream& os = w.stream();
  os << "id,parent,name,unit,start_ns,end_ns,count,busy_ns,self_ns\n";
  std::vector<double> covered(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) covered[static_cast<std::size_t>(s.parent)] += s.busy_ns;
  }
  char buf[64];
  const auto num = [&buf](double v) {
    std::snprintf(buf, sizeof buf, "%.1f", v);
    return std::string(buf);
  };
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << i << ',' << s.parent << ',' << s.name << ',' << s.unit << ','
       << num(s.start_ns) << ',' << num(s.end_ns) << ',' << s.count << ','
       << num(s.busy_ns) << ',' << num(s.busy_ns - covered[i]) << '\n';
  }
  w.commit();
}

void TimedProbeTap::on_event(const telemetry::ProbeEvent& e) {
  ++events_;
  ++events_in_window_;
  if (recorded_.size() < record_cap_) recorded_.push_back(e);
  const Clock::time_point t0 = Clock::now();
  target_->on_event(e);
  busy_ns_ += elapsed_ns(t0);
}

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t salt) {
  SplitMix64 g(seed ^ (0xd1b54a32d192ed03ull * (salt + 1)));
  return g.next();
}

std::string export_metrics(const telemetry::MetricsSnapshot& snapshot) {
  std::ostringstream os;
  telemetry::write_metrics_json(snapshot, os);
  return std::move(os).str();
}

KernelRunReport traced_run(const ExperimentConfig& config, const Unit& unit,
                           Tracer& tracer, std::uint64_t unit_id,
                           TimedProbeTap* tap, std::string* metrics_json) {
  const Workload& workload = *unit.workload;
  const RunSpec& spec = unit.spec;
  if (spec.axis() != RunSpec::Axis::kErrorRate) {
    throw std::invalid_argument("traced_run supports the error-rate axis only");
  }

  std::optional<GpuDevice> device;
  const Volt supply = config.energy.nominal_voltage;
  float t = 0.0f;
  {
    ScopedSpan s(&tracer, "gpu.device_build", unit_id);
    const VoltageScaling scaling(config.voltage);
    const EnergyModel energy(config.energy, scaling);
    std::shared_ptr<const TimingErrorModel> errors =
        spec.error_rate() > 0.0
            ? std::shared_ptr<const TimingErrorModel>(
                  std::make_shared<FixedRateErrorModel>(spec.error_rate()))
            : std::shared_ptr<const TimingErrorModel>(
                  std::make_shared<NoErrorModel>());
    DeviceConfig device_config = config.device;
    if (spec.seed()) device_config.seed = *spec.seed();
    device.emplace(device_config, energy);
    t = spec.threshold().value_or(workload.table1_threshold());
    if (t <= 0.0f) {
      device->program_exact();
    } else if (workload.error_tolerant()) {
      device->program_threshold_as_mask(t);
    } else {
      device->program_threshold(t);
    }
    device->set_commutativity(config.commutativity);
    if (!config.memoization) device->set_power_gated(true);
    if (config.spatial) device->set_spatial_memoization(true);
    device->set_error_model(std::move(errors));
    device->set_fpu_supply(supply);
  }

  std::unique_ptr<telemetry::TelemetryCollector> collector;
  if (spec.metrics() || spec.timeline()) {
    telemetry::CollectorConfig tcfg;
    tcfg.timeline = spec.timeline();
    collector = std::make_unique<telemetry::TelemetryCollector>(tcfg);
    const DeviceConfig& dc = device->config();
    collector->registry().gauge("run.compute_units")
        .set(static_cast<std::uint64_t>(dc.compute_units));
    collector->registry().gauge("run.stream_cores_per_cu")
        .set(static_cast<std::uint64_t>(dc.stream_cores_per_cu));
    collector->registry().gauge("run.lut_depth")
        .set(static_cast<std::uint64_t>(dc.fpu.lut_depth));
    if (tap != nullptr) {
      tap->retarget(collector.get());
      tap->reset_busy();
      device->set_telemetry(tap);
    } else {
      device->set_telemetry(collector.get());
    }
  }

  KernelRunReport report;
  report.kernel = std::string(workload.name());
  report.input_parameter = workload.input_parameter();
  report.threshold = t;
  report.supply = supply;
  report.error_rate_configured = spec.error_rate();
  {
    ScopedSpan s(&tracer, "workloads.run", unit_id);
    const double start = tracer.now_ns();
    report.result = workload.run(*device);
    if (collector && tap != nullptr) {
      tracer.aggregate("telemetry.on_event", unit_id, start, tracer.now_ns(),
                       tap->events_in_window(), tap->busy_ns());
    }
  }
  report.unit_stats = device->unit_stats();
  report.weighted_hit_rate = device->weighted_hit_rate();
  report.energy = device->energy();
  if (collector) {
    device->set_telemetry(nullptr);
    {
      ScopedSpan s(&tracer, "telemetry.finish", unit_id);
      report.metrics = collector->finish();
      report.timeline = collector->take_timeline();
    }
    if (metrics_json != nullptr) {
      ScopedSpan s(&tracer, "telemetry.export", unit_id);
      *metrics_json = export_metrics(report.metrics);
    }
  }
  return report;
}

void LayerInputs::add(const Unit& unit, const KernelRunReport& report) {
  units.push_back(unit);
  expected.push_back(report_digest(report));
  for (std::size_t t = 0; t < report.unit_stats.size(); ++t) {
    mix[t] += report.unit_stats[t].instructions;
  }
}

void add_unit_counts(const std::vector<KernelRunReport>& reports,
                     MetricSet& out) {
  FpuStats s;
  for (const KernelRunReport& r : reports) {
    for (const FpuStats& u : r.unit_stats) s += u;
  }
  const auto ratio = [](std::uint64_t num, std::uint64_t den) {
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
  };
  out.add("memo.hits", static_cast<double>(s.hits), "count");
  out.add("memo.lut_writes", static_cast<double>(s.lut_updates), "count");
  out.add("memo.hit_rate", ratio(s.hits, s.instructions), "ratio",
          std::to_string(s.instructions) + " lane-ops");
  out.add("timing.errors", static_cast<double>(s.timing_errors), "count");
  out.add("timing.masked_errors", static_cast<double>(s.masked_errors),
          "count");
  out.add("timing.recoveries", static_cast<double>(s.recoveries), "count");
  out.add("timing.recovery_cycles", static_cast<double>(s.recovery_cycles),
          "count");
  out.add("timing.mask_ratio", ratio(s.masked_errors, s.timing_errors),
          "ratio", "0 when no error occurred");
}

} // namespace perfbench
