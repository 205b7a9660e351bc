// Per-layer probes of the traced run. Each probe times calls into one
// module's public functions from outside, in batches recorded as spans
// (count = calls), and reports the median batch's time per call. The same
// probes run on every workload; the workload supplies its units (replayed
// once with telemetry on) and its opcode mix.
#include <algorithm>
#include <cstdio>
#include <sstream>

#include "bench.hpp"
#include "energy/energy_model.hpp"
#include "fpu/semantics.hpp"
#include "gpu/compute_unit.hpp"
#include "io/atomic_file.hpp"
#include "memo/lut.hpp"
#include "memo/resilient_fpu.hpp"
#include "net/frame.hpp"
#include "telemetry/collector.hpp"
#include "timing/eds.hpp"

namespace perfbench {

using namespace tmemo;

namespace {

constexpr int kBatches = 15;
constexpr std::size_t kStreamOps = 1u << 15;
/// Share of operand tuples repeating a recent one in the `hi` stream, about
/// the LUT hit rate of the image kernels; `lo` never repeats on purpose.
constexpr double kHiReuse = 0.85;
constexpr double kErrRate = 0.04;
constexpr std::size_t kRecordCap = 1u << 19;
constexpr int kFabricReps = 3;

/// Runs `body` (which makes `ops` calls) once untimed, then kBatches times
/// under a span named `name` with count = ops.
template <typename Body>
void batches(Tracer& t, std::string_view name, std::uint64_t ops,
             Body&& body) {
  body();
  for (int b = 0; b < kBatches; ++b) {
    ScopedSpan s(&t, name, static_cast<std::uint64_t>(b));
    s.set_count(ops);
    body();
  }
}

float operand(SplitMix64& g) {
  return static_cast<float>(0.5 + 1.5 * g.uniform());
}

/// kMul instructions whose operand pairs repeat one of two `pool` pairs
/// with probability kHiReuse (`hi`) or are all fresh (`lo`).
struct Stream {
  std::vector<FpInstruction> ops;
  std::array<std::array<float, kMaxOperands>, 2> pool{};
};

Stream make_stream(std::uint64_t seed, bool hi) {
  SplitMix64 g(seed);
  Stream s;
  for (auto& p : s.pool) p = {operand(g), operand(g), 0.0f};
  s.ops.resize(kStreamOps);
  for (std::size_t i = 0; i < kStreamOps; ++i) {
    FpInstruction& ins = s.ops[i];
    ins.opcode = FpOpcode::kMul;
    ins.work_item = static_cast<WorkItemId>(i);
    if (hi && g.uniform() < kHiReuse) {
      ins.operands = s.pool[g.next() & 1];
    } else {
      ins.operands = {operand(g), operand(g), 0.0f};
    }
  }
  return s;
}

/// The opcode each FPU type stands for in the evaluate_fp_op mix.
constexpr std::array<FpOpcode, kNumFpuTypes> kUnitOpcode = {
    FpOpcode::kAdd,   FpOpcode::kMul,    FpOpcode::kMulAdd,
    FpOpcode::kSqrt,  FpOpcode::kRecip,  FpOpcode::kFp2Int,
    FpOpcode::kInt2Fp, FpOpcode::kSin,   FpOpcode::kExp2,
};

/// Mirrors the device's EnergyAccumulator: both architectures charged.
class EnergySink final : public ExecutionSink {
 public:
  explicit EnergySink(const EnergyModel& model) : model_(model) {}
  void consume(const ExecutionRecord& rec) override {
    memo_ += model_.charge(rec, model_.params().nominal_voltage);
    base_ += model_.charge_baseline(rec, model_.params().nominal_voltage);
  }
  [[nodiscard]] double total() const noexcept { return memo_ + base_; }

 private:
  const EnergyModel& model_;
  double memo_ = 0.0;
  double base_ = 0.0;
};

double ms(double ns) { return ns * 1e-6; }

std::vector<double> durations(const Tracer& t, std::string_view name,
                              std::string_view root = {}) {
  std::vector<double> v;
  for (const std::size_t i : t.select(name, root)) {
    v.push_back(t.span(i).busy_ns);
  }
  return v;
}

/// memo, fpu, timing, energy and gpu probes on seeded operand streams.
void probe_issue_path(const Options& opts, const LayerInputs& in, Tracer& t) {
  const Stream hi = make_stream(sub_seed(opts.seed, 1), true);
  const Stream lo = make_stream(sub_seed(opts.seed, 2), false);
  const std::array<std::pair<const char*, const Stream*>, 2> streams = {
      {{"hi", &hi}, {"lo", &lo}}};
  const NoErrorModel clean;
  const FixedRateErrorModel faulty(kErrRate);
  const MatchConstraint exact = MatchConstraint::exact();
  const EnergyModel energy_model;

  // MemoLut: lookups against the two `hi` pool pairs, no updates between.
  MemoLut lut(2);
  for (const auto& operands : hi.pool) {
    lut.preload(LutEntry{FpOpcode::kMul, operands, operands[0] * operands[1]});
  }
  for (const auto& [loc, s] : streams) {
    batches(t, std::string("memo.lut_lookup.") + loc, kStreamOps, [&, s = s] {
      std::uint64_t hits = 0;
      for (const FpInstruction& ins : s->ops) {
        hits += lut.lookup_checked(ins, exact).hit;
      }
      keep(hits);
    });
  }
  for (const int depth : {2, 32}) {
    MemoLut fifo(depth);
    batches(t, "memo.lut_update.d" + std::to_string(depth), kStreamOps, [&] {
      for (const FpInstruction& ins : lo.ops) fifo.update(ins, ins.operands[1]);
      keep(fifo.size());
    });
  }

  // ResilientFpu: the whole per-lane memo/EDS/ECU transaction. The err
  // probe's records feed the energy probe.
  std::vector<ExecutionRecord> records;
  const auto fpu_probe = [&](const std::string& name, const Stream& s,
                             const TimingErrorModel& errors,
                             std::uint64_t salt) {
    ResilientFpuConfig cfg;
    cfg.eds_seed = sub_seed(opts.seed, salt);
    ResilientFpu fpu(FpuType::kMul, cfg);
    batches(t, name, kStreamOps, [&] {
      float sum = 0.0f;
      for (const FpInstruction& ins : s.ops) {
        sum += fpu.execute(ins, errors).result;
      }
      keep(sum);
    });
    if (records.empty()) {
      for (const FpInstruction& ins : s.ops) {
        records.push_back(fpu.execute(ins, errors));
      }
    }
  };
  fpu_probe("memo.resilient_execute.err", hi, faulty, 3);
  fpu_probe("memo.resilient_execute.hi", hi, clean, 4);
  fpu_probe("memo.resilient_execute.lo", lo, clean, 5);

  // evaluate_fp_op over the workload's opcode mix.
  {
    std::uint64_t total = 0;
    for (const std::uint64_t n : in.mix) total += n;
    SplitMix64 g(sub_seed(opts.seed, 6));
    std::vector<FpInstruction> mix(kStreamOps);
    for (FpInstruction& ins : mix) {
      std::uint64_t pick = total == 0 ? 0 : g.next() % total;
      std::size_t u = 0;
      while (u + 1 < in.mix.size() && pick >= in.mix[u]) pick -= in.mix[u++];
      ins.opcode = kUnitOpcode[u];
      ins.operands = {operand(g), operand(g), operand(g)};
    }
    batches(t, "fpu.evaluate", kStreamOps, [&] {
      float sum = 0.0f;
      for (const FpInstruction& ins : mix) sum += evaluate_fp_op(ins);
      keep(sum);
    });
  }

  // EdsSensorBank::observe, error-free and at the err rate.
  const std::array<std::pair<const char*, const TimingErrorModel*>, 2> models =
      {{{"clean", &clean}, {"err", &faulty}}};
  for (const auto& [kind, model] : models) {
    EdsSensorBank bank(FpuType::kMul, sub_seed(opts.seed, 7));
    batches(t, std::string("timing.eds_observe.") + kind, kStreamOps,
            [&, m = model] {
              int flagged = 0;
              for (std::size_t i = 0; i < kStreamOps; ++i) {
                flagged += bank.observe(*m).error;
              }
              keep(flagged);
            });
  }

  // EnergyModel::charge + charge_baseline over the err stream's records.
  EnergySink energy(energy_model);
  batches(t, "energy.charge", records.size(), [&] {
    for (const ExecutionRecord& r : records) energy.consume(r);
    keep(energy.total());
  });

  // ComputeUnit::execute_wavefront_op: 64-lane kMul wavefronts whose lanes
  // are the stream's instructions, energy charged through a sink.
  const DeviceConfig dc = DeviceConfig::radeon_hd5870();
  const auto lanes = static_cast<std::size_t>(dc.wavefront_size);
  for (const auto& [loc, s] : streams) {
    std::vector<float> a, b, r(lanes);
    for (const FpInstruction& ins : s->ops) {
      a.push_back(ins.operands[0]);
      b.push_back(ins.operands[1]);
    }
    ComputeUnit cu(dc, sub_seed(opts.seed, 8));
    EnergySink sink(energy_model);
    batches(t, std::string("gpu.wavefront_op.") + loc, kStreamOps, [&] {
      for (std::size_t w = 0; w < kStreamOps / lanes; ++w) {
        cu.execute_wavefront_op(
            FpOpcode::kMul, static_cast<StaticInstrId>(w % 4),
            a.data() + w * lanes, b.data() + w * lanes, nullptr, ~0ull,
            static_cast<WorkItemId>(w * lanes), clean, &sink, r.data());
      }
      keep(sink.total());
    });
  }
}

/// The workload's units once with metrics and timeline on, events counted
/// and the first kRecordCap recorded; then the recording replayed into
/// fresh collectors. Returns the first unit's report (for the codec).
KernelRunReport probe_telemetry(const LayerInputs& in, Tracer& t,
                                Outcome& out) {
  const ExperimentConfig config;
  TimedProbeTap tap(nullptr, kRecordCap);
  std::uint64_t lane_ops = 0;
  KernelRunReport first;
  for (std::size_t i = 0; i < in.units.size(); ++i) {
    Unit u = in.units[i];
    u.spec.metrics(true).timeline(true);
    KernelRunReport r;
    std::string json;
    {
      ScopedSpan s(&t, "telemetry.probe", i);
      r = traced_run(config, u, t, i, &tap, &json);
    }
    lane_ops += r.total_instructions();
    out.tally.record(r.result.passed && report_digest(r) == in.expected[i], 1,
                     r.kernel + ": telemetry changed the simulated statistics");
    if (i == 0) {
      r.timeline.reset();
      first = std::move(r);
    }
  }
  out.per_layer.add("telemetry.events_per_lane_op",
                    static_cast<double>(tap.events()) /
                        static_cast<double>(lane_ops),
                    "events/lane-op",
                    std::to_string(tap.events()) + " events");

  const auto& events = tap.recorded();
  for (const bool timeline : {false, true}) {
    for (int b = 0; b < 5; ++b) {
      telemetry::CollectorConfig cfg;
      cfg.timeline = timeline;
      telemetry::TelemetryCollector c(cfg);
      ScopedSpan s(&t, timeline ? "telemetry.on_event.timeline"
                                : "telemetry.on_event.metrics",
                   static_cast<std::uint64_t>(b));
      s.set_count(events.size());
      for (const telemetry::ProbeEvent& e : events) c.on_event(e);
    }
  }
  return first;
}

/// Frame codec round trips on the bytes a process-mode job exchanges.
void probe_net(const KernelRunReport& report, Tracer& t) {
  constexpr std::uint64_t kFrames = 1u << 14;
  batches(t, "net.dispatch_roundtrip", kFrames, [&] {
    net::JobDispatchFrame f{};
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < kFrames; ++i) {
      sum += net::decode_dispatch(net::encode_dispatch(i, 1), f) ? f.job : 0;
    }
    keep(sum);
  });

  JobResult job;
  job.ok = true;
  job.report = report;
  const std::string body = serialize_job_result(job);
  batches(t, "net.result_frame", kFrames, [&] {
    std::uint64_t ok = 0;
    for (std::uint64_t i = 0; i < kFrames; ++i) {
      ok += net::verify_result_body(net::encode_result_frame(i, body));
    }
    keep(ok);
  });

  constexpr std::uint64_t kPacks = 512;
  batches(t, "net.metrics_pack", kPacks, [&] {
    std::size_t n = 0;
    for (std::uint64_t i = 0; i < kPacks; ++i) {
      std::ostringstream os;
      net::pack_metrics_snapshot(os, report.metrics);
      std::istringstream is(std::move(os).str());
      telemetry::MetricsSnapshot back;
      if (net::unpack_metrics_snapshot(is, back)) n += back.counters.size();
    }
    keep(n);
  });
}

/// The sweep-faulty grid under thread, process and journaled process
/// isolation, alternating, plus an atomic commit of the grid CSV.
void probe_fabric(const Options& opts, const ReferenceTable& refs, Tracer& t,
                  Outcome& out) {
  const SweepSpec spec = sweep_spec(opts.seed);
  const CampaignEngine engine(kSweepWorkers);
  DigestCheck digests(refs, "sweep-faulty");
  WorkerPoolStats pool;
  struct Mode {
    const char* span;
    IsolationMode isolation;
    std::string journal;
  };
  const Mode modes[] = {
      {"sim.fabric.thread", IsolationMode::kThread, ""},
      {"sim.fabric.process", IsolationMode::kProcess, ""},
      {"sim.fabric.process_journal", IsolationMode::kProcess,
       opts.work_dir + "/fabric-journal.csv"}};
  std::size_t jobs = 0;
  for (int rep = 0; rep < kFabricReps; ++rep) {
    for (const Mode& m : modes) {
      const CampaignRunOptions o = campaign_options(m.isolation, m.journal);
      std::optional<CampaignResult> res;
      {
        ScopedSpan s(&t, m.span, static_cast<std::uint64_t>(rep));
        res = engine.run(spec, o);
        s.set_count(res->jobs.size());
      }
      jobs = res->jobs.size();
      std::string why;
      const bool ok = res->all_ok() && res->all_passed() &&
                      digests.check("grid", opts.seed,
                                    bytes_digest(grid_csv(*res)), why);
      out.tally.record(ok, res->jobs.size(),
                       std::string(m.span) + ": " +
                           (why.empty() ? "job failed" : why));
      if (m.isolation == IsolationMode::kProcess) pool = res->worker_stats;
      if (!m.journal.empty()) {
        ScopedSpan s(&t, "io.atomic_commit", static_cast<std::uint64_t>(rep));
        io::AtomicFileWriter w;
        w.open(opts.work_dir + "/fabric-grid.csv");
        write_campaign_csv(*res, w.stream());
        w.commit();
      }
    }
  }
  const auto per_job_ms = [&](const char* a, const char* b) {
    return ms(median(durations(t, a)) - median(durations(t, b))) /
           static_cast<double>(jobs);
  };
  MetricSet& m = out.per_layer;
  const std::string note = std::to_string(jobs) + " jobs, " +
                           std::to_string(engine.jobs()) + " workers";
  m.add("sim.process_overhead_ms_per_job",
        per_job_ms("sim.fabric.process", "sim.fabric.thread"), "ms", note);
  m.add("sim.journal_overhead_ms_per_job",
        per_job_ms("sim.fabric.process_journal", "sim.fabric.process"), "ms",
        note);
  m.add("sim.worker_spawns", static_cast<double>(pool.spawns), "count");
  m.add("sim.redispatches", static_cast<double>(pool.redispatches), "count");
}

} // namespace

void run_layer_probes(const Options& opts, const LayerInputs& in,
                      const ReferenceTable& refs, Tracer& t, Outcome& out) {
  const KernelRunReport first = probe_telemetry(in, t, out);
  probe_issue_path(opts, in, t);
  probe_net(first, t);
  probe_fabric(opts, refs, t, out);

  MetricSet& m = out.per_layer;
  const auto ns = [&t](std::string_view name) {
    return t.median_per_op_ns(name);
  };
  std::vector<double> self;
  for (const std::size_t i : t.select("workloads.run", "unit")) {
    self.push_back(t.self_ns(i));
  }
  m.add("workloads.setup_ms", ms(median(durations(t, "workloads.setup"))),
        "ms");
  m.add("workloads.run_ms", ms(median(self)), "ms",
        "self time, median of " + std::to_string(self.size()) + " units");
  m.add("gpu.device_build_ms",
        ms(median(durations(t, "gpu.device_build", "unit"))), "ms");
  for (const char* loc : {"hi", "lo"}) {
    const std::string l = loc;
    const double op = ns("gpu.wavefront_op." + l);
    m.add("gpu.wavefront_op_ns_per_lane." + l, op, "ns");
    m.add("gpu.wavefront_self_ns_per_lane." + l,
          op - ns("memo.resilient_execute." + l) - ns("energy.charge"), "ns",
          "minus memo.resilient_execute_ns." + l + " and energy.charge_ns");
  }
  for (const char* name :
       {"memo.lut_lookup.hi", "memo.lut_lookup.lo", "memo.lut_update.d2",
        "memo.lut_update.d32", "memo.resilient_execute.hi",
        "memo.resilient_execute.lo", "memo.resilient_execute.err",
        "fpu.evaluate", "timing.eds_observe.clean", "timing.eds_observe.err",
        "energy.charge", "telemetry.on_event.metrics",
        "telemetry.on_event.timeline", "net.dispatch_roundtrip",
        "net.result_frame", "net.metrics_pack"}) {
    // "memo.lut_lookup.hi" -> "memo.lut_lookup_ns.hi"
    std::string metric = name;
    const std::size_t dot = metric.find('.', metric.find('.') + 1);
    metric.insert(dot == std::string::npos ? metric.size() : dot, "_ns");
    m.add(metric, ns(name), "ns");
  }
  m.add("telemetry.finish_ms", ms(median(durations(t, "telemetry.finish"))),
        "ms");
  m.add("telemetry.export_ms", ms(median(durations(t, "telemetry.export"))),
        "ms");
  m.add("io.atomic_commit_ms", ms(median(durations(t, "io.atomic_commit"))),
        "ms");
}

} // namespace perfbench
