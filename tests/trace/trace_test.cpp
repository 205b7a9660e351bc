#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "img/synthetic.hpp"
#include "kernel/launch.hpp"
#include "workloads/sobel.hpp"

namespace tmemo {
namespace {

std::vector<TraceEvent> capture_sobel(int side = 96) {
  GpuDevice device(DeviceConfig::single_cu());
  device.program_exact();
  TraceWriter writer;
  const Image face = make_face_image(side, side);
  Image out(side, side);
  const int wf = device.config().wavefront_size;
  const std::size_t wavefronts =
      face.size() / static_cast<std::size_t>(wf);
  for (std::size_t w = 0; w < wavefronts; ++w) {
    WavefrontCtx ctx(device.compute_unit(0), device.error_model(), &writer,
                     wf, static_cast<WorkItemId>(w) * wf, ~0ull);
    const LaneVec p = ctx.gather(face.pixels(), [](int, WorkItemId gid) {
      return static_cast<std::size_t>(gid);
    });
    const LaneVec r = ctx.sqrt(ctx.mul(p, p));
    ctx.scatter(out.pixels(), r, [](int, WorkItemId gid) {
      return static_cast<std::size_t>(gid);
    });
  }
  return writer.events();
}

TEST(TraceWriter, CapturesEveryInstruction) {
  const auto events = capture_sobel(64);
  // 64x64 pixels, 2 ops per pixel.
  EXPECT_EQ(events.size(), 64u * 64u * 2u);
  // Events carry consistent unit/opcode pairs.
  for (const TraceEvent& ev : events) {
    EXPECT_EQ(opcode_unit(ev.op()), ev.fpu());
  }
}

TEST(TraceWriter, DownstreamChaining) {
  struct Counter final : ExecutionSink {
    int n = 0;
    void consume(const ExecutionRecord&) override { ++n; }
  } counter;
  TraceWriter writer(&counter);
  ExecutionRecord rec;
  writer.consume(rec);
  writer.consume(rec);
  EXPECT_EQ(counter.n, 2);
  EXPECT_EQ(writer.size(), 2u);
  writer.clear();
  EXPECT_EQ(writer.size(), 0u);
}

TEST(TraceIo, SaveLoadRoundTrip) {
  const auto events = capture_sobel(64);
  const std::string path =
      (std::filesystem::temp_directory_path() / "tm_test.trace").string();
  TraceWriter writer;
  for (const TraceEvent& ev : events) {
    ExecutionRecord rec;
    rec.opcode = ev.op();
    rec.unit = ev.fpu();
    rec.static_id = ev.static_id;
    rec.work_item = ev.work_item;
    rec.operands = ev.operands;
    writer.consume(rec);
  }
  writer.save(path);
  const auto loaded = load_trace(path);
  ASSERT_EQ(loaded.size(), events.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded[i].opcode, events[i].opcode);
    EXPECT_EQ(loaded[i].work_item, events[i].work_item);
    EXPECT_EQ(loaded[i].static_id, events[i].static_id);
    EXPECT_EQ(loaded[i].operands, events[i].operands);
  }
  std::remove(path.c_str());
}

TEST(TraceIo, RejectsCorruptFiles) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "tm_bad.trace").string();
  {
    std::ofstream os(path, std::ios::binary);
    os << "NOPE garbage";
  }
  EXPECT_THROW((void)load_trace(path), std::invalid_argument);
  std::remove(path.c_str());
  EXPECT_THROW((void)load_trace("/definitely/missing.trace"),
               std::invalid_argument);
}

// The binary reader validates the header against the actual file size
// before allocating anything (hardened in the static-analysis PR).
TEST(TraceIo, RejectsTruncatedAndOversizedHeaders) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "tm_hdr.trace").string();

  // A valid one-event trace to mutate.
  TraceWriter writer;
  ExecutionRecord rec;
  rec.opcode = FpOpcode::kMul;
  rec.unit = FpuType::kMul;
  rec.operands = {1.0f, 2.0f, 0.0f};
  writer.consume(rec);
  writer.save(path);
  const auto baseline = load_trace(path);
  ASSERT_EQ(baseline.size(), 1u);

  const auto write_bytes = [&](const std::string& bytes) {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };
  std::string valid;
  {
    std::ifstream is(path, std::ios::binary);
    valid.assign(std::istreambuf_iterator<char>(is),
                 std::istreambuf_iterator<char>());
  }

  // Header cut off mid-count.
  write_bytes(valid.substr(0, 10));
  EXPECT_THROW((void)load_trace(path), std::invalid_argument);

  // Payload truncated mid-event.
  write_bytes(valid.substr(0, valid.size() - 5));
  EXPECT_THROW((void)load_trace(path), std::invalid_argument);

  // Count inflated to an attacker-sized value without matching payload.
  {
    std::string bad = valid;
    bad[8] = '\xff';  // low byte of the little-endian u64 count
    bad[15] = '\x7f'; // high byte: ~2^63 events declared
    write_bytes(bad);
    EXPECT_THROW((void)load_trace(path), std::invalid_argument);
  }

  // Unsupported version.
  {
    std::string bad = valid;
    bad[4] = '\x09';
    write_bytes(bad);
    EXPECT_THROW((void)load_trace(path), std::invalid_argument);
  }

  // An event whose opcode or unit byte names no modeled opcode / FPU type
  // (the first two bytes of the event, which follows the 16-byte header).
  for (const std::size_t at : {16u, 17u}) {
    std::string bad = valid;
    bad[at] = '\x7f';
    write_bytes(bad);
    EXPECT_THROW((void)load_trace(path), std::invalid_argument);
  }

  // The unmutated bytes still load.
  write_bytes(valid);
  EXPECT_EQ(load_trace(path).size(), 1u);
  std::remove(path.c_str());
}

TEST(TraceReplay, MatchesLiveHitRate) {
  // Replaying the captured trace with the same constraint and depth must
  // reproduce the hit rate the live device measured.
  GpuDevice device(DeviceConfig::single_cu());
  device.program_threshold_as_mask(0.4f);
  TraceWriter writer(&device.sink());
  const Image face = make_face_image(96, 96);
  Image out(96, 96);
  const int wf = device.config().wavefront_size;
  for (std::size_t w = 0; w < face.size() / 64; ++w) {
    WavefrontCtx ctx(device.compute_unit(0), device.error_model(), &writer,
                     wf, static_cast<WorkItemId>(w) * 64, ~0ull);
    const LaneVec p = ctx.gather(face.pixels(), [](int, WorkItemId gid) {
      return static_cast<std::size_t>(gid);
    });
    const LaneVec r = ctx.mul(p, ctx.splat(0.5f));
    ctx.scatter(out.pixels(), r, [](int, WorkItemId gid) {
      return static_cast<std::size_t>(gid);
    });
  }
  const double live = device.weighted_hit_rate();
  const MatchConstraint c = MatchConstraint::masked(
      mask_ignoring_fraction_lsbs(fraction_lsbs_for_threshold(0.4f)));
  const ReplayStats replay = replay_trace(writer.events(), 2, c);
  EXPECT_NEAR(replay.hit_rate(), live, 1e-9);
}

TEST(TraceReplay, DeeperFifoNeverWorse) {
  const auto events = capture_sobel(96);
  const MatchConstraint exact = MatchConstraint::exact();
  double prev = -1.0;
  for (int depth : {1, 2, 4, 16}) {
    const ReplayStats s = replay_trace(events, depth, exact);
    EXPECT_GE(s.hit_rate(), prev);
    prev = s.hit_rate();
  }
}

TEST(TraceReplay, LooserConstraintNeverWorse) {
  const auto events = capture_sobel(96);
  double prev = -1.0;
  for (float t : {0.0f, 0.2f, 0.4f, 1.0f}) {
    const MatchConstraint c =
        t <= 0.0f ? MatchConstraint::exact()
                  : MatchConstraint::masked(mask_ignoring_fraction_lsbs(
                        fraction_lsbs_for_threshold(t)));
    const ReplayStats s = replay_trace(events, 2, c);
    EXPECT_GE(s.hit_rate() + 1e-12, prev) << "t=" << t;
    prev = s.hit_rate();
  }
}

TEST(TraceReplay, PerUnitStatsSumToTotal) {
  const auto events = capture_sobel(64);
  const ReplayStats s = replay_trace(events, 2, MatchConstraint::exact());
  std::uint64_t lookups = 0;
  for (const LutStats& u : s.per_unit) lookups += u.lookups;
  EXPECT_EQ(lookups, s.instructions);
}

} // namespace
} // namespace tmemo
