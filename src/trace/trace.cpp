#include "trace/trace.hpp"

#include <cstring>
#include <fstream>
#include <map>

#include "common/pod_io.hpp"
#include "common/require.hpp"
#include "fpu/semantics.hpp"
#include "io/atomic_file.hpp"

namespace tmemo {

// TraceEvent is serialized field by field (packed, kEventBytes per event),
// so its fields must stay fixed-width and trivially copyable even though
// the in-memory sizeof includes 4 tail-padding bytes (lint rule R9).
static_assert(std::is_trivially_copyable_v<TraceEvent> &&
                  sizeof(TraceEvent) == 32,
              "pod_io wire layout");

namespace {
constexpr char kMagic[4] = {'T', 'M', 'T', 'R'};
constexpr std::uint32_t kVersion = 1;

/// On-disk bytes per event: the fields below are written one by one, so
/// the layout is packed regardless of the in-memory struct padding.
constexpr std::uint64_t kEventBytes =
    sizeof(TraceEvent::opcode) + sizeof(TraceEvent::unit) +
    sizeof(TraceEvent::reserved) + sizeof(TraceEvent::static_id) +
    sizeof(TraceEvent::work_item) + sizeof(TraceEvent::operands);
constexpr std::uint64_t kHeaderBytes =
    sizeof(kMagic) + sizeof(std::uint32_t) + sizeof(std::uint64_t);

// write_pod/read_pod (the sanctioned R3 type-punning pair) moved to
// common/pod_io.hpp so the campaign worker pipe protocol can share them.
} // namespace

void TraceWriter::consume(const ExecutionRecord& rec) {
  TraceEvent ev;
  ev.opcode = static_cast<std::uint8_t>(rec.opcode);
  ev.unit = static_cast<std::uint8_t>(rec.unit);
  ev.static_id = rec.static_id;
  ev.work_item = rec.work_item;
  ev.operands = rec.operands;
  events_.push_back(ev);
  if (downstream_ != nullptr) downstream_->consume(rec);
}

void TraceWriter::save(const std::string& path) const {
  // Atomic commit (io/atomic_file.hpp): a binary trace truncated by a
  // crash or a full disk would still carry a plausible header, and the
  // reader's size check would blame the file, not the writer. The final
  // path only ever holds a complete, fsynced trace; any failure throws
  // io::IoError with the path and errno.
  io::AtomicFileWriter writer;
  writer.open(path);
  std::ostream& os = writer.stream();
  write_pod(os, kMagic);
  write_pod(os, kVersion);
  const std::uint64_t count = events_.size();
  write_pod(os, count);
  for (const TraceEvent& ev : events_) {
    write_pod(os, ev.opcode);
    write_pod(os, ev.unit);
    write_pod(os, ev.reserved);
    write_pod(os, ev.static_id);
    write_pod(os, ev.work_item);
    write_pod(os, ev.operands);
  }
  writer.commit();
}

std::vector<TraceEvent> load_trace(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  TM_REQUIRE(is.good(), "cannot open trace input file: " + path);
  return load_trace(is, path);
}

std::vector<TraceEvent> load_trace(std::istream& is, const std::string& path) {
  is.seekg(0, std::ios::end);
  const std::streamoff file_size = is.tellg();
  is.seekg(0, std::ios::beg);
  TM_REQUIRE(is.good() &&
                 file_size >= static_cast<std::streamoff>(kHeaderBytes),
             "trace file shorter than the TMTR header: " + path);

  char magic[4] = {};
  read_pod(is, magic);
  TM_REQUIRE(is.good() && std::memcmp(magic, kMagic, sizeof(kMagic)) == 0,
             "not a TMTR trace file: " + path);
  std::uint32_t version = 0;
  read_pod(is, version);
  TM_REQUIRE(is.good() && version == kVersion,
             "unsupported trace version " + std::to_string(version) +
                 " (expected " + std::to_string(kVersion) + "): " + path);
  std::uint64_t count = 0;
  read_pod(is, count);
  TM_REQUIRE(is.good(), "truncated trace header: " + path);

  // Validate the declared event count against the actual payload size
  // BEFORE allocating: a corrupt or hostile header must not trigger a
  // multi-gigabyte reserve() or silently yield a truncated trace.
  const std::uint64_t payload =
      static_cast<std::uint64_t>(file_size) - kHeaderBytes;
  // Divide instead of multiplying so a hostile count cannot overflow.
  TM_REQUIRE(payload % kEventBytes == 0 && count == payload / kEventBytes,
             "trace payload is " + std::to_string(payload) +
                 " bytes but the header declares " + std::to_string(count) +
                 " events of " + std::to_string(kEventBytes) +
                 " bytes each: " + path);

  std::vector<TraceEvent> events;
  events.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    TraceEvent ev;
    read_pod(is, ev.opcode);
    read_pod(is, ev.unit);
    read_pod(is, ev.reserved);
    read_pod(is, ev.static_id);
    read_pod(is, ev.work_item);
    read_pod(is, ev.operands);
    TM_REQUIRE(is.good(), "truncated trace file: " + path);
    TM_REQUIRE(ev.opcode < kNumFpOpcodes && ev.unit < kNumFpuTypes,
               "trace event with an unknown opcode or unit: " + path);
    events.push_back(ev);
  }
  return events;
}

ReplayStats replay_trace(const std::vector<TraceEvent>& events,
                         int lut_depth, const MatchConstraint& constraint,
                         int stream_cores) {
  TM_REQUIRE(stream_cores >= 1, "need at least one stream core");
  ReplayStats stats;
  // (sc, pe, unit) -> LUT, materialized lazily.
  std::map<std::tuple<int, int, int>, MemoLut> luts;

  for (const TraceEvent& ev : events) {
    const FpInstruction ins = ev.instruction();
    const FpuType unit = ev.fpu();
    const int sc = static_cast<int>(
        ev.work_item % static_cast<std::uint64_t>(stream_cores));
    const int pe = StreamCore::vliw_slot(unit, ev.static_id);
    auto [it, inserted] = luts.try_emplace(
        std::make_tuple(sc, pe, static_cast<int>(unit)), lut_depth);
    MemoLut& lut = it->second;

    ++stats.instructions;
    if (lut.lookup(ins, constraint).has_value()) {
      ++stats.hits;
    } else {
      lut.update(ins, evaluate_fp_op(ins));
    }
  }

  // Fold per-LUT stats into per-unit totals.
  for (const auto& [key, lut] : luts) {
    stats.per_unit[static_cast<std::size_t>(std::get<2>(key))] += lut.stats();
  }
  return stats;
}

} // namespace tmemo
