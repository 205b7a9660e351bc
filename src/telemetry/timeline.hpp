// Per-run event timeline, exportable as Chrome trace_event JSON.
//
// The timeline records what happened *when* in simulation time: one
// complete ("X") span per static vector instruction per compute unit,
// instant ("i") marks for EDS errors and ECU replays, and counter ("C")
// series for LUT hits/misses. Timestamps are simulation ticks (committed
// dynamic instructions), not wall time — the timeline of a run is as
// deterministic as its metrics.
//
// The exported file loads directly in chrome://tracing or
// https://ui.perfetto.dev (docs/OBSERVABILITY.md has the walkthrough):
// compute units render as processes, stream cores as threads.
//
// Event storage is capped: past `max_events` new events are counted as
// dropped rather than accumulated, so tracing a multi-million-instruction
// run degrades gracefully instead of exhausting memory.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace tmemo::telemetry {

/// One trace_event entry. Only the fields the repo emits are modeled.
struct TimelineEvent {
  enum class Phase : char {
    kComplete = 'X', ///< span: ts + dur
    kInstant = 'i',  ///< point mark
    kCounter = 'C',  ///< counter sample (args hold the series values)
  };

  Phase phase = Phase::kInstant;
  std::string name;
  std::string category;
  std::uint32_t pid = 0; ///< compute unit
  std::uint32_t tid = 0; ///< stream core (0 for CU-wide events)
  std::uint64_t ts = 0;  ///< simulation ticks
  std::uint64_t dur = 0; ///< kComplete only
  std::vector<std::pair<std::string, std::uint64_t>> args;
};

class Timeline {
 public:
  static constexpr std::size_t kDefaultMaxEvents = 250000;

  explicit Timeline(std::size_t max_events = kDefaultMaxEvents)
      : max_events_(max_events) {}

  /// Labels a pid (compute unit) in the trace viewer's process list.
  void set_process_name(std::uint32_t pid, std::string name);

  void complete(TimelineEvent event) { push(std::move(event)); }
  void instant(TimelineEvent event) { push(std::move(event)); }
  void counter(TimelineEvent event) { push(std::move(event)); }

  [[nodiscard]] const std::vector<TimelineEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] const std::vector<std::pair<std::uint32_t, std::string>>&
  process_names() const noexcept {
    return process_names_;
  }
  /// True once the cap is reached: every further event is dropped, so a
  /// caller may skip building it and call drop() instead.
  [[nodiscard]] bool full() const noexcept {
    return events_.size() >= max_events_;
  }
  /// Counts `n` events as dropped without being handed them.
  void drop(std::uint64_t n = 1) noexcept { dropped_ += n; }

  /// Events discarded after the cap was reached.
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  [[nodiscard]] std::size_t max_events() const noexcept { return max_events_; }

 private:
  void push(TimelineEvent&& event) {
    if (full()) {
      drop();
      return;
    }
    events_.push_back(std::move(event));
  }

  std::size_t max_events_;
  std::vector<TimelineEvent> events_;
  std::vector<std::pair<std::uint32_t, std::string>> process_names_;
  std::uint64_t dropped_ = 0;
};

/// Serializes the timeline as a Chrome trace_event JSON object
/// (`{"traceEvents": [...], ...}` form). Output is deterministic: events in
/// recording order, metadata first.
void write_chrome_trace(const Timeline& timeline, std::ostream& os);

} // namespace tmemo::telemetry
