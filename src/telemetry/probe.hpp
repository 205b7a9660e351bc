// Probe hooks: the zero-overhead-when-off instrumentation seam between the
// hot device model (gpu/, memo/, timing/) and the telemetry collector.
//
// Design contract (docs/OBSERVABILITY.md):
//  * A probe site is a `ProbeSink*` member that defaults to nullptr plus a
//    `TMEMO_TELEM(sink, event)` emission. With no sink attached the site is
//    one perfectly predicted null-check branch; compiled with
//    -DTMEMO_TELEMETRY_DISABLED the macro expands to nothing at all, so the
//    event-construction expression is never evaluated.
//  * This header is dependency-free (only <cstdint>) so the innermost
//    layers — timing/ecu.hpp, memo/resilient_fpu.hpp — can include it
//    without creating a link-time dependency on tm_telemetry.
//  * ProbeEvent is a 16-byte POD passed by value. Emission order within one
//    instruction transaction is fixed (lookup, error, action, retire), which
//    is what lets the collector rebuild per-op state deterministically.
//  * A vector instruction none of whose lanes can raise an ordered event —
//    the unit's error probability is 0, no fault injection or watchdog is
//    armed, spatial memoization is off — is *batched*: the compute unit
//    makes one on_wavefront() call carrying lane masks instead of one
//    kWavefrontIssue plus a lookup, LUT-write and retire event per lane.
//    The default on_wavefront() expands the masks into exactly those
//    events, in lane order, so a sink that overrides only on_event sees the
//    same stream either way; TelemetryCollector folds the masks directly.
#pragma once

#include <bit>
#include <cstdint>

namespace tmemo::telemetry {

/// One observation from a hot execution path. `value` is kind-specific:
/// lanes for kWavefrontIssue, recovery cycles for kEcuReplay, latency
/// cycles for kOpRetired, and unused (0) otherwise. For kOpRetired, `aux`
/// carries the MemoAction that resolved the instruction.
struct ProbeEvent {
  enum class Kind : std::uint8_t {
    kWavefrontIssue, ///< one static vector instruction issued on a CU
    kLutHit,         ///< temporal LUT satisfied the matching constraint
    kLutMiss,        ///< LUT lookup performed, no matching entry
    kLutWrite,       ///< W_en fired (error-free miss wrote the FIFO)
    kEdsError,       ///< EDS sensors flagged a timing violation
    kErrorMasked,    ///< the {hit,error} state suppressed the ECU signal
    kEcuReplay,      ///< ECU flush-and-replay recovery sequence
    kSpatialReuse,   ///< lane served by the cross-lane broadcast network
    kOpRetired,      ///< one dynamic instruction committed
    // Fault-injection events (src/inject/, docs/FAULT_INJECTION.md). Only
    // emitted when injection is configured on; `value` carries the count
    // for the batched kinds (flips, drops) and is 0 otherwise.
    kLutSeuFlip,        ///< SEU bit flips landed in live LUT entries
    kLutParityDrop,     ///< corrupt LUT lines invalidated by parity
    kEdsFalseNegative,  ///< real violation, sensor flag suppressed
    kEdsFalsePositive,  ///< spurious sensor flag, wasted recovery
    kWatchdogTrip,      ///< replay-storm watchdog degraded the FPU
    kSdcCommit,         ///< silently corrupted value architecturally committed
  };

  Kind kind = Kind::kOpRetired;
  std::uint8_t unit = 0;  ///< FpuType index of the executing unit
  std::uint8_t aux = 0;   ///< kind-specific (MemoAction for kOpRetired)
  std::uint16_t core = 0; ///< stream core within the compute unit
  std::uint32_t cu = 0;   ///< compute unit
  std::uint64_t value = 0;
};

/// One batched vector instruction on one compute unit (see the contract
/// above). Bit i of each mask is lane i, which runs on stream core
/// i % `cores`. Every active lane retires with latency `depth`, through
/// MemoAction kReuse if its `hit` bit is set and kNormalExecution if not.
struct WavefrontEvents {
  /// The kOpRetired `aux` bytes (MemoAction values) of a batched lane.
  static constexpr std::uint8_t kNormalExecution = 0;
  static constexpr std::uint8_t kReuse = 2;

  std::uint32_t cu = 0;
  std::uint8_t unit = 0;    ///< FpuType index of the executing unit
  std::uint8_t depth = 0;   ///< pipeline depth of the unit
  std::uint16_t cores = 1;  ///< stream cores per compute unit
  std::uint64_t active = 0; ///< lanes issued
  std::uint64_t lookup = 0; ///< lanes whose module was powered: kLutHit/Miss
  std::uint64_t hit = 0;    ///< lanes served from the LUT: kLutHit
  std::uint64_t write = 0;  ///< lanes whose miss wrote the LUT: kLutWrite
};

/// Receiver of probe events. Implementations (TelemetryCollector) are
/// attached per run and must not be shared across concurrently running
/// devices.
class ProbeSink {
 public:
  virtual ~ProbeSink() = default;
  virtual void on_event(const ProbeEvent& event) = 0;

  /// One batched instruction. By default, the events an unbatched issue of
  /// it would have raised, in the same order.
  virtual void on_wavefront(const WavefrontEvents& w) {
    using Kind = ProbeEvent::Kind;
    on_event({Kind::kWavefrontIssue, w.unit, 0, 0, w.cu,
              static_cast<std::uint64_t>(std::popcount(w.active))});
    for (std::uint64_t lanes = w.active; lanes != 0; lanes &= lanes - 1) {
      const int lane = std::countr_zero(lanes);
      const std::uint64_t bit = 1ull << lane;
      const auto core = static_cast<std::uint16_t>(lane % w.cores);
      const bool hit = (w.hit & bit) != 0;
      if ((w.lookup & bit) != 0) {
        on_event({hit ? Kind::kLutHit : Kind::kLutMiss, w.unit, 0, core, w.cu,
                  0});
      }
      if ((w.write & bit) != 0) {
        on_event({Kind::kLutWrite, w.unit, 0, core, w.cu, 0});
      }
      on_event({Kind::kOpRetired, w.unit,
                hit ? WavefrontEvents::kReuse
                    : WavefrontEvents::kNormalExecution,
                core, w.cu, w.depth});
    }
  }
};

} // namespace tmemo::telemetry

// The emission macro. `...` is the ProbeEvent construction expression; it
// is only evaluated when a sink is attached, and not even compiled when
// telemetry is disabled at build time (the CI overhead job builds both
// flavors and compares them).
#if defined(TMEMO_TELEMETRY_DISABLED)
// sizeof keeps the operands referenced (no unused-parameter warnings) while
// guaranteeing they are never evaluated: zero code is generated.
#define TMEMO_TELEM(sink, ...)   \
  do {                           \
    (void)sizeof((sink));        \
    (void)sizeof((__VA_ARGS__)); \
  } while (false)
#define TMEMO_TELEM_ATTACHED(sink) ((void)sizeof((sink)), false)
#else
#define TMEMO_TELEM(sink, ...)       \
  do {                               \
    if ((sink) != nullptr) {         \
      (sink)->on_event(__VA_ARGS__); \
    }                                \
  } while (false)
/// True when a sink is attached (and never when telemetry is compiled out):
/// the guard of a site that emits something other than one ProbeEvent.
#define TMEMO_TELEM_ATTACHED(sink) ((sink) != nullptr)
#endif
