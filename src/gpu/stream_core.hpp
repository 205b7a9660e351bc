// One Evergreen stream core (SC): five processing elements (X, Y, Z, W, T)
// forming the ALU engine, each with a pool of pipelined FP units. Every FPU
// instance carries its own EDS sensors, ECU and temporal-memoization LUT —
// the paper's "scalable and independent recovery of individual FPUs".
//
// VLIW slot steering is static, as a compiler would do it: transcendental
// opcodes go to the T element; all other opcodes go to X/Y/Z/W selected by
// the static instruction index modulo four. Static steering keeps the
// operand stream of one static instruction on one physical FPU across all
// work-items of a wavefront, which is precisely the "congested temporal
// value locality" the memoization LUT exploits (paper §4.1).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "fpu/instruction.hpp"
#include "gpu/device_config.hpp"
#include "memo/resilient_fpu.hpp"
#include "timing/error_model.hpp"

namespace tmemo {

class StreamCore {
 public:
  /// `seed` individualizes the EDS streams of this core's FPUs.
  StreamCore(const ResilientFpuConfig& fpu_config, std::uint64_t seed);

  /// Routes one dynamic instruction to the proper PE/FPU and executes it.
  ExecutionRecord execute(const FpInstruction& ins,
                          const TimingErrorModel& errors) {
    const FpuType unit = ins.unit();
    const auto pe = static_cast<std::size_t>(vliw_slot(unit, ins.static_id));
    return fpus_[slots_[pe][static_cast<std::size_t>(unit)]].execute(ins,
                                                                     errors);
  }

  /// The PE slot a static instruction is steered to.
  [[nodiscard]] static int vliw_slot(FpuType unit,
                                     StaticInstrId static_id) noexcept {
    if (fpu_type_is_transcendental(unit)) return kPeT;
    return static_cast<int>(static_id % 4u);
  }

  /// Applies `fn` to every FPU instance of this core, in [pe][unit] order.
  template <typename Fn>
  void for_each_fpu(Fn&& fn) {
    for (ResilientFpu& f : fpus_) fn(f);
  }
  template <typename Fn>
  void for_each_fpu(Fn&& fn) const {
    for (const ResilientFpu& f : fpus_) fn(f);
  }

  /// Direct access for tests: the FPU of `unit` on PE `pe`.
  [[nodiscard]] ResilientFpu& fpu(int pe, FpuType unit);

  /// Attaches (nullptr detaches) a telemetry sink to every FPU of this
  /// core; `cu`/`core` give the core's device coordinates.
  void set_probe(telemetry::ProbeSink* sink, std::uint32_t cu,
                 std::uint16_t core);

 private:
  /// Index into fpus_ of each (pe, unit), kNoFpu where the unit does not
  /// exist on that PE: transcendental units only exist on T,
  /// non-transcendental units are replicated on X/Y/Z/W.
  static constexpr std::uint8_t kNoFpu = 0xff;
  std::array<std::array<std::uint8_t, kNumFpuTypes>, kPeCount> slots_{};
  std::vector<ResilientFpu> fpus_;  ///< by value, in [pe][unit] order
};

} // namespace tmemo
