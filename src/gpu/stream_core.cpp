#include "gpu/stream_core.hpp"

#include "common/require.hpp"
#include "common/rng.hpp"

namespace tmemo {

StreamCore::StreamCore(const ResilientFpuConfig& fpu_config,
                       std::uint64_t seed) {
  for (auto& pe : slots_) pe.fill(kNoFpu);
  // X/Y/Z/W each hold the non-transcendental units, T the four others.
  constexpr int kTranscendental = 4;
  fpus_.reserve(static_cast<std::size_t>(
      kPeT * (kNumFpuTypes - kTranscendental) + kTranscendental));
  for (int pe = 0; pe < kPeCount; ++pe) {
    for (FpuType unit : kAllFpuTypes) {
      const bool trans = fpu_type_is_transcendental(unit);
      if (trans != (pe == kPeT)) continue;
      ResilientFpuConfig cfg = fpu_config;
      cfg.eds_seed = mix_seed(
          seed, static_cast<std::uint64_t>(pe) * 64u +
                    static_cast<std::uint64_t>(unit));
      slots_[static_cast<std::size_t>(pe)][static_cast<std::size_t>(unit)] =
          static_cast<std::uint8_t>(fpus_.size());
      fpus_.emplace_back(unit, cfg);
    }
  }
}

void StreamCore::set_probe(telemetry::ProbeSink* sink, std::uint32_t cu,
                           std::uint16_t core) {
  for_each_fpu([=](ResilientFpu& f) { f.set_probe(sink, cu, core); });
}

ResilientFpu& StreamCore::fpu(int pe, FpuType unit) {
  TM_REQUIRE(pe >= 0 && pe < kPeCount, "PE index out of range");
  const std::uint8_t i =
      slots_[static_cast<std::size_t>(pe)][static_cast<std::size_t>(unit)];
  TM_REQUIRE(i != kNoFpu, "unit does not exist on this PE");
  return fpus_[i];
}

} // namespace tmemo
