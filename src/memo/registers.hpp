// Memory-mapped configuration interface of the temporal-memoization module.
//
// The paper gives applications full control over the module "as a
// programmable module through the memory-mapped registers" (§4.2): a 32-bit
// masking-vector register selects exact vs. approximate matching, and the
// whole module can be power-gated when an application lacks value locality.
// This class models that register file: a word-addressed read/write port
// plus typed accessors used by the rest of the library.
#pragma once

#include <cstdint>

#include "common/bits.hpp"
#include "common/require.hpp"
#include "memo/match.hpp"

namespace tmemo {

/// Word offsets of the module's memory-mapped registers.
enum class MemoRegister : std::uint32_t {
  kMaskingVector = 0x0,  ///< 32-bit comparator mask (all ones = exact)
  kThreshold = 0x4,      ///< IEEE-754 bits of the numeric threshold
  kControl = 0x8,        ///< bit0: module enable; bit1: commutativity enable
  kStatusHits = 0xC,     ///< read-only: low 32 bits of the hit counter
};

/// Control-register bit assignments.
inline constexpr std::uint32_t kMemoCtrlEnable = 1u << 0;
inline constexpr std::uint32_t kMemoCtrlCommutativity = 1u << 1;

/// The register file. Reset state: enabled, commutativity on, exact
/// matching (mask = all ones, threshold = 0).
class MemoRegisterFile {
 public:
  /// MMIO-style word write.
  void write(MemoRegister reg, std::uint32_t value) {
    switch (reg) {
      case MemoRegister::kMaskingVector:
        masking_vector_ = value;
        break;
      case MemoRegister::kThreshold:
        threshold_bits_ = value;
        break;
      case MemoRegister::kControl:
        control_ = value;
        break;
      case MemoRegister::kStatusHits:
        TM_REQUIRE(false, "status register is read-only");
        return;
      default:
        TM_REQUIRE(false, "write to unmapped memoization register");
    }
    refresh_constraint();
  }

  /// MMIO-style word read.
  [[nodiscard]] std::uint32_t read(MemoRegister reg) const {
    switch (reg) {
      case MemoRegister::kMaskingVector: return masking_vector_;
      case MemoRegister::kThreshold:     return threshold_bits_;
      case MemoRegister::kControl:       return control_;
      case MemoRegister::kStatusHits:    return status_hits_;
    }
    TM_REQUIRE(false, "read from unmapped memoization register");
    return 0;
  }

  // -- Typed conveniences used by software layers ---------------------------

  /// Programs exact matching (all-ones mask, zero threshold).
  void program_exact() {
    masking_vector_ = 0xffffffffu;
    threshold_bits_ = float_to_bits(0.0f);
    refresh_constraint();
  }

  /// Programs approximate matching with an absolute Eq.-1 threshold: the
  /// comparators bound the numerical difference of each operand pair.
  void program_threshold(float threshold) {
    TM_REQUIRE(threshold >= 0.0f, "threshold must be non-negative");
    threshold_bits_ = float_to_bits(threshold);
    masking_vector_ =
        mask_ignoring_fraction_lsbs(fraction_lsbs_for_threshold(threshold));
    refresh_constraint();
  }

  /// Programs approximate matching the way §4.2 describes for the
  /// error-tolerant applications: derive a fraction-LSB masking vector from
  /// the threshold and compare bit-masked patterns ("ignore the differences
  /// of the operands in the less significant bits of the fraction part").
  /// This is a *relative* constraint — the ignored bits scale with the
  /// operand's exponent — which is what the hardware comparators compute.
  void program_threshold_as_mask(float threshold) {
    TM_REQUIRE(threshold >= 0.0f, "threshold must be non-negative");
    threshold_bits_ = float_to_bits(0.0f); // mask takes effect
    masking_vector_ =
        mask_ignoring_fraction_lsbs(fraction_lsbs_for_threshold(threshold));
    refresh_constraint();
  }

  void set_enabled(bool on) {
    control_ = on ? (control_ | kMemoCtrlEnable) : (control_ & ~kMemoCtrlEnable);
  }
  void set_commutativity(bool on) {
    control_ = on ? (control_ | kMemoCtrlCommutativity)
                  : (control_ & ~kMemoCtrlCommutativity);
    refresh_constraint();
  }

  [[nodiscard]] bool enabled() const noexcept {
    return (control_ & kMemoCtrlEnable) != 0;
  }
  [[nodiscard]] bool commutativity() const noexcept {
    return (control_ & kMemoCtrlCommutativity) != 0;
  }
  [[nodiscard]] float threshold() const noexcept {
    return bits_to_float(threshold_bits_);
  }
  [[nodiscard]] std::uint32_t masking_vector() const noexcept {
    return masking_vector_;
  }

  /// Current matching constraint implied by the registers. The numeric
  /// threshold takes precedence when programmed (software view); otherwise
  /// the raw masking vector is applied (hardware view). Rebuilt whenever a
  /// register it depends on is written, so reading it per lookup is free.
  [[nodiscard]] const MatchConstraint& constraint() const noexcept {
    return constraint_;
  }

  /// Hardware side: publishes the low bits of the hit counter.
  void latch_status_hits(std::uint64_t hits) noexcept {
    status_hits_ = static_cast<std::uint32_t>(hits);
  }

 private:
  void refresh_constraint() noexcept {
    constraint_ = threshold() > 0.0f
                      ? MatchConstraint::approximate(threshold())
                      : MatchConstraint::masked(masking_vector_);
    constraint_.set_allow_commutativity(commutativity());
  }

  MatchConstraint constraint_ = MatchConstraint::exact();
  std::uint32_t masking_vector_ = 0xffffffffu;
  std::uint32_t threshold_bits_ = 0;
  std::uint32_t control_ = kMemoCtrlEnable | kMemoCtrlCommutativity;
  std::uint32_t status_hits_ = 0;
};

} // namespace tmemo
