// The single-cycle memoization lookup table (paper §4.2, Fig. 9 bottom).
//
// Structure: a small FIFO (two entries in the paper's final design) in
// which every entry holds a set of input operands together with the result
// computed by the FPU's last stage (Q_S), plus a bank of parallel
// combinational comparators that evaluate the matching constraint against
// all entries concurrently in one cycle.
//
// Replacement is strict FIFO (paper: "the FIFO will be updated by cleaning
// its last entry and inserting the new incoming operands accordingly") —
// not LRU: a hit does not reorder entries.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>

#include "common/require.hpp"
#include "fpu/instruction.hpp"
#include "memo/match.hpp"

namespace tmemo {

/// One FIFO entry: memorized operands and the memorized result (Q_S of an
/// error-free execution).
struct LutEntry {
  FpOpcode opcode = FpOpcode::kAdd;
  std::array<float, kMaxOperands> operands{0.0f, 0.0f, 0.0f};
  float result = 0.0f;
  /// SEU bookkeeping (src/inject/): bit flips this entry has absorbed since
  /// it was written. The modeled parity bit catches odd counts only, like
  /// real single-parity SRAM. Saturates at 255 (far beyond any plausible
  /// accumulation before eviction).
  std::uint8_t seu_flips = 0;

  [[nodiscard]] bool corrupted() const noexcept { return seu_flips != 0; }
};

/// Cumulative LUT statistics.
struct LutStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t updates = 0;
  std::uint64_t parity_invalidations = 0;  ///< corrupt lines dropped on read
  std::uint64_t corrupt_hits = 0;          ///< hits served from flipped lines

  [[nodiscard]] double hit_rate() const noexcept {
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }

  LutStats& operator+=(const LutStats& o) noexcept {
    lookups += o.lookups;
    hits += o.hits;
    updates += o.updates;
    parity_invalidations += o.parity_invalidations;
    corrupt_hits += o.corrupt_hits;
    return *this;
  }
};

/// The per-FPU memoization LUT: a ring of `depth` lines. Up to the paper's
/// depth of 2 the lines live inside the object, so a lookup touches no
/// memory beyond the owning FPU; deeper FIFOs (the fifo_size_sweep study)
/// use one heap buffer.
class MemoLut {
 public:
  /// `depth` is the number of FIFO entries; the paper settles on 2 after
  /// the sensitivity study in §4.1 (reproduced by bench/fifo_size_sweep).
  explicit MemoLut(int depth = 2);

  [[nodiscard]] int depth() const noexcept { return depth_; }
  [[nodiscard]] int size() const noexcept { return size_; }

  /// Outcome of one associative lookup, including whether the matched line
  /// had absorbed SEU flips (the consumer decides whether a corrupt reuse
  /// counts as silent data corruption).
  struct LookupResult {
    bool hit = false;
    float value = 0.0f;
    bool corrupted = false;
  };

  /// Single-cycle associative lookup: returns the memorized result of the
  /// first (newest-first) entry whose opcode matches exactly and whose
  /// operands satisfy `constraint`, or nullopt on a miss. Counts stats.
  [[nodiscard]] std::optional<float> lookup(const FpInstruction& ins,
                                            const MatchConstraint& constraint) {
    const LookupResult res = lookup_checked(ins, constraint);
    if (!res.hit) return std::nullopt;
    return res.value;
  }

  /// lookup() plus fault metadata. When parity protection is on, every
  /// lookup first invalidates lines whose stored bits no longer match their
  /// parity bit (odd flip counts; the comparator bank reads all lines each
  /// cycle, so the check is free) and counts them in
  /// LutStats::parity_invalidations.
  [[nodiscard]] LookupResult lookup_checked(const FpInstruction& ins,
                                            const MatchConstraint& constraint) {
    ++stats_.lookups;
    if (parity_protected_) drop_parity_failures();
    for (int i = 0; i < size_; ++i) {
      const LutEntry& entry = line(i);
      if (entry.opcode == ins.opcode &&
          constraint.operands_match(ins.opcode, entry.operands,
                                    ins.operands)) {
        ++stats_.hits;
        if (entry.corrupted()) ++stats_.corrupt_hits;
        return {true, entry.result, entry.corrupted()};
      }
    }
    return {};
  }

  /// Inserts an error-free execution context (operands -> result) at the
  /// head of the FIFO, evicting the oldest entry when full. This models the
  /// W_en-gated write driven by the error-free completion of the FPU's last
  /// stage.
  void update(const FpInstruction& ins, float result) {
    // Written field by field into the line: a temporary entry copied
    // whole would stall on store forwarding.
    LutEntry& line = push();
    line.opcode = ins.opcode;
    line.operands = ins.operands;
    line.result = result;
    line.seu_flips = 0;
    ++stats_.updates;
  }

  /// Preloads an entry (paper §4.2: compilers / domain experts "can also
  /// store pre-computed values in the LUT to use the most probable or
  /// critical results"). Identical to update() but not counted as one.
  void preload(const LutEntry& entry) { push() = entry; }

  /// Drops all entries (power-gating the module clears its state).
  void clear() noexcept { size_ = 0; }

  /// Fault-injection seam (src/inject/lut_injector.hpp): flips one bit of
  /// one stored word of the entry at `entry_index` (0 = newest). `word`
  /// selects operand 0..kMaxOperands-1 or, at kMaxOperands, the result;
  /// `bit` is the IEEE-754 bit position 0..31.
  void corrupt_bit(int entry_index, int word, int bit);

  /// Hardening knob: per-entry parity checked on every lookup (see
  /// lookup_checked()). Off by default; zero cost while off.
  void set_parity_protected(bool on) noexcept { parity_protected_ = on; }
  [[nodiscard]] bool parity_protected() const noexcept {
    return parity_protected_;
  }

  [[nodiscard]] const LutStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }

  /// Newest-first view of the live entries, read in place (tests and
  /// inspection): size(), operator[], front() and range-for.
  struct Entries {
    struct Iterator {
      const MemoLut* lut;
      int i;
      const LutEntry& operator*() const { return lut->line(i); }
      Iterator& operator++() noexcept {
        ++i;
        return *this;
      }
      bool operator==(const Iterator&) const = default;
    };
    [[nodiscard]] std::size_t size() const noexcept {
      return static_cast<std::size_t>(lut->size_);
    }
    const LutEntry& operator[](std::size_t i) const {
      TM_REQUIRE(i < size(), "LUT entry index out of range");
      return lut->line(static_cast<int>(i));
    }
    [[nodiscard]] const LutEntry& front() const { return (*this)[0]; }
    [[nodiscard]] Iterator begin() const noexcept { return {lut, 0}; }
    [[nodiscard]] Iterator end() const noexcept { return {lut, lut->size_}; }

    const MemoLut* lut;
  };
  [[nodiscard]] Entries entries() const noexcept { return Entries{this}; }

 private:
  static constexpr int kInlineDepth = 2;  ///< depths stored inline

  [[nodiscard]] LutEntry* lines() noexcept {
    return depth_ <= kInlineDepth ? inline_.data() : heap_.get();
  }
  /// The i-th newest live line (0 = newest).
  [[nodiscard]] LutEntry& line(int i) noexcept {
    const int slot = head_ - i;
    return lines()[slot < 0 ? slot + depth_ : slot];
  }
  [[nodiscard]] const LutEntry& line(int i) const noexcept {
    return const_cast<MemoLut*>(this)->line(i);
  }

  /// Claims the line for a new newest entry, evicting the oldest if full.
  LutEntry& push() noexcept {
    head_ = head_ + 1 == depth_ ? 0 : head_ + 1;
    if (size_ < depth_) ++size_;
    return lines()[head_];
  }

  /// Parity check of every live line: drops odd-flip lines, keeping the
  /// survivors in FIFO order.
  void drop_parity_failures() noexcept;

  int depth_;
  int size_ = 0;
  int head_ = 0;  ///< slot of the newest line
  bool parity_protected_ = false;
  std::array<LutEntry, kInlineDepth> inline_{};
  LutStats stats_;
  std::unique_ptr<LutEntry[]> heap_;  ///< lines when depth > kInlineDepth
};

} // namespace tmemo
