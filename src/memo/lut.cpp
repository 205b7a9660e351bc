#include "memo/lut.hpp"

#include "common/bits.hpp"

namespace tmemo {

MemoLut::MemoLut(int depth) : depth_(depth) {
  TM_REQUIRE(depth >= 1 && depth <= 4096, "LUT depth out of range");
  if (depth > kInlineDepth) {
    heap_ = std::make_unique<LutEntry[]>(static_cast<std::size_t>(depth));
  }
}

void MemoLut::drop_parity_failures() noexcept {
  // The comparator bank reads every line each lookup, so the per-entry
  // parity bit is checked on all of them; lines whose stored bits no longer
  // match parity (odd flip count) are invalidated before matching. An even
  // flip count restores parity and escapes, as in real hardware. Survivors
  // are compacted newest-first in place: the write position never passes
  // the read position.
  int kept = 0;
  for (int i = 0; i < size_; ++i) {
    if (line(i).seu_flips % 2 != 0) {
      ++stats_.parity_invalidations;
      continue;
    }
    if (kept != i) line(kept) = line(i);
    ++kept;
  }
  size_ = kept;
}

void MemoLut::corrupt_bit(int entry_index, int word, int bit) {
  TM_REQUIRE(entry_index >= 0 && entry_index < size(),
             "corrupt_bit entry index out of range");
  TM_REQUIRE(word >= 0 && word <= kMaxOperands,
             "corrupt_bit word out of range");
  TM_REQUIRE(bit >= 0 && bit < 32, "corrupt_bit bit out of range");
  LutEntry& entry = line(entry_index);
  const std::uint32_t mask = 1u << bit;
  if (word < kMaxOperands) {
    float& w = entry.operands[static_cast<std::size_t>(word)];
    w = bits_to_float(float_to_bits(w) ^ mask);
  } else {
    entry.result = bits_to_float(float_to_bits(entry.result) ^ mask);
  }
  if (entry.seu_flips < 255) ++entry.seu_flips;
}

} // namespace tmemo
