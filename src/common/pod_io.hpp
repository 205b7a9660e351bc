// Byte-serialization of trivially copyable values.
//
// write_pod/read_pod are the repo's only sanctioned reinterpret_cast type
// punning (lint rule R3): everything else must use tmemo::float_to_bits /
// std::bit_cast. They started life inside src/trace/trace.cpp; the campaign
// worker protocol (net/frame.hpp) serializes its length-prefixed messages
// through the same pair, so they live here now.
//
// Byte order is host order — trace files and local worker sockets are
// same-machine channels, and the TCP fabric assumes a same-ABI cluster.
#pragma once

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <type_traits>

namespace tmemo {

/// Length prefix of every worker-protocol frame (net/frame.hpp): one
/// fixed-width field, so both ends of a local socketpair or a TCP
/// connection agree on the frame boundary byte-for-byte.
struct FrameHeader {
  std::uint32_t len = 0;  ///< payload byte count, host order
};
static_assert(std::is_trivially_copyable_v<FrameHeader> &&
                  sizeof(FrameHeader) == 4,
              "pod_io wire layout");

// The only sanctioned reinterpret_cast type punning in the tree (lint rule
// R3): byte-serialization of trivially copyable values.
template <typename T>
void write_pod(std::ostream& os, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>,
                "write_pod requires a trivially copyable type");
  os.write(reinterpret_cast<const char*>(&v), sizeof v);
}

template <typename T>
void read_pod(std::istream& is, T& v) {
  static_assert(std::is_trivially_copyable_v<T>,
                "read_pod requires a trivially copyable type");
  is.read(reinterpret_cast<char*>(&v), sizeof v);
}

/// Length-prefixed string (u64 byte count + raw bytes), the variable-size
/// companion of write_pod for pipe messages.
inline void write_sized_string(std::ostream& os, const std::string& s) {
  const std::uint64_t n = s.size();
  write_pod(os, n);
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

/// Reads a string written by write_sized_string. Returns false (leaving
/// `out` unspecified) when the stream ends early or the declared length
/// exceeds `max_bytes` — a corrupt or hostile length prefix must not
/// trigger a huge allocation.
inline bool read_sized_string(std::istream& is, std::string& out,
                              std::uint64_t max_bytes = 1ull << 30) {
  std::uint64_t n = 0;
  read_pod(is, n);
  if (!is.good() || n > max_bytes) return false;
  out.assign(static_cast<std::size_t>(n), '\0');
  is.read(out.data(), static_cast<std::streamsize>(n));
  return is.good() || (n == 0 && !is.bad());
}

} // namespace tmemo
