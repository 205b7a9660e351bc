// Nonblocking TCP transport of the distributed campaign fabric
// (docs/DISTRIBUTED.md).
//
// Deliberately thin: a Listener that accepts nonblocking connections for
// the supervisor's poll() loop, and a blocking connect for tmemo_workerd.
// Framing lives in net/frame.hpp; campaign semantics live with the
// supervisor (sim/worker_proc.cpp). Addresses resolve through getaddrinfo,
// so "127.0.0.1:7777", "localhost:7777" and "[::1]:7777" all work. All
// syscalls are result-checked with EINTR retry (lint rule R10). POSIX only.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace tmemo::net {

/// A parsed "HOST:PORT" endpoint.
struct HostPort {
  std::string host;
  std::uint16_t port = 0;
};

/// Parses "HOST:PORT" ("127.0.0.1:7777", "localhost:7777", "[::1]:7777").
/// Port 0 is accepted only when `allow_ephemeral` (tests and benches bind
/// an OS-chosen port; an operator-facing CLI wants an explicit one).
/// Returns nullopt on malformed input.
[[nodiscard]] std::optional<HostPort> parse_host_port(
    std::string_view text, bool allow_ephemeral = false);

/// Listening TCP socket for the campaign supervisor. The listener fd and
/// every accepted connection are O_NONBLOCK, ready for one poll() loop.
class Listener {
 public:
  Listener() = default;
  ~Listener();
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Binds and listens. Throws std::runtime_error with the failing
  /// endpoint and errno text on any failure. Port 0 binds an OS-chosen
  /// port (see bound_port).
  void open(const HostPort& at);

  [[nodiscard]] bool is_open() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int fd() const noexcept { return fd_; }
  /// The actually bound port (resolves port-0 binds).
  [[nodiscard]] std::uint16_t bound_port() const noexcept { return port_; }

  /// Accepts one pending connection, returning its fd (nonblocking, with
  /// TCP_NODELAY set), or -1 when none is pending or the accept or its
  /// socket options failed.
  [[nodiscard]] int accept_one();

  void close_listener();

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Blocking TCP connect with a wall-clock budget. Returns the connected fd
/// (blocking mode, TCP_NODELAY set), or -1 with a diagnostic in `error`.
/// Each resolved address gets up to `timeout_ms` before the next is tried.
[[nodiscard]] int connect_to(const HostPort& to, int timeout_ms,
                             std::string& error);

/// RAII SIGPIPE suppression for fabric code that writes to peers which may
/// vanish mid-frame. Both ends need it: the supervisor writing to a dead
/// worker and workerd writing to a dead supervisor must see EPIPE from
/// ::write (handled as "connection lost") instead of dying by signal.
/// Restores the previous disposition on destruction.
class ScopedIgnoreSigpipe {
 public:
  ScopedIgnoreSigpipe();
  ~ScopedIgnoreSigpipe();
  ScopedIgnoreSigpipe(const ScopedIgnoreSigpipe&) = delete;
  ScopedIgnoreSigpipe& operator=(const ScopedIgnoreSigpipe&) = delete;

 private:
  bool restore_ = false;
  // Opaque storage for the previous struct sigaction; kept out of the
  // header so <csignal> details don't leak to every includer.
  alignas(16) unsigned char prev_[160] = {};
};

} // namespace tmemo::net
