// Process- and remote-isolated campaign worker pool (docs/RESILIENCE.md,
// docs/DISTRIBUTED.md).
//
// The thread pool in campaign.cpp is the fast default, but one SIGSEGV,
// abort() or OOM-kill inside a job takes the whole campaign — and its
// journal — with it. run_process_pool trades a fork() per worker for
// containment: a supervisor (the calling thread; it stays single-threaded,
// which keeps fork() safe under TSan) forks N workers, feeds each one jobs
// over its own socketpair() in a length-prefixed frame protocol
// (net/frame.hpp), and turns every way a worker can die — signal, nonzero
// exit, clean exit without replying, blown hard timeout — into a decoded
// JobResult::error while every other job completes. Crashed in-flight jobs
// are re-dispatched under the retry budget, replacement workers are forked
// with bounded backoff, and the whole campaign remains bit-identical to
// thread isolation (wall_ms aside) because nothing but the job index and
// attempt number crosses the socket: each worker rebuilds spec/workloads
// from the inherited address space, exactly like a worker thread would.
//
// The same supervisor also runs the distributed fabric: given a
// net::Listener it accepts tmemo_workerd TCP connections, validates each
// peer's HelloFrame registration (protocol version, campaign digest, job
// count), and then multiplexes TCP workers and forked local workers in
// the *same* poll() loop. Both kinds run the *same* session loop
// (serve_worker_session); a forked worker merely skips the handshake. A
// lost connection maps into the crash taxonomy exactly like a dead forked
// worker: the in-flight job is re-dispatched at attempt+1 under the retry
// budget. Remote workers rebuild spec/workloads from their own command
// line (tools/workerd/); the handshake digest catches drift.
//
// Frame grammar: net/frame.hpp. POSIX only (fork/socketpair/poll/waitpid +
// sockets).
#pragma once

#include <csignal>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/fault.hpp"
#include "sim/campaign.hpp"

namespace tmemo {

namespace net {
class Listener; // net/transport.hpp
}

/// The non-restored slice of a campaign, handed to the process supervisor
/// by CampaignEngine::run. `spec` and `jobs` must outlive the call.
struct ProcessPoolRequest {
  const SweepSpec* spec = nullptr;
  const std::vector<CampaignJob>* jobs = nullptr;
  /// Indices into *jobs (== slots of the results vector) to execute, in
  /// dispatch order.
  std::vector<std::size_t> pending;
  /// Forked local workers. May be 0 when `listener` is set (remote workers
  /// carry the whole campaign); must be >= 1 otherwise.
  int workers = 1;
  /// Retry budget per job; under process/remote isolation it covers worker
  /// crashes and connection losses as well as clean in-worker failures.
  int max_attempts = 1;
  /// Hard per-job wall-clock budget in ms (0 disables): a local worker that
  /// outlives it is SIGKILLed, a remote worker is disconnected; either way
  /// the job is marked timed_out and never retried.
  double job_timeout_ms = 0.0;
  /// Deterministic crash injection (inject/worker_crash.hpp).
  std::optional<inject::WorkerCrashInjection> inject_crash;
  /// Record a supervisor lifecycle timeline (worker_spawn, worker_crash,
  /// worker_respawn, job_redispatch, job_timeout_kill, worker_connect,
  /// worker_disconnect, worker_reject, worker_drain instants with ordinal
  /// — not wall-clock — timestamps).
  bool want_timeline = false;
  /// Called on the supervising thread with every finished JobResult in
  /// completion order; null disables journaling.
  std::function<void(const JobResult&)> journal_append;
  /// Accepts remote tmemo_workerd registrations when set (not owned; must
  /// outlive the call). Null = local workers only.
  net::Listener* listener = nullptr;
  /// Registration gate for remote workers: a HelloFrame whose
  /// campaign_digest differs is rejected (campaign_wire_digest).
  std::uint64_t campaign_digest = 0;
  /// Liveness keepalive for remote workers (docs/DISTRIBUTED.md): idle
  /// workers are pinged every `keepalive_interval_ms` (0 disables, the
  /// low-level default — CampaignRunOptions turns it on) and must pong
  /// within `keepalive_timeout_ms`. A miss — or a dispatched job whose
  /// kJobStarted heartbeat never arrives within interval+timeout — marks
  /// the connection half-open and folds it into the disconnect taxonomy,
  /// so a black-holed peer cannot hang the campaign tail.
  int keepalive_interval_ms = 0;
  int keepalive_timeout_ms = 2000;
  /// Deterministic chaos on the supervisor's outgoing frames to remote
  /// workers (net/fault.hpp); the channel salt is the worker slot id. Local
  /// workers are never injected — the chaos target is the network fabric.
  std::optional<net::NetFaultSpec> inject_net;
};

struct ProcessPoolOutcome {
  WorkerPoolStats stats;
  /// Supervisor lifecycle timeline (null unless want_timeline).
  std::shared_ptr<const telemetry::Timeline> timeline;
};

/// Runs req.pending under forked local workers and/or remote TCP workers,
/// writing each job's outcome into results[job_index] (slots not listed in
/// req.pending are left untouched). Throws std::invalid_argument on a
/// malformed request and std::runtime_error when the pool itself cannot be
/// stood up (fork or socketpair failure on the very first worker).
ProcessPoolOutcome run_process_pool(const ProcessPoolRequest& req,
                                    std::vector<JobResult>& results);

/// Builds a worker's private workload set (spec.factory, or every built-in
/// kernel at spec.scale). A throwing factory yields no workloads and sets
/// `setup_error` to "workload setup failed: <what>". Shared by the thread
/// pool, forked workers and tmemo_workerd.
[[nodiscard]] std::vector<std::unique_ptr<Workload>> make_worker_workloads(
    const SweepSpec& spec, std::string& setup_error);

/// One dispatch = the job's whole remaining retry budget for *clean*
/// failures, so the attempts column is bit-identical across isolation
/// modes. Crashes are the supervisor's share of the budget: a redispatch
/// resumes at attempt+1. Shared by the thread pool (start_attempt 1, no
/// crash injection) and serve_worker_session. `workloads` is the worker's
/// private workload set; a non-empty `setup_error` marks the environment
/// broken (recorded, never retried). When `inject_crash` applies to
/// (job_index, attempt) the *process* dies by the injected signal, so only
/// worker processes, whose death the supervisor decodes, pass one.
[[nodiscard]] JobResult run_dispatched_job(
    const SweepSpec& spec, const std::vector<CampaignJob>& jobs,
    std::size_t job_index, int start_attempt, int max_attempts,
    const std::optional<inject::WorkerCrashInjection>& inject_crash,
    std::vector<std::unique_ptr<Workload>>& workloads,
    const std::string& setup_error);

/// How often an idle worker wakes up to check its drain flag. SIGTERM also
/// interrupts poll() directly (EINTR), so this is only the backstop for a
/// signal delivered between syscalls.
inline constexpr int kWorkerDrainPollMs = 100;

enum class SessionEnd {
  kComplete, ///< supervisor said goodbye: campaign done
  kDrained,  ///< drain requested; goodbye sent
  kLost,     ///< connection lost / stream corrupted: reconnect material
  kArtifact, ///< journal shard write failed: fatal, NOT reconnect material
};

/// Serves one supervisor session on `fd` until it ends: answers pings,
/// runs each dispatched job through run_dispatched_job (heartbeat first),
/// appends it to `shard` when that is open, and sends the result frame.
/// Run by a forked local worker on its socketpair end and by run_workerd
/// after registration. All outgoing frames go through `shim` so
/// --inject-net chaos applies; every parse failure is a lost
/// (untrustworthy) stream rather than a fatal protocol crime, because under
/// fault injection a corrupted frame and a hostile supervisor look
/// identical. A non-zero `*drain_flag` (may be null) ends the session with
/// a goodbye once no job is in flight. `jobs_done` counts delivered
/// results; `error` says why a kLost/kArtifact session ended.
[[nodiscard]] SessionEnd serve_worker_session(
    int fd, net::FrameWriteShim& shim, const SweepSpec& spec,
    const std::vector<CampaignJob>& jobs, int max_attempts,
    const std::optional<inject::WorkerCrashInjection>& inject_crash,
    std::vector<std::unique_ptr<Workload>>& workloads,
    const std::string& setup_error, CampaignJournalWriter& shard,
    const volatile std::sig_atomic_t* drain_flag, std::uint64_t& jobs_done,
    std::string& error);

} // namespace tmemo
