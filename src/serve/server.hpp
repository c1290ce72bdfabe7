// ewalkd — the long-lived serving daemon over a cached graph store.
//
// A Server owns one GraphStore and one fork-join TaskScope on the
// process-wide work-stealing Executor. Requests arrive as protocol lines
// (serve/protocol.hpp); `run` requests are acknowledged immediately with a
// ticket and dispatched onto the scope, and their results stream back as
// tagged response lines whenever they complete — clients match responses to
// requests by `id`, never by arrival order. Everything else (`ping`,
// `stats`, `drain`, `shutdown`) is answered synchronously on the reader
// thread.
//
// Admission control: at most `max_inflight` run requests may be queued or
// executing at once; requests beyond that are rejected with an error line
// (no silent queueing without bound — a misbehaving client cannot OOM the
// daemon with pending work). `drain` blocks until every in-flight run has
// completed and is the protocol's determinism barrier: a `stats` issued
// after a `drain` sees counters that depend only on the request multiset,
// not on scheduling.
//
// Transports: serve_stream() pumps line-delimited requests from any
// istream to any ostream (the `--stdin` pipe mode CI and tests use);
// listen_tcp()/serve_tcp() accept TCP connections on a (possibly
// ephemeral) port with one reader thread per connection, all sharing the
// store and the scope. A socket stays open until its reader and every run
// it queued are done, so a disconnected client's result never reaches a
// later client on a reused fd; a request line over 1 MiB closes its
// connection; finished readers are joined as connections come and go.
//
// Determinism contract: a run's samples depend only on the RunRequest
// (execute_run), so responses are bit-identical across cache states,
// connection interleavings, and thread counts; only response *order* is
// scheduling-dependent, and the client's --sort restores a canonical order
// for golden-file diffs.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>

#include "serve/graph_store.hpp"
#include "serve/request.hpp"
#include "util/thread_pool.hpp"

namespace ewalk {

/// Daemon configuration, mirrored by the ewalkd CLI flags.
struct ServerConfig {
  std::uint64_t cache_bytes = 0;   ///< GraphStore budget (--cache-bytes, 0 = unlimited)
  std::uint32_t max_inflight = 64; ///< admission cap on queued+running runs (--inflight)
  std::uint32_t threads = 0;       ///< scope parallelism (--threads, 0 = hardware)
};

/// The serving core (see file comment). One instance per daemon; all
/// transports and tests drive it through handle_line().
class Server {
 public:
  /// Receives one complete response line (no trailing newline). Must be
  /// callable from worker threads; the Server serialises calls per sink
  /// only when it created the sink itself (serve_stream/serve_tcp), so
  /// custom sinks must be thread-safe.
  using Sink = std::function<void(const std::string&)>;

  explicit Server(ServerConfig config);

  /// Drains in-flight runs before destruction (graceful even when the
  /// transport dropped mid-request).
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Handles one request line: parses, answers control ops synchronously,
  /// enqueues runs (ack via `sink` immediately, result via `sink` on
  /// completion). Never throws — malformed requests produce an error line
  /// and leave the daemon serving. Blank lines are ignored.
  void handle_line(const std::string& line, const Sink& sink);

  /// Blocks until every accepted run has completed (the `drain` op).
  void drain();

  /// The shared graph cache (exposed for tests and the stats op).
  GraphStore& store() noexcept { return store_; }

  /// Set once a `shutdown` request has been fully answered; transports
  /// stop accepting input when they observe it.
  bool shutdown_requested() const noexcept {
    return shutdown_.load(std::memory_order_acquire);
  }

  /// Number of runs accepted but not yet completed (admission gauge).
  std::uint32_t inflight() const noexcept {
    return inflight_.load(std::memory_order_acquire);
  }

  /// Number of accepted TCP connections whose reader thread serve_tcp()
  /// has not joined yet. A connection counts from accept() until its
  /// reader has exited (peer closed, over-long line, or shutdown) and the
  /// accept loop has reaped it, which takes at most one 100 ms poll.
  std::uint32_t open_connections() const noexcept {
    return open_connections_.load(std::memory_order_acquire);
  }

  /// Pumps line-delimited requests from `in` to `out` until EOF or
  /// shutdown, then drains. The pipe transport (`ewalkd --stdin`).
  void serve_stream(std::istream& in, std::ostream& out);

  /// Binds a listening IPv4 socket on 127.0.0.1:`port` (0 = ephemeral) and
  /// returns the bound port. Throws std::runtime_error when the bind
  /// fails. Call serve_tcp() afterwards to accept connections.
  std::uint16_t listen_tcp(std::uint16_t port);

  /// Accepts connections on the socket bound by listen_tcp(), one reader
  /// thread per connection, until shutdown_requested(); then joins the
  /// connection threads and drains. The TCP transport (`ewalkd --port`).
  void serve_tcp();

 private:
  class Connection;  // one accepted socket, defined in server.cpp

  void handle_run(const RunRequest& run, const Sink& sink);
  void serve_connection(std::shared_ptr<Connection> conn);

  const ServerConfig config_;
  GraphStore store_;
  TaskScope scope_;
  std::atomic<std::uint32_t> inflight_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> tickets_{0};
  std::atomic<std::uint32_t> open_connections_{0};
  std::atomic<bool> shutdown_{false};
  int listen_fd_ = -1;
};

}  // namespace ewalk
