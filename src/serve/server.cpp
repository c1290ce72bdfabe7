#include "serve/server.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <istream>
#include <list>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "serve/protocol.hpp"

namespace ewalk {

namespace {

// Longest partial line a connection may buffer while it waits for the
// newline. Real requests are a few hundred bytes; a peer past this gets
// one error line and is disconnected instead of growing the daemon.
constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;

// Best-effort id recovery from a line that failed request parsing, so the
// error response still routes back to the right client-side future. Any
// failure here (the line may not even be JSON) degrades to an empty id.
std::string extract_id_lenient(const std::string& line) {
  try {
    const JsonValue root = parse_json(line);
    if (root.type != JsonValue::Type::kObject) return "";
    for (const auto& [key, value] : root.object)
      if (key == "id") return value.as_param_string();
  } catch (...) {
  }
  return "";
}

bool is_blank(const std::string& line) {
  for (const char c : line)
    if (c != ' ' && c != '\t' && c != '\r') return false;
  return true;
}

}  // namespace

// One accepted TCP connection. Its reader thread and the sink of every run
// it queued share it, so the socket lives until the last of them is done:
// the fd is closed only when the last reference drops, and a run still in
// flight can never write into an fd number accept() has since handed to
// another client.
class Server::Connection {
 public:
  explicit Connection(int fd) : fd_(fd) {
    // Every run answers with two small writes, the queued line and then
    // the result. Under Nagle's algorithm the second waits for the ACK of
    // the first, which the client delays by about 40 ms.
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    // A receive timeout keeps the reader checking the shutdown flag even
    // when the peer goes quiet, so serve_tcp() can always join it.
    timeval tv{};
    tv.tv_usec = 200 * 1000;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd() const noexcept { return fd_; }

  // Sends `response` plus '\n'; a no-op once the peer is gone.
  void write_line(const std::string& response) {
    const std::string line = response + '\n';
    std::lock_guard<std::mutex> lock(write_mutex_);
    std::size_t sent = 0;
    while (!peer_gone_ && sent < line.size()) {
      const ssize_t n =
          ::send(fd_, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
      if (n > 0)
        sent += static_cast<std::size_t>(n);
      else if (n < 0 && errno == EINTR)
        continue;
      else
        peer_gone_ = true;  // the run still completes server-side
    }
  }

  // Ends the connection for the peer and turns every later write into a
  // no-op. The fd number stays reserved until the last reference drops.
  void hang_up() {
    std::lock_guard<std::mutex> lock(write_mutex_);
    peer_gone_ = true;
    ::shutdown(fd_, SHUT_RDWR);
  }

 private:
  const int fd_;
  std::mutex write_mutex_;
  bool peer_gone_ = false;  // guarded by write_mutex_
};

Server::Server(ServerConfig config)
    : config_(config),
      store_(config.cache_bytes),
      scope_(config.threads) {}

Server::~Server() {
  drain();
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void Server::drain() { scope_.wait(); }

void Server::handle_run(const RunRequest& run, const Sink& sink) {
  // Admission: reserve a slot atomically, reject when the daemon already
  // holds max_inflight accepted runs — bounded queueing is the contract.
  std::uint32_t inflight = inflight_.load(std::memory_order_relaxed);
  for (;;) {
    if (inflight >= config_.max_inflight) {
      sink(serialize_error(
          run.id, "server busy: " + std::to_string(inflight) +
                      " requests in flight (limit " +
                      std::to_string(config_.max_inflight) + "); retry later"));
      return;
    }
    if (inflight_.compare_exchange_weak(inflight, inflight + 1,
                                        std::memory_order_acq_rel))
      break;
  }
  const std::uint64_t ticket =
      tickets_.fetch_add(1, std::memory_order_relaxed) + 1;
  sink(serialize_queued(run.id, ticket));
  scope_.spawn([this, run, sink] {
    // execute_run never throws (failures come back as ok == false), so a
    // bad run produces an error line instead of poisoning the scope.
    const RunResult result = execute_run(run, &store_);
    // Settle the counters before answering: a `stats` the client sends
    // after reading this result must already count the run.
    completed_.fetch_add(1, std::memory_order_relaxed);
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    sink(serialize_run_result(result));
  });
}

void Server::handle_line(const std::string& line, const Sink& sink) {
  if (is_blank(line)) return;
  ServerRequest request;
  try {
    request = parse_request(line);
  } catch (const std::exception& ex) {
    sink(serialize_error(extract_id_lenient(line), ex.what()));
    return;
  }
  if (request.op == "ping") {
    sink(serialize_status(request.id, "pong"));
  } else if (request.op == "stats") {
    sink(serialize_stats(request.id, store_.stats(),
                         inflight_.load(std::memory_order_acquire),
                         completed_.load(std::memory_order_acquire)));
  } else if (request.op == "drain") {
    drain();
    sink(serialize_status(request.id, "drained"));
  } else if (request.op == "shutdown") {
    drain();
    sink(serialize_status(request.id, "bye"));
    shutdown_.store(true, std::memory_order_release);
  } else {  // parse_request validated the op: only "run" remains
    handle_run(request.run, sink);
  }
}

void Server::serve_stream(std::istream& in, std::ostream& out) {
  std::mutex out_mutex;
  const Sink sink = [&out, &out_mutex](const std::string& response) {
    std::lock_guard<std::mutex> lock(out_mutex);
    out << response << '\n';
    out.flush();
  };
  std::string line;
  while (!shutdown_requested() && std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    handle_line(line, sink);
  }
  drain();  // EOF without a shutdown op still exits gracefully
}

std::uint16_t Server::listen_tcp(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 16) != 0) {
    ::close(fd);
    throw std::runtime_error("cannot bind 127.0.0.1:" + std::to_string(port));
  }
  socklen_t len = sizeof addr;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  listen_fd_ = fd;
  return ntohs(addr.sin_port);
}

void Server::serve_connection(std::shared_ptr<Connection> conn) {
  const Sink sink = [conn](const std::string& response) {
    conn->write_line(response);
  };
  std::string buffer;
  char chunk[4096];
  while (!shutdown_requested()) {
    const ssize_t n = ::recv(conn->fd(), chunk, sizeof chunk, 0);
    if (n == 0) return;  // peer closed its side; its queued runs still answer
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
      conn->hang_up();
      return;
    }
    const std::size_t unscanned = buffer.size();
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t begin = 0;
    for (std::size_t end = buffer.find('\n', unscanned);
         end != std::string::npos; end = buffer.find('\n', begin)) {
      std::string line = buffer.substr(begin, end - begin);
      begin = end + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      handle_line(line, sink);
      if (shutdown_requested()) return;
    }
    buffer.erase(0, begin);
    if (buffer.size() > kMaxLineBytes) {
      sink(serialize_error("", "request line exceeds " +
                                   std::to_string(kMaxLineBytes) +
                                   " bytes without a newline; closing the "
                                   "connection"));
      conn->hang_up();
      return;
    }
  }
}

void Server::serve_tcp() {
  if (listen_fd_ < 0)
    throw std::logic_error("serve_tcp() requires listen_tcp() first");
  // Each reader flags its own exit, so the accept loop joins finished
  // readers as it goes instead of holding every thread until shutdown.
  struct Reader {
    std::thread thread;
    std::atomic<bool> done{false};
  };
  std::list<Reader> readers;
  const auto reap = [this, &readers](bool all) {
    for (auto it = readers.begin(); it != readers.end();) {
      if (!all && !it->done.load(std::memory_order_acquire)) {
        ++it;
        continue;
      }
      it->thread.join();
      it = readers.erase(it);
      open_connections_.fetch_sub(1, std::memory_order_acq_rel);
    }
  };
  while (!shutdown_requested()) {
    reap(/*all=*/false);
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0) continue;  // timeout or EINTR: re-check the flag
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    auto conn = std::make_shared<Connection>(fd);
    open_connections_.fetch_add(1, std::memory_order_acq_rel);
    Reader& reader = readers.emplace_back();
    reader.thread =
        std::thread([this, conn = std::move(conn), &reader]() mutable {
          serve_connection(std::move(conn));
          reader.done.store(true, std::memory_order_release);
        });
  }
  reap(/*all=*/true);
  drain();
}

}  // namespace ewalk
