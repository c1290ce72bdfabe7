// serve-replay: an in-process ewalkd Server on loopback TCP.
//
// A cold store with an 8 MiB budget; 4 closed-loop clients (one thread and
// one connection each) send 1000 requests in total and wait for each
// result before sending the next. The mix is seeded and Zipf-distributed
// over 32 graph keys (regular-pairing r=4, n log-spaced from 2e3 to 2e4,
// smaller graphs more popular): 58% E-process, 32% SRW and 8% coalescing-srw
// (on the smaller 16 keys), 2% E-process with analysis:true, 4 trials
// each. Each response's
// samples are compared with execute_run on the same request, computed
// before the timed replay.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ewalk;

namespace {

constexpr std::uint64_t kCacheBytes = 8ull << 20;
constexpr std::uint32_t kClients = 4;
constexpr std::uint32_t kKeys = 32;
// The set-up's first request: a graph outside the replay's key set.
constexpr const char* kFirstRun =
    "{\"op\":\"run\",\"id\":\"first\",\"graph\":\"regular-pairing\","
    "\"process\":\"eprocess\",\"trials\":4,\"seed\":1,"
    "\"params\":{\"n\":\"1000\",\"r\":\"4\"}}";

// One blocking loopback connection speaking line-delimited JSON.
class LineConn {
 public:
  explicit LineConn(std::uint16_t port) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    timeval tv{};
    tv.tv_sec = 60;  // a stuck server fails the run instead of hanging it
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      throw std::runtime_error("cannot connect to 127.0.0.1:" + std::to_string(port));
    }
  }
  ~LineConn() { ::close(fd_); }
  LineConn(const LineConn&) = delete;
  LineConn& operator=(const LineConn&) = delete;

  void send_line(const std::string& line) {
    const std::string data = line + "\n";
    std::size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("send() failed");
      sent += static_cast<std::size_t>(n);
    }
  }

  std::string read_line() {
    for (;;) {
      if (const std::size_t nl = buffer_.find('\n'); nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("connection closed or timed out");
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  std::string request(const std::string& line) {
    send_line(line);
    return read_line();
  }

 private:
  int fd_;
  std::string buffer_;
};

// A Server listening on an ephemeral loopback port with its accept thread
// running and kClients + 1 connections (the last one for control ops)
// open and answered a ping. With `first_result`, the control connection
// also sends one small run and waits for its result: the daemon's set-up,
// measured from construction to the first answer.
class LiveServer {
 public:
  explicit LiveServer(bool first_result = false) {
    const std::int64_t t0 = now_ns();
    Span span("serve.server_start", Tracer::instance().next_id());
    server_ = std::make_unique<Server>(ServerConfig{kCacheBytes, 64, 0});
    const std::uint16_t port = server_->listen_tcp(0);
    acceptor_ = std::thread([this] { server_->serve_tcp(); });
    try {
      for (std::uint32_t c = 0; c <= kClients; ++c) {
        conns_.push_back(std::make_unique<LineConn>(port));
        if (conns_.back()->request("{\"op\":\"ping\",\"id\":\"ping\"}")
                .find("pong") == std::string::npos)
          throw std::runtime_error("server did not answer ping");
      }
      if (first_result) {
        control().send_line(kFirstRun);
        while (control().read_line().find("\"status\":\"queued\"") != std::string::npos) {
        }
      }
    } catch (...) {
      stop();
      throw;
    }
    setup_s_ = seconds_since(t0);
  }
  ~LiveServer() { stop(); }
  LiveServer(const LiveServer&) = delete;
  LiveServer& operator=(const LiveServer&) = delete;

  LineConn& client(std::uint32_t c) { return *conns_.at(c); }
  LineConn& control() { return *conns_.at(kClients); }
  double setup_s() const { return setup_s_; }

  void stop() {
    if (!acceptor_.joinable()) return;
    server_->handle_line("{\"op\":\"shutdown\",\"id\":\"stop\"}",
                         [](const std::string&) {});
    conns_.clear();
    acceptor_.join();
    server_.reset();
  }

 private:
  std::unique_ptr<Server> server_;
  std::vector<std::unique_ptr<LineConn>> conns_;
  double setup_s_ = 0.0;
  std::thread acceptor_;
};

// The seeded request mix.
struct Mix {
  std::vector<std::string> lines;        // request lines, request order
  std::vector<std::size_t> key_of;       // request -> graph key
  std::vector<std::string> labels;       // request -> "srw n=20000", ...
  std::vector<std::size_t> ref_of;       // request -> reference
  std::vector<std::string> ref_lines;    // one line per distinct request
  std::vector<ParamMap> key_params;      // graph key -> generator params
  std::vector<std::uint64_t> key_seeds;  // graph key -> construction seed
};

// Splits `total` into integer parts proportional to `weights` (largest
// remainder), so the parts always sum to `total`.
std::vector<std::size_t> apportion(const std::vector<double>& weights,
                                   std::size_t total) {
  const double sum = std::accumulate(weights.begin(), weights.end(), 0.0);
  std::vector<std::size_t> parts;
  std::vector<std::pair<double, std::size_t>> remainders;
  std::size_t given = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double exact = static_cast<double>(total) * weights[i] / sum;
    parts.push_back(static_cast<std::size_t>(exact));
    given += parts.back();
    remainders.emplace_back(exact - static_cast<double>(parts.back()), i);
  }
  std::sort(remainders.rbegin(), remainders.rend());
  for (std::size_t j = 0; given < total; ++j, ++given) ++parts[remainders[j].second];
  return parts;
}

template <typename T>
void shuffle(std::vector<T>& items, Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i)
    std::swap(items[i - 1], items[rng.uniform(i)]);
}

Mix make_mix(std::uint64_t seed, std::size_t requests, bool smoke) {
  Mix mix;
  const double n_lo = smoke ? 200 : 2000, n_hi = smoke ? 2000 : 20000;
  for (std::uint32_t k = 0; k < kKeys; ++k) {
    const auto n = static_cast<std::uint64_t>(
        std::llround(n_lo * std::pow(n_hi / n_lo, k / (kKeys - 1.0))));
    mix.key_params.push_back(ParamMap{{"n", std::to_string(n)}, {"r", "4"}});
    std::uint64_t s = seed + 0x9E3779B97F4A7C15ULL * (k + 1);
    mix.key_seeds.push_back(splitmix64(s) >> 16);
  }
  // Exact proportions, shuffled by the seed: each kind of request gets its
  // share of the requests, and each kind's keys follow Zipf's law exactly
  // (key k, n ascending, gets weight 1/(k+1), so small graphs are popular).
  // Every seed thus has the same heavy tail; the seed picks the graph
  // instances and the order.
  Rng rng(seed ^ 0x7265706c6179ULL);
  const auto zipf_keys = [&rng](std::size_t count, std::uint32_t keys) {
    std::vector<double> weights;
    for (std::uint32_t k = 0; k < keys; ++k) weights.push_back(1.0 / (k + 1));
    const std::vector<std::size_t> per_key = apportion(weights, count);
    std::vector<std::size_t> out;
    for (std::uint32_t k = 0; k < keys; ++k) out.insert(out.end(), per_key[k], k);
    shuffle(out, rng);
    return out;
  };
  enum Kind { kEprocess, kSrw, kCoalescing, kAnalysis };
  const std::vector<std::size_t> per_kind = apportion({0.58, 0.32, 0.08, 0.02}, requests);
  std::vector<Kind> kinds;
  for (int k = 0; k < 4; ++k) kinds.insert(kinds.end(), per_kind[k], static_cast<Kind>(k));
  shuffle(kinds, rng);
  // Every request does little kernel work: the E-process walks about 2n
  // steps per trial on any key, while SRW and coalescing-srw walk about
  // n ln n and draw from the smaller half of the keys. The analysis block
  // costs O(n(n+m)) (exact girth), so analysis requests go to the smallest
  // graph, which is also the most popular one and stays cached with it.
  const std::vector<std::size_t> eprocess_keys = zipf_keys(per_kind[kEprocess], kKeys);
  const std::vector<std::size_t> srw_keys =
      zipf_keys(per_kind[kSrw] + per_kind[kCoalescing], kKeys / 2);
  std::size_t next_eprocess = 0, next_srw = 0;

  std::map<std::string, std::size_t> refs;
  for (std::size_t i = 0; i < requests; ++i) {
    const bool analysis = kinds[i] == kAnalysis;
    const std::size_t key = analysis                  ? 0
                            : kinds[i] == kEprocess ? eprocess_keys[next_eprocess++]
                                                    : srw_keys[next_srw++];
    const std::string process = kinds[i] == kSrw          ? "srw"
                                : kinds[i] == kCoalescing ? "coalescing-srw"
                                                          : "eprocess";
    std::string params = "\"n\":\"" + mix.key_params[key].get("n", "") + "\",\"r\":\"4\"";
    if (kinds[i] == kCoalescing) params += ",\"tokens\":\"8\"";
    mix.lines.push_back(
        "{\"op\":\"run\",\"id\":\"q" + std::to_string(i) +
        "\",\"graph\":\"regular-pairing\",\"process\":\"" + process +
        "\",\"trials\":4,\"seed\":" + std::to_string(mix.key_seeds[key]) +
        (analysis ? ",\"analysis\":true" : "") + ",\"params\":{" + params + "}}");
    mix.key_of.push_back(key);
    mix.labels.push_back(process + (analysis ? "+analysis" : "") + " n=" +
                         mix.key_params[key].get("n", ""));
    const std::string signature =
        process + "|" + std::to_string(key) + "|" + (analysis ? "a" : "");
    auto [it, inserted] = refs.emplace(signature, mix.ref_lines.size());
    if (inserted) mix.ref_lines.push_back(mix.lines.back());
    mix.ref_of.push_back(it->second);
  }
  return mix;
}

// execute_run on every distinct request, outside the timed phase. One
// after another, so the run's peak RSS does not depend on scheduling.
std::vector<RunResult> compute_references(const Mix& mix) {
  GraphStore store;
  std::vector<RunResult> refs;
  for (const std::string& line : mix.ref_lines) {
    const RunRequest req = parse_request(line).run;
    Span span("harness.execute_run", Tracer::instance().next_id());
    refs.push_back(execute_run(req, &store));
  }
  return refs;
}

struct Replay {
  double wall_s = 0.0;
  std::vector<double> latency_ms;      // send -> result line
  std::vector<double> ack_ms;          // send -> queued line (NaN: none)
  std::vector<std::string> responses;  // the result line of each request
  std::string stats_before_drain;
  std::string stats_after_drain;
};

Replay replay(const Mix& mix) {
  const std::size_t count = mix.lines.size();
  Replay out;
  out.responses.resize(count);
  std::vector<std::int64_t> send_ns(count, 0), ack_ns(count, 0), done_ns(count, 0);
  LiveServer live;
  std::vector<std::exception_ptr> errors(kClients);
  const std::int64_t t0 = now_ns();
  {
    std::vector<std::thread> clients;
    for (std::uint32_t c = 0; c < kClients; ++c)
      clients.emplace_back([&, c] {
        try {
          LineConn& conn = live.client(c);
          for (std::size_t i = c; i < count; i += kClients) {
            send_ns[i] = now_ns();
            conn.send_line(mix.lines[i]);
            for (;;) {
              std::string line = conn.read_line();
              if (line.find("\"status\":\"queued\"") != std::string::npos) {
                ack_ns[i] = now_ns();
                continue;
              }
              done_ns[i] = now_ns();
              out.responses[i] = std::move(line);
              break;
            }
          }
        } catch (...) {
          errors[c] = std::current_exception();
        }
      });
    for (std::thread& t : clients) t.join();
  }
  out.wall_s = seconds_since(t0);
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);

  // The server sends a result line before it updates its completed and
  // inflight counters, so they are read only after a drain.
  out.stats_before_drain = live.control().request("{\"op\":\"stats\",\"id\":\"before-drain\"}");
  live.control().request("{\"op\":\"drain\",\"id\":\"drain\"}");
  out.stats_after_drain = live.control().request("{\"op\":\"stats\",\"id\":\"after-drain\"}");
  live.stop();

  Tracer& tracer = Tracer::instance();
  for (std::size_t i = 0; i < count; ++i) {
    out.latency_ms.push_back(static_cast<double>(done_ns[i] - send_ns[i]) * 1e-6);
    out.ack_ms.push_back(ack_ns[i] != 0
                             ? static_cast<double>(ack_ns[i] - send_ns[i]) * 1e-6
                             : std::nan(""));
    if (!tracer.enabled()) continue;
    // Client-side spans of one request, recorded after the timed phase.
    SpanRecord request{"serve.request", tracer.next_id(), 0, i + 1,
                       send_ns[i], done_ns[i], 0};
    if (ack_ns[i] != 0)
      tracer.record({"serve.ack", tracer.next_id(), request.id, i + 1,
                     send_ns[i], ack_ns[i], 0});
    tracer.record(request);
  }
  return out;
}

const JsonValue* member(const JsonValue& object, const std::string& key) {
  for (const auto& [k, v] : object.object)
    if (k == key) return &v;
  return nullptr;
}

double number(const JsonValue* v) {
  if (v == nullptr || v->type != JsonValue::Type::kNumber)
    throw std::invalid_argument("missing number");
  return std::strtod(v->raw.c_str(), nullptr);
}

// Checks every response against its reference; returns the server-side
// overhead (client latency minus the response's wall_seconds) per request.
std::vector<double> check_replay(Outcome& out, const Mix& mix,
                                 const std::vector<RunResult>& refs,
                                 const Replay& r) {
  std::vector<double> overhead_ms;
  for (std::size_t i = 0; i < mix.lines.size(); ++i) {
    std::string why;
    try {
      const JsonValue v = parse_json(r.responses[i]);
      const JsonValue* id = member(v, "id");
      const JsonValue* status = member(v, "status");
      const JsonValue* samples = member(v, "samples");
      const RunResult& ref = refs[mix.ref_of[i]];
      if (id == nullptr || id->string != "q" + std::to_string(i))
        why = "response carries another request's id";
      else if (status == nullptr || status->string != "ok")
        why = "status is not ok";
      else if (!ref.ok)
        why = "reference execute_run failed: " + ref.error;
      else if (samples == nullptr || samples->array.size() != ref.samples.size())
        why = "sample count differs from execute_run";
      else
        for (std::size_t t = 0; t < ref.samples.size(); ++t)
          if (number(&samples->array[t]) != ref.samples[t])
            why = "samples differ from execute_run";
      if (why.empty())
        overhead_ms.push_back(r.latency_ms[i] -
                              number(member(v, "wall_seconds")) * 1e3);
    } catch (const std::exception& ex) {
      why = std::string("unreadable response: ") + ex.what();
    }
    out.operation(why.empty(), "serve-replay q" + std::to_string(i) + ": " + why +
                                   " (" + r.responses[i].substr(0, 160) + ")");
  }
  // After a drain the counters depend only on the request multiset.
  try {
    const JsonValue stats = parse_json(r.stats_after_drain);
    const JsonValue* cache = member(stats, "cache");
    if (cache == nullptr) throw std::invalid_argument("no cache block");
    const double lookups = number(member(*cache, "hits")) + number(member(*cache, "misses"));
    const bool settled = number(member(stats, "inflight")) == 0 &&
                         number(member(stats, "completed")) ==
                             static_cast<double>(mix.lines.size()) &&
                         lookups == static_cast<double>(mix.lines.size());
    out.operation(settled, "serve-replay: counters after drain do not add up: " +
                               r.stats_after_drain);
  } catch (const std::exception& ex) {
    out.operation(false, std::string("serve-replay: unreadable stats: ") + ex.what());
  }
  return overhead_ms;
}

// The slowest requests of a replay, so the tail can be read off a report.
void note_slowest(Outcome& out, const Mix& mix, const Replay& r) {
  std::vector<std::size_t> order(mix.lines.size());
  std::iota(order.begin(), order.end(), 0);
  const std::size_t shown = std::min<std::size_t>(order.size(), 16);
  std::partial_sort(order.begin(), order.begin() + shown, order.end(),
                    [&r](std::size_t a, std::size_t b) {
                      return r.latency_ms[a] > r.latency_ms[b];
                    });
  std::string list = "[";
  for (std::size_t j = 0; j < shown; ++j) {
    const std::size_t i = order[j];
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.3f", r.latency_ms[i]);
    list += std::string(j ? "," : "") + "{\"id\":\"q" + std::to_string(i) +
            "\",\"latency_ms\":" + buf + ",\"request\":" +
            json_string(mix.labels[i]) + "}";
  }
  out.note("slowest_requests", list + "]");
}

// Per-layer serve metrics from one checked replay.
void report_serve_layers(Outcome& out, const Mix& mix,
                         const std::vector<RunResult>& refs, const Replay& r,
                         const std::vector<double>& overhead_ms) {
  const std::size_t count = mix.lines.size();
  const std::uint64_t request = Tracer::instance().next_id();
  std::int64_t t0 = now_ns();
  {
    Span span("serve.parse_request", request);
    for (const std::string& line : mix.lines) parse_request(line);
  }
  out.metric("protocol.parse_us", seconds_since(t0) * 1e6 / count, "us");
  t0 = now_ns();
  std::size_t bytes = 0;
  {
    Span span("serve.serialize_run_result", request);
    for (std::size_t i = 0; i < count; ++i)
      bytes += serialize_run_result(refs[mix.ref_of[i]]).size();
  }
  out.metric("protocol.serialize_us", seconds_since(t0) * 1e6 / count, "us");
  out.note("serialized_bytes", static_cast<double>(bytes));

  const JsonValue stats = parse_json(r.stats_after_drain);
  const JsonValue* cache = member(stats, "cache");
  if (cache == nullptr) throw std::invalid_argument("stats line has no cache block");
  const double hits = number(member(*cache, "hits"));
  const double misses = number(member(*cache, "misses"));
  out.metric("store.hit_ratio", hits / (hits + misses), "ratio");
  out.metric("store.evictions", number(member(*cache, "evictions")), "count");

  // The replay's key sequence against a fresh store with the same budget.
  GraphStore store(kCacheBytes);
  std::vector<double> hit_us, miss_ms;
  {
    Span span("serve.store_acquire", request);
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t key = mix.key_of[i];
      bool hit = false;
      t0 = now_ns();
      store.acquire("regular-pairing", mix.key_params[key], mix.key_seeds[key], &hit);
      (hit ? hit_us : miss_ms).push_back(seconds_since(t0) * (hit ? 1e6 : 1e3));
    }
  }
  out.metric("store.acquire_hit_us", median(hit_us), "us");
  out.metric("store.acquire_miss_ms", median(miss_ms), "ms");

  std::vector<double> acks;
  for (const double a : r.ack_ms)
    if (!std::isnan(a)) acks.push_back(a);
  out.metric("server.ack_ms.p50", percentile(acks, 0.50), "ms");
  out.metric("server.ack_ms.p99", percentile(acks, 0.99), "ms");
  out.metric("server.overhead_ms.p50", percentile(overhead_ms, 0.50), "ms");
  out.metric("server.overhead_ms.p99", percentile(overhead_ms, 0.99), "ms");
  out.note("stats_before_drain", r.stats_before_drain);
  out.note("stats_after_drain", r.stats_after_drain);
  note_slowest(out, mix, r);
}

}  // namespace

void mini_replay(Outcome& out, std::uint64_t seed, bool smoke) {
  const Mix mix = make_mix(seed, smoke ? 20 : 200, smoke);
  const std::vector<RunResult> refs = compute_references(mix);
  const Replay r = replay(mix);
  const std::vector<double> overhead = check_replay(out, mix, refs, r);
  report_serve_layers(out, mix, refs, r, overhead);
}

Outcome run_serve_replay(const Options& opt) {
  Outcome out;
  const Mix mix = make_mix(opt.seed, opt.smoke ? 40 : 1000, opt.smoke);
  const std::vector<RunResult> refs = compute_references(mix);
  std::uint64_t working_set = 0;
  for (const RunResult& ref : refs)
    working_set = std::max(working_set, ref.ok ? ref.graph->bytes() : 0);
  note_working_set(out, "largest serve-replay graph", working_set);

  if (opt.trace) {
    const Replay untraced = replay(mix);
    check_replay(out, mix, refs, untraced);
    Tracer::instance().enable(true);
    const Replay traced = replay(mix);
    const std::vector<double> overhead = check_replay(out, mix, refs, traced);
    report_serve_layers(out, mix, refs, traced, overhead);

    std::size_t largest = 0;
    for (std::size_t k = 1; k < kKeys; ++k)
      if (mix.key_params[k].get_u64("n", 0) > mix.key_params[largest].get_u64("n", 0))
        largest = k;
    RunRequest req;
    req.graph = "regular-pairing";
    req.process = "eprocess";
    req.params = mix.key_params[largest];
    req.seed = mix.key_seeds[largest];
    req.trials = 4;
    probe_graph(out, GraphSpec{"regular-pairing n=" + req.params.get("n", "") + " r=4",
                               req.graph, req.params, req.seed});
    GraphStore store;
    probe_kernel(out, store.acquire(req.graph, req.params, req.seed)->graph(),
                 opt.seed, opt.smoke);
    probe_harness(out, store, req, opt.smoke);
    probe_common(out, opt, /*has_sweep=*/false, /*has_server=*/true);
    report_trace_overhead(out, untraced.wall_s, traced.wall_s);
    return out;
  }

  // Set-up: cold daemon starts up to their first answer, on throwaway
  // servers so that every replay starts with a cold store.
  std::vector<double> setup_s;
  for (int rep = 0; rep < 9; ++rep) setup_s.push_back(LiveServer(true).setup_s());

  std::vector<double> latency_ms;
  double ok_requests = 0.0, replay_s = 0.0;
  std::string stats_before_drain, stats_after_drain;
  const std::vector<double> reps = repeat_within(opt.seconds, [&] {
    const Replay r = replay(mix);
    ok_requests += static_cast<double>(check_replay(out, mix, refs, r).size());
    replay_s += r.wall_s;
    latency_ms.insert(latency_ms.end(), r.latency_ms.begin(), r.latency_ms.end());
    stats_before_drain = r.stats_before_drain;
    stats_after_drain = r.stats_after_drain;
    note_slowest(out, mix, r);
    return r.wall_s;
  });

  out.metric("wall_s", median(reps), "s");
  out.metric("setup_s", median(setup_s), "s");
  out.metric("req_per_s", ok_requests / replay_s, "1/s");
  out.metric("latency_p50_ms", percentile(latency_ms, 0.50), "ms");
  out.metric("latency_p99_ms", percentile(latency_ms, 0.99), "ms");
  out.note("repetition_s", json_array(reps));
  out.note("setup_samples_s", json_array(setup_s));
  out.note("latency_samples", static_cast<double>(latency_ms.size()));
  out.note("distinct_requests", static_cast<double>(mix.ref_lines.size()));
  out.note("stats_before_drain", stats_before_drain);
  out.note("stats_after_drain", stats_after_drain);
  return out;
}

}  // namespace perfbench
