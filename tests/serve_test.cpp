// Serving-layer tests: protocol round-trips, GraphStore caching/eviction,
// determinism under caching and concurrency, graceful shutdown, and
// malformed-request resilience (src/serve/).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/process.hpp"
#include "engine/registry.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "serve/graph_store.hpp"
#include "serve/protocol.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"
#include "walks/srw.hpp"

namespace ewalk {
namespace {

// A thread-safe response collector usable as a Server::Sink.
struct Collector {
  std::mutex mutex;
  std::vector<std::string> lines;
  Server::Sink sink() {
    return [this](const std::string& line) {
      std::lock_guard<std::mutex> lock(mutex);
      lines.push_back(line);
    };
  }
  std::vector<std::string> snapshot() {
    std::lock_guard<std::mutex> lock(mutex);
    return lines;
  }
};

// Response lines minus the legitimately varying fields: wall_seconds
// (timing) and cache_hit (whether the store was warm). What remains —
// samples, stats, graph shape, budget — is pinned by the determinism
// contract and must be bit-identical across cache states and scheduling.
std::string canonical(const std::string& line) {
  static const std::regex volatile_fields(
      ",\"(wall_seconds\":[0-9.eE+-]+|cache_hit\":(true|false))");
  return std::regex_replace(line, volatile_fields, "");
}

std::vector<std::string> result_lines(const std::vector<std::string>& lines) {
  std::vector<std::string> out;
  for (const auto& line : lines)
    if (line.find("\"status\":\"queued\"") == std::string::npos)
      out.push_back(canonical(line));
  std::sort(out.begin(), out.end());
  return out;
}

std::string run_line(const std::string& id, const std::string& graph,
                     const std::string& process, std::uint64_t seed,
                     std::uint32_t n, std::uint32_t trials = 3) {
  std::ostringstream line;
  line << "{\"op\":\"run\",\"id\":\"" << id << "\",\"graph\":\"" << graph
       << "\",\"process\":\"" << process << "\",\"seed\":" << seed
       << ",\"trials\":" << trials << ",\"params\":{\"n\":\"" << n << "\"}}";
  return line.str();
}

// ---- Protocol --------------------------------------------------------------

TEST(Protocol, ParsesRunRequestFields) {
  const auto req = parse_request(
      "{\"op\":\"run\",\"id\":\"r9\",\"graph\":\"regular\","
      "\"process\":\"eprocess\",\"trials\":7,\"threads\":2,\"seed\":"
      "18446744073709551615,\"max-steps\":123,\"target\":\"edges\","
      "\"bundle\":4,\"analysis\":true,\"params\":{\"n\":\"128\",\"r\":\"4\"}}");
  EXPECT_EQ(req.op, "run");
  EXPECT_EQ(req.id, "r9");
  EXPECT_EQ(req.run.graph, "regular");
  EXPECT_EQ(req.run.process, "eprocess");
  EXPECT_EQ(req.run.trials, 7u);
  EXPECT_EQ(req.run.threads, 2u);
  // 64-bit seeds survive: numbers keep their literal spelling, no double.
  EXPECT_EQ(req.run.seed, 18446744073709551615ULL);
  EXPECT_EQ(req.run.max_steps, 123u);
  EXPECT_EQ(req.run.target, RunTarget::kEdges);
  EXPECT_EQ(req.run.bundle_width, 4u);
  EXPECT_TRUE(req.run.analysis);
  EXPECT_EQ(req.run.params.get("n", ""), "128");
  EXPECT_EQ(req.run.params.get("r", ""), "4");
}

TEST(Protocol, AliasSpellingsFoldToCanonical) {
  // --walk/--generator and --process/--graph share one option table
  // (util/cli); the protocol accepts both spellings identically.
  const auto aliased = parse_request(
      "{\"op\":\"run\",\"generator\":\"cycle\",\"walk\":\"srw\","
      "\"params\":{\"n\":\"32\"}}");
  EXPECT_EQ(aliased.run.graph, "cycle");
  EXPECT_EQ(aliased.run.process, "srw");
  // Conflicting alias + canonical values are an error, not a silent pick.
  EXPECT_THROW(
      parse_request("{\"op\":\"run\",\"walk\":\"srw\",\"process\":\"rotor\"}"),
      std::invalid_argument);
}

TEST(Protocol, UnknownFieldRejectedWithSuggestion) {
  try {
    parse_request("{\"op\":\"run\",\"trails\":5}");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& ex) {
    const std::string message = ex.what();
    EXPECT_NE(message.find("trails"), std::string::npos) << message;
    EXPECT_NE(message.find("did you mean"), std::string::npos) << message;
    EXPECT_NE(message.find("trials"), std::string::npos) << message;
  }
}

TEST(Protocol, MalformedJsonRejected) {
  EXPECT_THROW(parse_request("{\"op\":\"run\""), std::invalid_argument);
  EXPECT_THROW(parse_request("not json at all"), std::invalid_argument);
  EXPECT_THROW(parse_request("{\"op\":\"run\"} trailing"),
               std::invalid_argument);
  EXPECT_THROW(parse_request("[1,2,3]"), std::invalid_argument);
  EXPECT_THROW(parse_request("{\"op\":\"frobnicate\"}"),
               std::invalid_argument);
}

TEST(Protocol, StringEscapesRoundTrip) {
  const JsonValue v = parse_json(
      "{\"id\":\"a\\\"b\\\\c\\n\\t\\u0041\\u00e9\"}");
  ASSERT_EQ(v.object.size(), 1u);
  EXPECT_EQ(v.object[0].second.string, "a\"b\\c\n\tA\xc3\xa9");
  // json_quote escapes control characters back to parseable form.
  const std::string quoted = json_quote("a\"b\\c\n\tA");
  const JsonValue back = parse_json(quoted);
  EXPECT_EQ(back.string, "a\"b\\c\n\tA");
}

TEST(Protocol, ResponseLinesArePinnedByteForByte) {
  // The byte-level pin of the response format: field order, %.17g doubles
  // and string escapes. The CI serve-smoke golden cannot pin these, because
  // its client re-serializes every line with sorted keys.
  RunResult result;
  result.id = "r1";
  result.ok = true;
  result.target = RunTarget::kCoalescence;
  result.graph = std::make_shared<const CachedGraph>(cycle_graph(4), true);
  result.graph_cache_hit = true;
  result.budget = 1000;
  result.unfinished = 1;
  result.samples = {0.1, 12};
  result.stats = {.count = 2, .mean = 6.05, .stddev = 0.5, .std_error = 0.25,
                  .min = 0.1, .max = 12, .median = 6.05};
  result.meeting_samples = {3};
  result.meeting_stats = {.count = 1, .mean = 3, .min = 3, .max = 3,
                          .median = 3};
  result.total_steps = 1012;
  result.analysis = GraphAnalysis{.lambda2 = 0.5, .lambda_n = -1,
                                  .gap = 0, .conductance_lower = 0.25,
                                  .conductance_upper = 1, .girth = 4};
  result.wall_seconds = 0.125;
  EXPECT_EQ(serialize_run_result(result),
            R"({"id":"r1","status":"ok","target":"coalescence",)"
            R"("graph":{"vertices":4,"edges":4,"connected":true,"cache_hit":true},)"
            R"("trials":2,"budget":1000,"unfinished":1,"total_steps":1012,)"
            R"("samples":[0.10000000000000001,12],"stats":{"mean":6.0499999999999998,)"
            R"("stddev":0.5,"std_error":0.25,"min":0.10000000000000001,"max":12,)"
            R"("median":6.0499999999999998},"meeting_samples":[3],)"
            R"("meeting_stats":{"mean":3,"stddev":0,"std_error":0,"min":3,"max":3,)"
            R"("median":3},"analysis":{"lambda2":0.5,"lambda_n":-1,"gap":0,)"
            R"("conductance_lower":0.25,"conductance_upper":1,"girth":4,)"
            R"("cache_hit":false},"wall_seconds":0.125})");

  const GraphStoreStats stats{.hits = 1, .misses = 2, .evictions = 3,
                              .coalesced = 4, .analysis_hits = 5,
                              .analysis_misses = 6, .entries = 7, .bytes = 8};
  EXPECT_EQ(serialize_stats("s", stats, 9, 10),
            R"({"id":"s","status":"stats","cache":{"hits":1,"misses":2,)"
            R"("evictions":3,"coalesced":4,"analysis_hits":5,"analysis_misses":6,)"
            R"("entries":7,"bytes":8},"inflight":9,"completed":10})");
  EXPECT_EQ(serialize_queued("q", 42),
            R"({"id":"q","status":"queued","ticket":42})");
  EXPECT_EQ(serialize_error("e", "bad\x01\"line\"\n"),
            R"({"id":"e","status":"error","error":"bad\u0001\"line\"\n"})");
}

// ---- GraphStore ------------------------------------------------------------

ParamMap cycle_params(std::uint32_t n) {
  ParamMap p;
  p.set("n", std::to_string(n));
  return p;
}

TEST(GraphStoreTest, HitMissCountersAndKeyCanonicalisation) {
  GraphStore store;
  bool hit = true;
  const auto a = store.acquire("cycle", cycle_params(64), 1, &hit);
  EXPECT_FALSE(hit);
  // Walk-level parameters are not part of the graph key: a request that
  // only differs in --rule must reuse the cached instance.
  ParamMap with_rule = cycle_params(64);
  with_rule.set("rule", "first");
  const auto b = store.acquire("cycle", with_rule, 1, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(a.get(), b.get());
  // Different seed or different size are different graphs.
  store.acquire("cycle", cycle_params(64), 2, &hit);
  EXPECT_FALSE(hit);
  store.acquire("cycle", cycle_params(128), 1, &hit);
  EXPECT_FALSE(hit);
  const auto stats = store.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(GraphStoreTest, CacheKeyIsCanonical) {
  ParamMap bag = cycle_params(64);
  bag.set("rule", "first");     // walk-level: dropped for "cycle"
  bag.set("trials", "9");       // run-level: dropped always
  EXPECT_EQ(GraphStore::cache_key("cycle", bag, 7),
            GraphStore::cache_key("cycle", cycle_params(64), 7));
  EXPECT_NE(GraphStore::cache_key("cycle", cycle_params(64), 7),
            GraphStore::cache_key("cycle", cycle_params(64), 8));
  // Numbers key by value, not spelling.
  EXPECT_EQ(GraphStore::cache_key("cycle", ParamMap{{"n", "1e3"}}, 7),
            GraphStore::cache_key("cycle", ParamMap{{"n", "1000"}}, 7));
  // pcf keys on {base, alpha} plus the base family's schema: a walk-level
  // parameter does not split the entry.
  const ParamMap pcf{{"base", "regular"}, {"alpha", "0.5"}, {"n", "64"},
                     {"r", "4"}, {"rule", "first"}};
  ParamMap pcf_uniform = pcf;
  pcf_uniform.set("rule", "uniform");
  EXPECT_EQ(GraphStore::cache_key("pcf", pcf, 7),
            GraphStore::cache_key("pcf", pcf_uniform, 7));
  EXPECT_EQ(GraphStore::cache_key("pcf", pcf, 7),
            "pcf|seed=7|alpha=0.5|base=regular|n=64|r=4");
}

TEST(GraphStoreTest, EvictsLruUnderByteBudget) {
  // Size the budget from a real entry so the test tracks the bytes()
  // estimate instead of hard-coding struct sizes.
  std::uint64_t one_graph_bytes = 0;
  {
    GraphStore probe;
    probe.acquire("cycle", cycle_params(64), 1);
    one_graph_bytes = probe.stats().bytes;
  }
  GraphStore store(one_graph_bytes + one_graph_bytes / 2);
  const auto a = store.acquire("cycle", cycle_params(64), 1);
  store.acquire("cycle", cycle_params(64), 2);  // over budget: evicts seed 1
  auto stats = store.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  // The evicted instance stays alive for holders of the shared_ptr.
  EXPECT_EQ(a->graph().num_vertices(), 64u);
  // Re-acquiring the evicted key is a rebuild, not a hit.
  bool hit = true;
  store.acquire("cycle", cycle_params(64), 1, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(store.stats().misses, 3u);
}

TEST(GraphStoreTest, SingleFlightUnderConcurrency) {
  // N concurrent acquires of one cold key: exactly one construction, the
  // rest are (possibly coalesced) hits — and the counters are a pure
  // function of the request multiset, not the interleaving.
  GraphStore store;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<const CachedGraph>> got(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&store, &got, t] {
      got[t] = store.acquire("cycle", cycle_params(96), 5);
    });
  for (auto& t : threads) t.join();
  const auto stats = store.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, kThreads - 1u);
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(got[t].get(), got[0].get());
}

TEST(GraphStoreTest, AnalysisComputedOnceAndCached) {
  // Odd cycle: non-bipartite, so the spectrum is non-degenerate and the
  // girth equals n — stable facts to pin the lazily cached block against.
  GraphStore store;
  const auto cached = store.acquire("cycle", cycle_params(31), 1);
  bool hit = true;
  const GraphAnalysis& first = cached->analysis(&hit);
  EXPECT_FALSE(hit);
  const GraphAnalysis& second = cached->analysis(&hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(&first, &second);
  EXPECT_GT(first.lambda2, 0.5);
  EXPECT_EQ(first.girth, 31u);
}

TEST(GraphStoreTest, BuildFailurePropagatesAndLeavesStoreClean) {
  GraphStore store;
  ParamMap bad;  // regular graphs need n*r even; n=5, r=3 is rejected
  bad.set("n", "5");
  bad.set("r", "3");
  EXPECT_THROW(store.acquire("regular", bad, 1), std::exception);
  EXPECT_EQ(store.stats().entries, 0u);
  // The store still serves other keys afterwards.
  EXPECT_NO_THROW(store.acquire("cycle", cycle_params(16), 1));
}

TEST(GraphStoreTest, ConnectedByConstructionSkipsTheBfs) {
  // regular-pairing retries in the generator until the graph is connected,
  // so a cold acquire (and the storeless execute_run path) runs no BFS.
  GraphStore store;
  const ParamMap params{{"n", "2000"}, {"r", "4"}};
  const std::uint64_t before = connectivity_bfs_calls();
  const auto cached = store.acquire("regular-pairing", params, 3);
  EXPECT_EQ(connectivity_bfs_calls(), before);
  EXPECT_TRUE(cached->connected());
  EXPECT_TRUE(build_cached_graph("regular-pairing", params, 3)->connected());
  EXPECT_EQ(connectivity_bfs_calls(), before);

  // A family that does not declare it is still checked, once per build:
  // C_12(2) splits into the even and the odd vertices.
  const auto split = store.acquire("circulant", {{"n", "12"}, {"offsets", "2"}}, 1);
  EXPECT_EQ(connectivity_bfs_calls(), before + 1);
  EXPECT_FALSE(split->connected());
}

// ---- execute_run determinism under caching ---------------------------------

TEST(ExecuteRun, ColdWarmAndUncachedAreBitIdentical) {
  RunRequest req;
  req.graph = "cycle";
  req.process = "srw";
  req.params = cycle_params(64);
  req.seed = 7;
  req.trials = 4;

  const RunResult uncached = execute_run(req, nullptr);
  ASSERT_TRUE(uncached.ok) << uncached.error;

  GraphStore store;
  const RunResult cold = execute_run(req, &store);
  const RunResult warm = execute_run(req, &store);
  ASSERT_TRUE(cold.ok && warm.ok);
  EXPECT_FALSE(cold.graph_cache_hit);
  EXPECT_TRUE(warm.graph_cache_hit);
  EXPECT_EQ(uncached.samples, cold.samples);
  EXPECT_EQ(uncached.samples, warm.samples);
  EXPECT_EQ(uncached.budget, warm.budget);
  // The repeat same-key request triggered zero additional construction.
  EXPECT_EQ(store.stats().misses, 1u);
  EXPECT_EQ(store.stats().hits, 1u);
}

TEST(ExecuteRun, ErrorsComeBackAsResults) {
  RunRequest req;
  req.graph = "cycle";
  req.process = "eproces";  // typo'd on purpose
  req.params = cycle_params(32);
  const RunResult result = execute_run(req);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("did you mean"), std::string::npos)
      << result.error;
  EXPECT_NE(result.error.find("eprocess"), std::string::npos) << result.error;
}

TEST(ExecuteRun, RegistrySuggestionsForGraphFamilies) {
  RunRequest req;
  req.graph = "regularr";  // nearest-name satellite: generator side
  req.process = "srw";
  const RunResult result = execute_run(req);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("did you mean"), std::string::npos)
      << result.error;
  EXPECT_NE(result.error.find("regular"), std::string::npos) << result.error;
}

// ---- Parameters are declared once and checked on every surface -------------

// `check` runs on the request both surfaces build: run 1 parses a protocol
// line, run 2 hands the same fields to run_request_from_params.
template <typename Check>
void on_both_surfaces(const std::string& fields, const std::string& params,
                      const ParamMap& bag, Check check) {
  check([&] {
    return parse_request("{\"op\":\"run\"" + fields + ",\"params\":{" +
                         params + "}}")
        .run;
  });
  check([&] { return run_request_from_params(bag); });
}

TEST(RunParams, UnknownParamGetsOneErrorNamingTheDeclaredKey) {
  on_both_surfaces(
      ",\"graph\":\"cycle\",\"process\":\"eprocess\"", "\"nn\":\"64\"",
      ParamMap{{"graph", "cycle"}, {"process", "eprocess"}, {"nn", "64"}},
      [](const auto& build) {
        try {
          build();
          FAIL() << "expected std::invalid_argument";
        } catch (const std::invalid_argument& ex) {
          const std::string message = ex.what();
          EXPECT_EQ(message.find("unknown parameter: nn (did you mean: n"), 0u)
              << message;
          EXPECT_EQ(message.find(';'), std::string::npos) << message;
        }
      });
}

TEST(RunParams, IntegerExponentFormsAreExact) {
  on_both_surfaces(",\"graph\":\"cycle\",\"process\":\"srw\",\"max-steps\":1e9",
                   "\"n\":\"16\"",
                   ParamMap{{"graph", "cycle"}, {"process", "srw"},
                            {"max-steps", "1e9"}, {"n", "16"}},
                   [](const auto& build) {
                     RunRequest req = build();
                     EXPECT_EQ(req.max_steps, 1000000000u);
                     req.trials = 1;
                     const RunResult result = execute_run(req);
                     ASSERT_TRUE(result.ok) << result.error;
                     EXPECT_EQ(result.budget, 1000000000u);
                   });
}

TEST(RunParams, FractionalTrialsRejected) {
  on_both_surfaces(",\"trials\":2.5", "",
                   ParamMap{{"trials", "2.5"}}, [](const auto& build) {
                     EXPECT_THROW(build(), std::invalid_argument);
                   });
}

TEST(RunParams, DaemonRejectsUnknownParamBeforeQueueing) {
  Server server(ServerConfig{});
  Collector out;
  server.handle_line(
      "{\"op\":\"run\",\"graph\":\"cycle\",\"process\":\"eprocess\","
      "\"params\":{\"nn\":\"64\"}}",
      out.sink());
  server.drain();
  const auto lines = out.snapshot();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"status\":\"error\""), std::string::npos);
  EXPECT_NE(lines[0].find("did you mean: n"), std::string::npos) << lines[0];
  EXPECT_EQ(server.store().stats().misses, 0u);
}

TEST(ExecuteRun, CoalescenceTargetNeedsATokenProcess) {
  RunRequest req;
  req.graph = "cycle";
  req.process = "srw";
  req.params = cycle_params(16);
  req.target = RunTarget::kCoalescence;
  GraphStore store;
  const RunResult result = execute_run(req, &store);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error,
            "--target coalescence needs an interacting-token process");
  // Rejected from the declared kind, before any graph is built.
  EXPECT_EQ(store.stats().misses, 0u);
}

// ---- execute_run honours bundle_width ----------------------------------------

// Which instance made each step, in step order. Instances number themselves
// at construction; execute_run builds one per trial and no other.
struct StepLog {
  std::mutex mutex;
  int next_id = 0;
  std::vector<int> order;
};

StepLog& step_log() {
  static StepLog log;
  return log;
}

// A simple random walk that appends its instance id to step_log() on every
// step — a test-only process that makes the interleave order visible.
class StepOrderWalk final : public WalkProcess {
 public:
  explicit StepOrderWalk(const Graph& g) : walk_(g, 0) {
    std::lock_guard<std::mutex> lock(step_log().mutex);
    id_ = step_log().next_id++;
  }
  void step(Rng& rng) override {
    {
      std::lock_guard<std::mutex> lock(step_log().mutex);
      step_log().order.push_back(id_);
    }
    walk_.step(rng);
  }
  Vertex current() const override { return walk_.current(); }
  std::uint64_t steps() const override { return walk_.steps(); }
  const CoverState& cover() const override { return walk_.cover(); }
  const Graph& graph() const override { return walk_.graph(); }

 private:
  SimpleRandomWalk walk_;
  int id_ = 0;
};

// Runs `bundle` on one thread through execute_run and returns the step
// order: 4 trials of 20 steps each on a cycle too long to cover.
std::vector<int> step_order_of(std::uint32_t bundle) {
  static const bool registered = [] {
    ProcessRegistry::instance().add(
        {"test-step-order", "records its step order (test only)", {},
         [](const Graph& g, const ParamMap&, Rng&) {
           return std::make_unique<StepOrderWalk>(g);
         }});
    return true;
  }();
  (void)registered;
  {
    std::lock_guard<std::mutex> lock(step_log().mutex);
    step_log().next_id = 0;
    step_log().order.clear();
  }
  RunRequest req;
  req.graph = "cycle";
  req.process = "test-step-order";
  req.params = cycle_params(64);
  req.trials = 4;
  req.threads = 1;
  req.max_steps = 20;
  req.bundle_width = bundle;
  const RunResult result = execute_run(req);
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.unfinished, 4u);
  std::lock_guard<std::mutex> lock(step_log().mutex);
  EXPECT_EQ(step_log().next_id, 4);  // no probe instance
  return step_log().order;
}

TEST(ExecuteRun, BundleWidthInterleavesTrials) {
  std::vector<int> one_at_a_time;
  for (int id = 0; id < 4; ++id)
    one_at_a_time.insert(one_at_a_time.end(), 20, id);
  std::vector<int> round_robin;
  for (int round = 0; round < 20; ++round)
    for (int id = 0; id < 4; ++id) round_robin.push_back(id);
  EXPECT_EQ(step_order_of(1), one_at_a_time);
  EXPECT_EQ(step_order_of(4), round_robin);
}

// Runs `req` at bundle widths {1, 4} x threads {1, 4} and expects the
// samples of width 1 on one thread every time.
void expect_samples_invariant(RunRequest req) {
  const std::string name = req.graph + " " + req.process + " target " +
                           run_target_name(req.target);
  req.seed = 31;
  req.trials = 6;  // a short last bundle at width 4
  req.max_steps = 20000;
  req.threads = 1;
  req.bundle_width = 1;
  const RunResult reference = execute_run(req);
  ASSERT_TRUE(reference.ok) << name << ": " << reference.error;
  ASSERT_EQ(reference.samples.size(), 6u) << name;
  EXPECT_EQ(reference.meeting_samples.size(),
            req.target == RunTarget::kCoalescence ? 6u : 0u)
      << name;
  for (const std::uint32_t bundle : {1u, 4u}) {
    for (const std::uint32_t threads : {1u, 4u}) {
      req.bundle_width = bundle;
      req.threads = threads;
      const RunResult run = execute_run(req);
      ASSERT_TRUE(run.ok) << name << ": " << run.error;
      const std::string where = name + " bundle " + std::to_string(bundle) +
                                " threads " + std::to_string(threads);
      EXPECT_EQ(run.samples, reference.samples) << where;
      EXPECT_EQ(run.step_samples, reference.step_samples) << where;
      EXPECT_EQ(run.meeting_samples, reference.meeting_samples) << where;
    }
  }
}

TEST(ExecuteRun, SamplesInvariantAcrossBundleWidthsAndThreads) {
  // Every registered process: walks to vertex and to edge cover, token
  // processes to coalescence. Each runs on a ring, which herman needs, and
  // all but herman also on a 4-regular graph, where the E-process and the
  // V-process draw from their streams instead of sweeping the ring.
  for (const ProcessEntry& entry : ProcessRegistry::instance().entries()) {
    if (entry.name.rfind("test-", 0) == 0) continue;  // registered by tests
    std::vector<RunTarget> targets = {RunTarget::kCoalescence};
    if (entry.kind == ProcessKind::kWalk)
      targets = {RunTarget::kVertices, RunTarget::kEdges};
    for (const bool ring : {true, false}) {
      if (!ring && entry.name == "herman") continue;
      for (const RunTarget target : targets) {
        RunRequest req;
        req.graph = ring ? "cycle" : "regular";
        req.params = ring ? cycle_params(33) : ParamMap{{"n", "96"}, {"r", "4"}};
        // Slow freezing lets the pcf-* trials reach vertex cover and
        // coalescence inside the budget, so their samples depend on their
        // streams instead of reading the budget.
        if (find_param(entry.params, "alpha") != nullptr)
          req.params.set("alpha", "0.001");
        req.process = entry.name;
        req.target = target;
        expect_samples_invariant(req);
      }
    }
  }
}

TEST(ServerTest, BundledRunAnswersLikeUnbundled) {
  const std::string base =
      "{\"op\":\"run\",\"id\":\"b\",\"graph\":\"regular\",\"process\":"
      "\"eprocess\",\"seed\":5,\"trials\":6,\"threads\":2,\"params\":"
      "{\"n\":\"128\",\"r\":\"4\"},\"bundle\":";
  Collector unbundled, bundled;
  Server server(ServerConfig{});
  server.handle_line(base + "1}", unbundled.sink());
  server.drain();
  server.handle_line(base + "4}", bundled.sink());
  server.drain();
  const auto expected = result_lines(unbundled.snapshot());
  ASSERT_EQ(expected.size(), 1u);
  EXPECT_NE(expected[0].find("\"status\":\"ok\""), std::string::npos)
      << expected[0];
  EXPECT_EQ(result_lines(bundled.snapshot()), expected);
}

// ---- Server ----------------------------------------------------------------

TEST(ServerTest, ConcurrentMixedKeyClientsMatchSerialReference) {
  // The acceptance scenario: >= 4 concurrent clients submitting a mix of
  // repeated and distinct keys produce result lines bit-identical to a
  // serial, cache-less replay of the same requests — and repeats of a key
  // cost zero additional constructions (hit counters prove it).
  const std::vector<std::string> requests = {
      run_line("c0", "cycle", "srw", 7, 64),
      run_line("c1", "cycle", "srw", 7, 64),       // repeat of c0's key
      run_line("c2", "cycle", "srw", 8, 64),       // same family, new seed
      run_line("c3", "regular", "eprocess", 7, 64),
      run_line("c4", "cycle", "srw", 7, 64),       // repeat again
      run_line("c5", "complete", "coalescing-srw", 3, 32),
  };
  // Serial reference: fresh single-threaded server, one request at a time.
  Collector serial;
  {
    Server reference(ServerConfig{0, 64, 1});
    for (const auto& request : requests) {
      reference.handle_line(request, serial.sink());
      reference.drain();
    }
  }
  // Concurrent replay: 4 client threads interleaving over a shared server.
  Collector concurrent;
  Server server(ServerConfig{0, 64, 0});
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < 4; ++c)
      clients.emplace_back([&server, &concurrent, &requests, c] {
        for (std::size_t i = c; i < requests.size(); i += 4)
          server.handle_line(requests[i], concurrent.sink());
      });
    for (auto& t : clients) t.join();
    server.drain();
  }
  EXPECT_EQ(result_lines(serial.snapshot()),
            result_lines(concurrent.snapshot()));
  // 4 distinct graph keys among 6 requests: repeats construct nothing.
  const auto stats = server.store().stats();
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.hits, 2u);
}

TEST(ServerTest, MalformedRequestsDoNotKillTheDaemon) {
  Server server(ServerConfig{});
  Collector out;
  server.handle_line("this is not json", out.sink());
  server.handle_line("{\"op\":\"run\",\"trails\":5,\"id\":\"x\"}", out.sink());
  server.handle_line("{\"op\":\"nonsense\"}", out.sink());
  server.handle_line("", out.sink());  // blank: ignored entirely
  server.handle_line("{\"op\":\"ping\",\"id\":\"alive\"}", out.sink());
  const auto lines = out.snapshot();
  ASSERT_EQ(lines.size(), 4u);  // 3 errors + 1 pong, no blank response
  EXPECT_NE(lines[0].find("\"status\":\"error\""), std::string::npos);
  // The id still routes back even when the request failed to parse.
  EXPECT_NE(lines[1].find("\"id\":\"x\""), std::string::npos);
  EXPECT_EQ(lines[3], "{\"id\":\"alive\",\"status\":\"pong\"}");
}

TEST(ServerTest, AdmissionControlRejectsBeyondInflightCap) {
  Server server(ServerConfig{0, 1, 1});  // one slot only
  Collector out;
  // Submit a run, then a second before draining: with a single slot the
  // second must be rejected (the first may or may not have completed
  // already, so accept either a rejection or a second queued ack).
  server.handle_line(run_line("a0", "cycle", "srw", 1, 256, 2), out.sink());
  server.handle_line(run_line("a1", "cycle", "srw", 2, 256, 2), out.sink());
  server.drain();
  const auto lines = out.snapshot();
  std::size_t queued = 0, busy = 0;
  for (const auto& line : lines) {
    if (line.find("\"status\":\"queued\"") != std::string::npos) ++queued;
    if (line.find("server busy") != std::string::npos) ++busy;
  }
  EXPECT_GE(queued, 1u);
  EXPECT_EQ(queued + busy, 2u);
}

TEST(ServerTest, ShutdownDrainsInFlightWork) {
  Collector out;
  {
    Server server(ServerConfig{});
    for (int i = 0; i < 6; ++i)
      server.handle_line(run_line(std::string("s").append(std::to_string(i)), "cycle", "srw",
                                  10 + i, 128, 2),
                         out.sink());
    server.handle_line("{\"op\":\"shutdown\",\"id\":\"bye\"}", out.sink());
    EXPECT_TRUE(server.shutdown_requested());
    EXPECT_EQ(server.inflight(), 0u);
  }
  // Every accepted run completed before the "bye": 6 acks + 6 results + bye.
  const auto lines = out.snapshot();
  ASSERT_EQ(lines.size(), 13u);
  std::size_t results = 0;
  for (const auto& line : lines)
    if (line.find("\"status\":\"ok\"") != std::string::npos) ++results;
  EXPECT_EQ(results, 6u);
  EXPECT_EQ(lines.back(), "{\"id\":\"bye\",\"status\":\"bye\"}");
}

TEST(ServerTest, CountersSettleBeforeTheResultIsSent) {
  // A stats request made from inside the result sink runs no earlier than
  // any client could send one after reading the result line.
  Server server(ServerConfig{});
  Collector stats;
  const Server::Sink sink = [&server, &stats](const std::string& line) {
    if (line.find("\"status\":\"ok\"") != std::string::npos)
      server.handle_line("{\"op\":\"stats\",\"id\":\"s\"}", stats.sink());
  };
  server.handle_line(run_line("r", "cycle", "srw", 7, 64), sink);
  server.drain();
  const auto lines = stats.snapshot();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"inflight\":0,\"completed\":1}"),
            std::string::npos)
      << lines[0];
}

TEST(ServerTest, StreamTransportEndToEnd) {
  std::istringstream in(
      run_line("r1", "cycle", "srw", 7, 64) + "\n" +
      "{\"op\":\"drain\",\"id\":\"d\"}\n" +
      run_line("r2", "cycle", "srw", 7, 64) + "\n" +
      "{\"op\":\"drain\",\"id\":\"d2\"}\n" +
      "{\"op\":\"stats\",\"id\":\"s\"}\n" +
      "{\"op\":\"shutdown\",\"id\":\"z\"}\n");
  std::ostringstream out;
  Server server(ServerConfig{});
  server.serve_stream(in, out);
  const std::string text = out.str();
  // Warm run r2 equals cold run r1 sample-for-sample (the samples arrays
  // are byte-identical substrings of the two result lines).
  const auto sample_of = [&text](const std::string& id) {
    const std::size_t at = text.find("{\"id\":\"" + id + "\",\"status\":\"ok\"");
    EXPECT_NE(at, std::string::npos) << text;
    const std::size_t from = text.find("\"samples\":", at);
    return text.substr(from, text.find(']', from) - from);
  };
  EXPECT_EQ(sample_of("r1"), sample_of("r2"));
  EXPECT_NE(text.find("\"hits\":1"), std::string::npos) << text;
  EXPECT_NE(text.find("\"misses\":1"), std::string::npos) << text;
  EXPECT_NE(text.find("{\"id\":\"z\",\"status\":\"bye\"}"), std::string::npos);
}

TEST(ServerTest, TcpLoopbackRoundTrip) {
  Server server(ServerConfig{});
  std::uint16_t port = 0;
  try {
    port = server.listen_tcp(0);  // ephemeral
  } catch (const std::exception& ex) {
    GTEST_SKIP() << "cannot bind loopback: " << ex.what();
  }
  std::thread accept_thread([&server] { server.serve_tcp(); });

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  const std::string payload = "{\"op\":\"ping\",\"id\":\"p\"}\n" +
                              run_line("t1", "cycle", "srw", 7, 64) + "\n" +
                              "{\"op\":\"drain\",\"id\":\"d\"}\n" +
                              "{\"op\":\"shutdown\",\"id\":\"z\"}\n";
  ASSERT_EQ(::send(fd, payload.data(), payload.size(), 0),
            static_cast<ssize_t>(payload.size()));
  std::string received;
  char chunk[4096];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof chunk, 0)) > 0)
    received.append(chunk, static_cast<std::size_t>(n));
  ::close(fd);
  accept_thread.join();

  EXPECT_NE(received.find("{\"id\":\"p\",\"status\":\"pong\"}"),
            std::string::npos)
      << received;
  EXPECT_NE(received.find("{\"id\":\"t1\",\"status\":\"ok\""),
            std::string::npos)
      << received;
  EXPECT_NE(received.find("{\"id\":\"z\",\"status\":\"bye\"}"),
            std::string::npos)
      << received;
}

// ---- TCP connection lifetime -----------------------------------------------

const std::string kPing = "{\"op\":\"ping\",\"id\":\"p\"}";
const std::string kPong = "{\"id\":\"p\",\"status\":\"pong\"}";

// A Server on an ephemeral loopback port with its accept loop running;
// the destructor shuts it down and joins the loop.
struct TcpServer {
  Server server{ServerConfig{}};
  std::uint16_t port = server.listen_tcp(0);
  std::thread accept_thread{[this] { server.serve_tcp(); }};

  ~TcpServer() {
    server.handle_line("{\"op\":\"shutdown\"}", [](const std::string&) {});
    accept_thread.join();
  }
};

// A blocking loopback client. Reads time out after 30 s, so a server
// that never answers fails the test instead of hanging it.
class TcpClient {
 public:
  explicit TcpClient(std::uint16_t port)
      : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    timeval tv{};
    tv.tv_sec = 30;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    connected_ = fd_ >= 0 && ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                                       sizeof addr) == 0;
  }
  ~TcpClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  TcpClient(const TcpClient&) = delete;
  TcpClient& operator=(const TcpClient&) = delete;

  bool connected() const { return connected_; }

  // False when the peer stopped accepting bytes before all were sent.
  bool send_all(const std::string& data) {
    std::size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  // The next response line without its newline; "" at EOF or timeout.
  std::string read_line() {
    for (;;) {
      if (const std::size_t nl = buffer_.find('\n'); nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) return "";
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  // The next run result, skipping `queued` acks; "" at EOF or timeout.
  std::string read_result() {
    std::string line;
    do line = read_line();
    while (line.find("\"status\":\"queued\"") != std::string::npos);
    return line;
  }

 private:
  int fd_;
  bool connected_ = false;
  std::string buffer_;
};

// Polls `done` every 10 ms for up to 10 s; returns its last value.
template <typename Predicate>
bool eventually(Predicate done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  return done();
}

// SRW steps on a 1e5-cycle, far from covering it: about 0.2 s of kernel
// work in a Release build, longer than A's reader takes to be reaped.
constexpr std::uint64_t kLongRunSteps = 15000000;

TEST(ServerTcpTest, DisconnectedClientsResultNeverReachesTheNextClient) {
  TcpServer tcp;
  {
    // Client A queues a long run, then disconnects while it is in flight.
    TcpClient a(tcp.port);
    ASSERT_TRUE(a.connected());
    ASSERT_TRUE(a.send_all(
        "{\"op\":\"run\",\"id\":\"A-run\",\"graph\":\"cycle\",\"process\":"
        "\"srw\",\"trials\":1,\"max-steps\":" +
        std::to_string(kLongRunSteps) + ",\"params\":{\"n\":\"100000\"}}\n"));
    ASSERT_NE(a.read_line().find("\"status\":\"queued\""), std::string::npos);
  }
  // Once A's reader is gone, A's fd number would be free for B's accept()
  // if the reader had closed it.
  ASSERT_TRUE(eventually([&] { return tcp.server.open_connections() == 0; }));
  TcpClient b(tcp.port);
  ASSERT_TRUE(b.connected());
  ASSERT_TRUE(b.send_all(kPing + "\n{\"op\":\"drain\",\"id\":\"d\"}\n"));
  // The drain waits for A's run, so A's result, if it leaked, would arrive
  // before the drained line.
  EXPECT_EQ(b.read_line(), kPong);
  EXPECT_EQ(b.read_line(), "{\"id\":\"d\",\"status\":\"drained\"}");
}

TEST(ServerTcpTest, SequentialRunsDoNotStallOnDelayedAcks) {
  TcpServer tcp;
  TcpClient client(tcp.port);
  ASSERT_TRUE(client.connected());
  // Each run answers with two small writes; with Nagle's algorithm on, the
  // second waits ~40 ms for the client's delayed ACK of the first, and 40
  // closed-loop runs take at least 1.6 s.
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(client.send_all(
        run_line(std::string("s").append(std::to_string(i)), "cycle", "srw", 7, 16) + "\n"));
    const std::string result = client.read_result();
    ASSERT_NE(result.find("\"status\":\"ok\""), std::string::npos) << result;
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed.count(), 1.0);
}

TEST(ServerTcpTest, StatsAfterTheLastResultCountsEveryRun) {
  TcpServer tcp;
  TcpClient client(tcp.port);
  ASSERT_TRUE(client.connected());
  constexpr int kRuns = 8;
  std::string batch;
  for (int i = 0; i < kRuns; ++i)
    batch += run_line(std::string("c").append(std::to_string(i)), "cycle", "srw", 20 + i, 64) + "\n";
  ASSERT_TRUE(client.send_all(batch));
  for (int i = 0; i < kRuns; ++i)
    ASSERT_NE(client.read_result().find("\"status\":\"ok\""), std::string::npos);
  // No drain: the counters must already be settled when a result arrives.
  ASSERT_TRUE(client.send_all("{\"op\":\"stats\",\"id\":\"s\"}\n"));
  const std::string stats = client.read_line();
  EXPECT_NE(stats.find("\"inflight\":0,"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"completed\":" + std::to_string(kRuns) + "}"),
            std::string::npos)
      << stats;
}

TEST(ServerTcpTest, OverlongLineClosesOnlyThatConnection) {
  TcpServer tcp;
  TcpClient flood(tcp.port);
  ASSERT_TRUE(flood.connected());
  // 2 MiB without a newline. The send may fail part way once the server
  // hangs up, so its result is not checked.
  flood.send_all(std::string(std::size_t{2} << 20, 'x'));
  const std::string error = flood.read_line();
  EXPECT_NE(error.find("\"status\":\"error\""), std::string::npos) << error;
  EXPECT_NE(error.find("1048576"), std::string::npos) << error;
  EXPECT_EQ(flood.read_line(), "");  // then the server closed it
  TcpClient other(tcp.port);
  ASSERT_TRUE(other.connected());
  ASSERT_TRUE(other.send_all(kPing + "\n"));
  EXPECT_EQ(other.read_line(), kPong);
}

TEST(ServerTcpTest, FinishedConnectionsAreReaped) {
  TcpServer tcp;
  {
    std::vector<std::unique_ptr<TcpClient>> clients;
    for (int i = 0; i < 64; ++i) {
      clients.push_back(std::make_unique<TcpClient>(tcp.port));
      ASSERT_TRUE(clients.back()->connected());
      ASSERT_TRUE(clients.back()->send_all(kPing + "\n"));
      ASSERT_EQ(clients.back()->read_line(), kPong);
    }
    EXPECT_EQ(tcp.server.open_connections(), 64u);
  }  // all 64 clients close
  EXPECT_TRUE(eventually([&] { return tcp.server.open_connections() == 0; }));
  TcpClient after(tcp.port);
  ASSERT_TRUE(after.connected());
  ASSERT_TRUE(after.send_all(kPing + "\n"));
  EXPECT_EQ(after.read_line(), kPong);
}

}  // namespace
}  // namespace ewalk
