#include "engine/registry.hpp"

#include <stdexcept>
#include <utility>

#include "engine/adapters.hpp"
#include "engine/pcf_process.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/lps.hpp"
#include "graph/pcf.hpp"
#include "interact/coalescing.hpp"
#include "interact/herman.hpp"
#include "interact/token_system.hpp"
#include "walks/choice.hpp"
#include "walks/locally_fair.hpp"
#include "walks/multi_eprocess.hpp"
#include "walks/rotor.hpp"
#include "walks/rules.hpp"
#include "walks/srw.hpp"
#include "walks/vertex_process.hpp"
#include "walks/weighted.hpp"

namespace ewalk {

namespace {

// Parameters more than one entry reads, declared once.
const ParamSpec kStart{"start", ParamType::kU32, "0", {}, "start vertex"};
const ParamSpec kRule{"rule", ParamType::kString, "uniform", {},
                      "unvisited-edge choice rule (see the list below)"};
const ParamSpec kTokens{"tokens", ParamType::kU32, "2", {}, "initial tokens"};
const ParamSpec kAlpha{"alpha", ParamType::kDouble, "1", {0.0, true},
                       "PCF freezing rate"};
const ParamSpec kDt{"dt", ParamType::kDouble, "", {0.0, true},
                    "PCF time per walk step (default 1/n)"};
const ParamSpec kN{"n", ParamType::kU32, "10000", {}, "vertices"};
const ParamSpec kDegree{"r", ParamType::kU32, "4", {}, "degree"};
const ParamSpec kWidth{"w", ParamType::kU32, "100", {}, "width"};
const ParamSpec kHeight{"h", ParamType::kU32, "100", {}, "height"};

Vertex start_vertex(const Graph& g, const ParamMap& params) {
  const Vertex start = static_cast<Vertex>(params.get_u64("start"));
  if (start >= g.num_vertices())
    throw std::invalid_argument("--start out of range for this graph");
  return start;
}

std::uint32_t get_u32(const ParamMap& params, const std::string& key) {
  return static_cast<std::uint32_t>(params.get_u64(key));
}

// PCF time advanced per walk step: --dt, defaulting to 1/n so one unit of
// graph time corresponds to n walk steps.
double pcf_time_per_step(const Graph& g, const ParamMap& p) {
  if (p.has("dt")) return p.get_double("dt");
  return g.num_vertices() > 0 ? 1.0 / static_cast<double>(g.num_vertices()) : 1.0;
}

// A factory for Walk(g, start, args...): the processes whose only
// parameter is --start.
template <typename Walk, typename... Args>
RegistryProcessFactory from_start(Args... args) {
  return [=](const Graph& g, const ParamMap& p, Rng&) -> std::unique_ptr<WalkProcess> {
    return std::make_unique<Walk>(g, start_vertex(g, p), args...);
  };
}

// K token starts spread from --start.
std::vector<Vertex> token_starts(const Graph& g, const ParamMap& p) {
  return spread_token_starts(g.num_vertices(), get_u32(p, "tokens"),
                             start_vertex(g, p));
}

void register_builtin_processes(ProcessRegistry& r) {
  using Made = std::unique_ptr<WalkProcess>;
  r.add({"eprocess", "unvisited-edge process (the paper's E-process)",
         {kRule, kStart}, [](const Graph& g, const ParamMap& p, Rng& rng) -> Made {
           return std::make_unique<EProcessHandle>(
               g, start_vertex(g, p), make_rule(p.get("rule"), g, rng));
         }});
  r.add({"multi-eprocess",
         "K cooperating E-process walkers sharing one visited-edge state",
         {{"walkers", ParamType::kU32, "2", {1.0}, "walkers"}, kRule, kStart},
         [](const Graph& g, const ParamMap& p, Rng& rng) -> Made {
           // Walkers don't interact, so duplicate starts (k > n) are fine.
           return std::make_unique<MultiEProcess>(
               g,
               spread_token_starts(g.num_vertices(), get_u32(p, "walkers"),
                                   start_vertex(g, p), /*distinct=*/false),
               make_rule(p.get("rule"), g, rng));
         }});
  r.add({"srw", "simple random walk (baseline)",
         {{"lazy", ParamType::kBool, "false", {}, "hold w.p. 1/2"}, kStart},
         [](const Graph& g, const ParamMap& p, Rng&) -> Made {
           return std::make_unique<SimpleRandomWalk>(
               g, start_vertex(g, p), SrwOptions{.lazy = p.get_bool("lazy")});
         }});
  r.add({"rotor", "rotor-router (Propp machine), deterministic", {kStart},
         from_start<RotorRouter>()});
  r.add({"vertexwalk", "unvisited-vertex-preferring walk (the V-process)",
         {kStart}, from_start<UnvisitedVertexWalk>()});
  r.add({"rwc", "random walk with choice, RWC(d): best of d sampled neighbours",
         {{"d", ParamType::kU32, "2", {}, "neighbours sampled per step"}, kStart},
         [](const Graph& g, const ParamMap& p, Rng&) -> Made {
           return std::make_unique<RandomWalkWithChoice>(g, start_vertex(g, p),
                                                         get_u32(p, "d"));
         }});
  r.add({"leastused", "locally fair: exit along the least-traversed incident edge",
         {kStart}, from_start<LocallyFairWalk>(FairnessCriterion::kLeastUsedFirst)});
  r.add({"oldest", "locally fair: exit along the longest-waiting incident edge",
         {kStart}, from_start<LocallyFairWalk>(FairnessCriterion::kOldestFirst)});
  r.add({"weighted", "reversible weighted random walk (unit weights)", {kStart},
         [](const Graph& g, const ParamMap& p, Rng&) -> Made {
           return std::make_unique<WeightedRandomWalk>(
               g, start_vertex(g, p), std::vector<double>(g.num_edges(), 1.0));
         }});
  r.add({"coalescing-srw", "K independent SRW tokens merging on vertex collision",
         {kTokens, kStart},
         [](const Graph& g, const ParamMap& p, Rng&) -> Made {
           return std::make_unique<CoalescingRW>(g, token_starts(g, p));
         },
         ProcessKind::kToken});
  r.add({"coalescing-ewalk", "K unvisited-edge-preferring tokens merging on collision",
         {kTokens, kRule, kStart},
         [](const Graph& g, const ParamMap& p, Rng& rng) -> Made {
           return std::make_unique<CoalescingEWalk>(g, token_starts(g, p),
                                                    make_rule(p.get("rule"), g, rng));
         },
         ProcessKind::kToken});
  // PCF-evolving processes: the incoming graph is the POTENTIAL-edge base;
  // the walker steps on an owned DynamicGraph that starts empty and grows
  // as the PCF schedule (drawn from a child split of the walk stream, so
  // trajectories stay thread-count independent) opens edges around it.
  r.add({"pcf-srw",
         "SRW on a PCF-evolving graph (edges open at rate 1, components freeze at rate alpha)",
         {kAlpha, kDt, kStart}, [](const Graph& g, const ParamMap& p, Rng& rng) -> Made {
           Rng schedule_rng = rng.split();
           return std::make_unique<PcfProcess<DynamicSrw>>(
               g, start_vertex(g, p), p.get_double("alpha"),
               pcf_time_per_step(g, p), schedule_rng);
         }});
  r.add({"pcf-eprocess",
         "unvisited-edge process on a PCF-evolving graph (uniform blue choice)",
         {kAlpha, kDt, kStart}, [](const Graph& g, const ParamMap& p, Rng& rng) -> Made {
           Rng schedule_rng = rng.split();
           return std::make_unique<PcfProcess<DynamicEProcess>>(
               g, start_vertex(g, p), p.get_double("alpha"),
               pcf_time_per_step(g, p), schedule_rng);
         }});
  r.add({"pcf-coalescing-srw", "K coalescing SRW tokens on a PCF-evolving graph",
         {kTokens, kAlpha, kDt, kStart},
         [](const Graph& g, const ParamMap& p, Rng& rng) -> Made {
           const std::vector<Vertex> starts = token_starts(g, p);
           Rng schedule_rng = rng.split();
           return std::make_unique<PcfCoalescingSrw>(
               g, starts, p.get_double("alpha"), pcf_time_per_step(g, p),
               schedule_rng);
         },
         ProcessKind::kToken});
  r.add({"herman", "Herman's protocol: odd tokens on a cycle, pairwise annihilation",
         {{"tokens", ParamType::kU32, "3", {}, "initial tokens (odd)"}, kStart},
         [](const Graph& g, const ParamMap& p, Rng&) -> Made {
           return std::make_unique<HermanRing>(g, token_starts(g, p));
         },
         ProcessKind::kToken});
}

void register_builtin_generators(GeneratorRegistry& r) {
  // GeneratorEntry::connected_by_construction, for the families whose code
  // guarantees it: the random-regular generators retry until connected;
  // the others contain a spanning path, cycle or BFS tree by construction.
  constexpr bool kConnected = true;
  r.add({"regular", "random r-regular (Steger-Wormald), connected", {kN, kDegree},
         [](const ParamMap& p, Rng& rng) {
           return random_regular_connected(get_u32(p, "n"), get_u32(p, "r"), rng);
         },
         kConnected});
  r.add({"regular-pairing",
         "random r-regular (pairing model + edge-swap repair), connected",
         {kN, kDegree},
         [](const ParamMap& p, Rng& rng) {
           return random_regular_pairing_connected(get_u32(p, "n"),
                                                   get_u32(p, "r"), rng);
         },
         kConnected});
  r.add({"hamunion", "union of k random Hamiltonian cycles",
         {kN, {"k", ParamType::kU32, "2", {}, "Hamiltonian cycles"}},
         [](const ParamMap& p, Rng& rng) {
           return hamiltonian_cycle_union(get_u32(p, "n"), get_u32(p, "k"), rng);
         },
         kConnected});
  r.add({"cycle", "cycle C_n", {kN},
         [](const ParamMap& p, Rng&) { return cycle_graph(get_u32(p, "n")); },
         kConnected});
  r.add({"complete", "complete graph K_n", {kN},
         [](const ParamMap& p, Rng&) { return complete_graph(get_u32(p, "n")); },
         kConnected});
  r.add({"hypercube", "hypercube H_r on 2^r vertices",
         {{"r", ParamType::kU32, "10", {}, "dimension"}},
         [](const ParamMap& p, Rng&) { return hypercube(get_u32(p, "r")); },
         kConnected});
  r.add({"torus", "2-D torus (cyclic grid)", {kWidth, kHeight},
         [](const ParamMap& p, Rng&) {
           return torus_2d(get_u32(p, "w"), get_u32(p, "h"));
         },
         kConnected});
  r.add({"grid", "2-D open grid", {kWidth, kHeight},
         [](const ParamMap& p, Rng&) {
           return grid_2d(get_u32(p, "w"), get_u32(p, "h"));
         },
         kConnected});
  r.add({"geometric", "random geometric graph in the unit square",
         {kN, {"radius", ParamType::kDouble, "0.03", {}, "connection radius"}},
         [](const ParamMap& p, Rng& rng) {
           return random_geometric(get_u32(p, "n"), p.get_double("radius"), rng);
         }});
  r.add({"erdosrenyi", "Erdos-Renyi G(n, p)",
         {kN, {"p", ParamType::kDouble, "0.001", {}, "edge probability"}},
         [](const ParamMap& p, Rng& rng) {
           return erdos_renyi(get_u32(p, "n"), p.get_double("p"), rng);
         }});
  r.add({"lps", "Lubotzky-Phillips-Sarnak Ramanujan graph X^{p,q}",
         {{"p", ParamType::kU32, "5", {}, "prime p = 1 mod 4 (degree p+1)"},
          {"q", ParamType::kU32, "13", {}, "prime q = 1 mod 4, q != p"}},
         [](const ParamMap& p, Rng&) {
           return lps_graph({get_u32(p, "p"), get_u32(p, "q")});
         },
         kConnected});
  r.add({"margulis", "Margulis-type 8-regular expander on k x k",
         {{"k", ParamType::kU32, "100", {}, "side length"}},
         [](const ParamMap& p, Rng&) { return margulis_expander(get_u32(p, "k")); },
         kConnected});
  r.add({"circulant", "circulant graph C_n(offsets)",
         {kN, {"offsets", ParamType::kString, "1,2", {}, "comma-separated offsets"}},
         [](const ParamMap& p, Rng&) {
           const auto offsets = parse_u64_list("offsets", p.get("offsets"));
           return circulant(get_u32(p, "n"), {offsets.begin(), offsets.end()});
         }});
  r.add({"lollipop", "K_k clique with a path tail",
         {{"clique", ParamType::kU32, "50", {}, "clique size"},
          {"tail", ParamType::kU32, "50", {}, "path length"}},
         [](const ParamMap& p, Rng&) {
           return lollipop(get_u32(p, "clique"), get_u32(p, "tail"));
         },
         kConnected});
  r.add({"pcf",
         "terminal PCF cluster graph: play edge-opening with freezing on a base family to exhaustion, freeze the open subgraph",
         {{"base", ParamType::kFamily, "regular", {},
           "base family (its parameters apply too)"},
          kAlpha},
         [](const ParamMap& p, Rng& rng) {
           const std::string& base_name = p.get("base");
           if (base_name == "pcf")
             throw std::invalid_argument("--base pcf would recurse");
           const Graph base =
               GeneratorRegistry::instance().create(base_name, p, rng);
           PcfSchedule schedule(base, p.get_double("alpha"), rng);
           DynamicGraph dyn(base.num_vertices());
           schedule.run_to_completion(dyn);
           return dyn.freeze();
         }});
  r.add({"petersen", "the Petersen graph", {},
         [](const ParamMap&, Rng&) { return petersen_graph(); }, kConnected});
  r.add({"file", "edge list written by write_edge_list",
         {{"path", ParamType::kString, "graph.txt", {}, "edge-list file"}},
         [](const ParamMap& p, Rng&) { return read_edge_list_file(p.get("path")); }});
}

}  // namespace

std::unique_ptr<UnvisitedEdgeRule> make_rule(const std::string& name,
                                             const Graph& g, Rng& rng) {
  if (name == "uniform") return std::make_unique<UniformRule>();
  if (name == "first") return std::make_unique<FirstSlotRule>();
  if (name == "last") return std::make_unique<LastSlotRule>();
  if (name == "roundrobin") return std::make_unique<RoundRobinRule>(g.num_vertices());
  if (name == "adversary") return std::make_unique<PreferVisitedEndpointRule>();
  if (name == "greedy") return std::make_unique<PreferUnvisitedEndpointRule>();
  if (name == "priority") return std::make_unique<FixedPriorityRule>(g.num_edges(), rng);
  std::string message = unknown_name_message("--rule", name, rule_names()) + " (known:";
  for (const auto& k : rule_names()) message += ' ' + k;
  throw std::invalid_argument(message + ')');
}

const std::vector<std::string>& rule_names() {
  static const std::vector<std::string> names = {
      "uniform", "first", "last", "roundrobin", "adversary", "greedy", "priority"};
  return names;
}

ProcessRegistry& ProcessRegistry::instance() {
  static ProcessRegistry registry = [] {
    ProcessRegistry r;
    register_builtin_processes(r);
    return r;
  }();
  return registry;
}

ParamSchema GeneratorRegistry::schema(const std::string& name,
                                      const ParamMap& params) const {
  const ParamSchema& own = at(name).params;
  ParamSchema out = own;
  for (const ParamSpec& spec : own)
    if (spec.type == ParamType::kFamily) {
      const ParamSchema& base = at(params.get(spec.name, spec.fallback)).params;
      out.insert(out.end(), base.begin(), base.end());
    }
  return out;
}

GeneratorRegistry& GeneratorRegistry::instance() {
  static GeneratorRegistry registry = [] {
    GeneratorRegistry r;
    register_builtin_generators(r);
    return r;
  }();
  return registry;
}

}  // namespace ewalk
