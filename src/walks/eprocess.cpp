#include "walks/eprocess.hpp"

#include <stdexcept>

#include "walks/blue_choice.hpp"
#include "walks/step_core.hpp"

namespace ewalk {

EProcess::EProcess(const Graph& g, Vertex start, UnvisitedEdgeRule& rule,
                   EProcessOptions options)
    : g_(&g), rule_(&rule), uniform_rule_(rule.uniform_over_candidates()),
      options_(options), start_(start), current_(start),
      cover_(g.num_vertices(), g.num_edges()), blue_(g) {
  if (start >= g.num_vertices())
    throw std::invalid_argument("EProcess: start vertex out of range");
  cover_.visit_vertex(start, 0);
}

void EProcess::note_transition(StepColor color, Vertex from, Vertex to) {
  if (!options_.record_phases) return;
  if (phases_.empty() || phases_.back().color != color) {
    phases_.push_back(Phase{color, steps_, steps_, from, to});
  } else {
    phases_.back().last_step = steps_;
    phases_.back().end_vertex = to;
  }
}

// step is out of line and cache-line aligned, so the per-step code sits at
// the same offset in every build instead of wherever the sizes of unrelated
// files push it. On Skylake-family cores (the JCC erratum microcode fix) the
// step loop ran ~15% slower when its compare-and-branch straddled a 32-byte
// boundary. The trial kernel (engine/bundle.hpp) calls step directly.
__attribute__((aligned(64))) StepColor EProcess::step(Rng& rng) {
  const Vertex v = current_;
  ++steps_;
  StaticBlueIndex index{blue_, *g_, *rule_, uniform_rule_, cover_, steps_};
  Slot slot;
  const TransitionKind kind = eprocess_transition(*g_, index, v, rng, &slot);
  if (kind == TransitionKind::kIsolated)
    throw std::logic_error("EProcess: stuck at isolated vertex");
  const Vertex to = slot.neighbor;
  StepColor color;
  if (kind == TransitionKind::kBlue) {
    color = StepColor::kBlue;
    ++blue_steps_;
  } else {
    color = StepColor::kRed;
    ++red_steps_;
  }
  note_transition(color, v, to);
  current_ = to;
  cover_.visit_vertex(to, steps_);
  return color;
}

}  // namespace ewalk
