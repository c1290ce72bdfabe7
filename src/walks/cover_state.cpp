#include "walks/cover_state.hpp"

#include <algorithm>

namespace ewalk {

CoverState::CoverState(Vertex n, EdgeId m)
    : n_(n), m_(m), edge_visited_(m, 0), visit_count_(n, 0) {}

std::uint32_t CoverState::min_visit_count() const {
  if (visit_count_.empty()) return 0;
  return *std::min_element(visit_count_.begin(), visit_count_.end());
}

}  // namespace ewalk
