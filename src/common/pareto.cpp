#include "common/pareto.h"

#include <algorithm>

#include "common/error.h"

namespace dpipe {

ParetoPoint ParetoFrontier::best(double coeff_w) const {
  ensure(!points_.empty(), "ParetoFrontier::best on empty frontier");
  return *std::min_element(points_.begin(), points_.end(),
                           [&](const ParetoPoint& a, const ParetoPoint& b) {
                             return coeff_w * a.w + a.y < coeff_w * b.w + b.y;
                           });
}

}  // namespace dpipe
