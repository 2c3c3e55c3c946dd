#pragma once

#include <cstddef>
#include <vector>

namespace dpipe {

/// A point tracked by the partitioner's dynamic program. The paper's
/// objective (Eqn. 2) is `(M + 2S - 2) * W + Y`, but the recursion composes
/// both W and Y with `max`, so a scalar DP is not exact: two candidate
/// sub-solutions can trade W against Y. Each DP state therefore keeps the
/// Pareto frontier of achievable (W, Y) pairs.
struct ParetoPoint {
  double w = 0.0;       ///< T0 so far (max over placed stages).
  double y = 0.0;       ///< T0^{S-C} so far (max over placed stages).
  std::size_t tag = 0;  ///< Opaque backpointer for plan reconstruction.

  friend bool operator==(const ParetoPoint&, const ParetoPoint&) = default;
};

/// Maintains a set of mutually non-dominated (w, y) points (smaller is
/// better in both coordinates). Insertion is linear in the frontier size,
/// which stays small in practice (W and Y are strongly correlated).
class ParetoFrontier {
 public:
  /// Inserts `p` unless an existing point dominates it; removes points that
  /// `p` dominates. Returns true if the point was inserted. Defined here so
  /// the DP loops, which call it millions of times per plan, inline it.
  bool insert(ParetoPoint p) {
    for (const ParetoPoint& q : points_) {
      if (dominates(q, p)) {
        return false;
      }
    }
    std::erase_if(points_,
                  [&p](const ParetoPoint& q) { return dominates(p, q); });
    points_.push_back(p);
    return true;
  }

  [[nodiscard]] const std::vector<ParetoPoint>& points() const {
    return points_;
  }
  [[nodiscard]] bool empty() const { return points_.empty(); }
  /// Drops every point, keeping the storage for reuse.
  void clear() { points_.clear(); }
  [[nodiscard]] std::size_t size() const { return points_.size(); }

  /// Returns the point minimizing `coeff_w * w + y`, which is how the
  /// frontier is finally scalarized by Eqn. (2). Frontier must be non-empty.
  [[nodiscard]] ParetoPoint best(double coeff_w) const;

 private:
  static bool dominates(const ParetoPoint& a, const ParetoPoint& b) {
    return a.w <= b.w && a.y <= b.y;
  }

  std::vector<ParetoPoint> points_;
};

}  // namespace dpipe
