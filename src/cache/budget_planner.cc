#include "cache/budget_planner.h"

#include <algorithm>

namespace fedaqp {

PrivacyBudget BudgetPlanner::NextQueryBudget(const PrivacyBudget& remaining,
                                             size_t horizon) const {
  const double def = options_.default_budget.epsilon;
  double eps = def;
  if (horizon > 0) {
    eps = remaining.epsilon / static_cast<double>(horizon);
    eps = std::min(eps, def);
    eps = std::max(eps, options_.eps_floor);
  }
  return PrivacyBudget{eps, options_.default_budget.delta};
}

}  // namespace fedaqp
