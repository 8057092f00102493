#include "cache/budget_planner.h"

#include <algorithm>

namespace fedaqp {

PrivacyBudget BudgetPlanner::NextQueryBudget(const PrivacyBudget& remaining,
                                             size_t horizon) const {
  const double def = default_budget_.epsilon;
  double eps = def;
  if (horizon > 0) {
    eps = remaining.epsilon / static_cast<double>(horizon);
    eps = std::min(eps, def);
    eps = std::max(eps, kPlanEpsFloor);
  }
  return PrivacyBudget{eps, default_budget_.delta};
}

}  // namespace fedaqp
