#ifndef FEDAQP_CACHE_BUDGET_PLANNER_H_
#define FEDAQP_CACHE_BUDGET_PLANNER_H_

#include <cstddef>
#include <vector>

#include "dp/budget.h"

namespace fedaqp {

/// Smallest per-query epsilon still considered useful: the planner never
/// stretches a grant below this accuracy.
constexpr double kPlanEpsFloor = 0.05;

/// Workload-aware per-query budget planning — the budget/accuracy
/// trade-off knob (Shrinkwrap, PAPERS.md) over the analyst's (xi, psi)
/// grant: the stretch rule that spreads a remaining grant over further
/// queries, shrinking per-query epsilon (never below kPlanEpsFloor, never
/// above the configured default) so as many queries as possible are
/// answered, and the plan FederationClient::PlanWorkload fills by running
/// admission on a snapshot.
class BudgetPlanner {
 public:

  struct PlannedQuery {
    /// (eps, delta) to submit the query with. For a predicted cache hit,
    /// the budget admission resolved it at: nothing will be charged, and
    /// submitted with it the query is served the entry the plan found.
    PrivacyBudget budget{0.0, 0.0};
    bool predicted_cached = false;
    /// False when admission would refuse the query: the grant cannot
    /// cover it even at kPlanEpsFloor, or the query itself is invalid.
    bool answerable = true;
  };

  struct WorkloadPlan {
    std::vector<PlannedQuery> queries;
    size_t predicted_hits = 0;
    size_t answerable = 0;
    /// Per-chargeable-query epsilon the plan settled on.
    double eps_per_query = 0.0;
    PrivacyBudget projected_spend{0.0, 0.0};
  };

  /// `default_budget`: the configured per-query charge.
  explicit BudgetPlanner(PrivacyBudget default_budget)
      : default_budget_(default_budget) {}

  /// The stretch rule: the budget for one chargeable query when
  /// `horizon` further queries are expected against `remaining` —
  /// remaining epsilon spread over the horizon, clamped to
  /// [kPlanEpsFloor, default]. Delta stays the configured default (it is
  /// consumed per released estimate, not scaled by accuracy).
  PrivacyBudget NextQueryBudget(const PrivacyBudget& remaining,
                                size_t horizon) const;

 private:
  PrivacyBudget default_budget_;
};

}  // namespace fedaqp

#endif  // FEDAQP_CACHE_BUDGET_PLANNER_H_
