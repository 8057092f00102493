#ifndef FEDAQP_CACHE_BUDGET_PLANNER_H_
#define FEDAQP_CACHE_BUDGET_PLANNER_H_

#include <cstddef>
#include <vector>

#include "dp/budget.h"

namespace fedaqp {

/// Workload-aware per-query budget planning — the budget/accuracy
/// trade-off knob (Shrinkwrap, PAPERS.md) over the analyst's (xi, psi)
/// grant: the stretch rule that spreads a remaining grant over further
/// queries, shrinking per-query epsilon (never below `eps_floor`, never
/// above the configured default) so as many queries as possible are
/// answered, and the plan FederationClient::PlanWorkload fills by running
/// admission on a snapshot.
class BudgetPlanner {
 public:
  struct PlannerOptions {
    /// Configured default per-query charge.
    PrivacyBudget default_budget{1.0, 1e-3};
    /// Smallest per-query epsilon still considered useful; the planner
    /// refuses to stretch the grant below this accuracy.
    double eps_floor = 0.05;
  };

  struct PlannedQuery {
    /// (eps, delta) to submit the query with. For a predicted cache hit,
    /// the budget admission resolved it at: nothing will be charged, and
    /// submitted with it the query is served the entry the plan found.
    PrivacyBudget budget{0.0, 0.0};
    bool predicted_cached = false;
    /// False when admission would refuse the query: the grant cannot
    /// cover it even at eps_floor, or the query itself is invalid.
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

  explicit BudgetPlanner(PlannerOptions options) : options_(options) {}

  /// The stretch rule: the budget for one chargeable query when
  /// `horizon` further queries are expected against `remaining` —
  /// remaining epsilon spread over the horizon, clamped to
  /// [eps_floor, default]. Delta stays the configured default (it is
  /// consumed per released estimate, not scaled by accuracy).
  PrivacyBudget NextQueryBudget(const PrivacyBudget& remaining,
                                size_t horizon) const;

  const PlannerOptions& options() const { return options_; }

 private:
  PlannerOptions options_;
};

}  // namespace fedaqp

#endif  // FEDAQP_CACHE_BUDGET_PLANNER_H_
