#ifndef FEDAQP_DP_BUDGET_H_
#define FEDAQP_DP_BUDGET_H_

#include <string>

#include "common/status.h"

namespace fedaqp {

/// An (epsilon, delta) differential-privacy budget.
struct PrivacyBudget {
  double epsilon = 1.0;
  double delta = 1e-3;

  /// Component-wise sum (sequential composition).
  PrivacyBudget operator+(const PrivacyBudget& o) const {
    return PrivacyBudget{epsilon + o.epsilon, delta + o.delta};
  }

  /// Validity: epsilon > 0, delta in [0, 1).
  Status Validate() const {
    if (epsilon <= 0.0) {
      return Status::InvalidArgument("epsilon must be positive");
    }
    if (delta < 0.0 || delta >= 1.0) {
      return Status::InvalidArgument("delta must be in [0, 1)");
    }
    return Status::OK();
  }

  std::string ToString() const {
    return "(eps=" + std::to_string(epsilon) + ", delta=" +
           std::to_string(delta) + ")";
  }
};

/// The paper's per-query budget split (Sec. 5.4): hp1 + hp2 + hp3 = 1 with
/// eps_O = hp1*eps (allocation), eps_S = hp2*eps (EM sampling) and
/// eps_E = hp3*eps (estimate release). Defaults follow the evaluation
/// setup: 0.1 / 0.1 / 0.8.
struct BudgetSplit {
  double hp_allocation = 0.1;
  double hp_sampling = 0.1;
  double hp_estimate = 0.8;

  Status Validate() const {
    if (hp_allocation <= 0.0 || hp_sampling <= 0.0 || hp_estimate <= 0.0) {
      return Status::InvalidArgument("budget split fractions must be positive");
    }
    // A query releases eps_O + eps_S + eps_E = (sum of shares) * eps and
    // is charged eps, so a sum above 1 would release more than the ledger
    // charges. Below 1 it releases less, which is safe; the tolerance
    // there only forgives decimal shares that do not sum to 1 exactly.
    const double total = hp_allocation + hp_sampling + hp_estimate;
    if (total < 0.999 || total > 1.0) {
      return Status::InvalidArgument(
          "budget split fractions must sum to 1 (and never above it)");
    }
    return Status::OK();
  }
};

}  // namespace fedaqp

#endif  // FEDAQP_DP_BUDGET_H_
