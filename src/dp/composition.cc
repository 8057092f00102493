#include "dp/composition.h"

#include <cmath>

namespace fedaqp {

Result<PrivacyBudget> PerQuerySequential(double xi, double psi,
                                         size_t num_queries) {
  if (xi <= 0.0 || num_queries == 0) {
    return Status::InvalidArgument(
        "per-query budget: need xi > 0 and at least one query");
  }
  double n = static_cast<double>(num_queries);
  return PrivacyBudget{xi / n, psi / n};
}

Result<PrivacyBudget> PerQueryAdvanced(double xi, double psi,
                                       size_t num_queries) {
  if (xi <= 0.0 || psi <= 0.0 || num_queries == 0) {
    return Status::InvalidArgument(
        "per-query advanced budget: need xi > 0, psi > 0, queries > 0");
  }
  double n = static_cast<double>(num_queries);
  double delta = psi / n;
  double eps = xi / (2.0 * std::sqrt(2.0 * n * std::log(1.0 / delta)));
  return PrivacyBudget{eps, delta};
}

}  // namespace fedaqp
