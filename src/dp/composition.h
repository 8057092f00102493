#ifndef FEDAQP_DP_COMPOSITION_H_
#define FEDAQP_DP_COMPOSITION_H_

#include <cstddef>
#include <vector>

#include "common/result.h"
#include "dp/budget.h"

namespace fedaqp {

/// Per-query budgets from a total (xi, psi) grant under sequential and
/// advanced composition (Sec. 6.6). These are pure budget computations;
/// the runtime enforcement lives in AnalystLedger (dp/accountant.h).

/// The paper's per-query budget under plain sequential composition for a
/// total (xi, psi) split across n queries: eps = xi/n, delta = psi/n.
Result<PrivacyBudget> PerQuerySequential(double xi, double psi,
                                         size_t num_queries);

/// The paper's per-query budget under advanced composition (Sec. 6.6):
///   eps = xi / (2 * sqrt(2 * n * log(1/delta))),  delta = psi / n.
Result<PrivacyBudget> PerQueryAdvanced(double xi, double psi,
                                       size_t num_queries);

}  // namespace fedaqp

#endif  // FEDAQP_DP_COMPOSITION_H_
