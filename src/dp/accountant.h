#ifndef FEDAQP_DP_ACCOUNTANT_H_
#define FEDAQP_DP_ACCOUNTANT_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "dp/budget.h"

namespace fedaqp {

namespace obs {
class BudgetAuditLog;  // obs/audit_log.h
}  // namespace obs

/// Runtime privacy-budget enforcement (Sec. 5.4) for the session layer
/// (FederationClient), the one place a privacy budget is charged: each
/// named analyst is granted an independent total (xi, psi); each answered
/// query charges its (eps, delta); once either component would be
/// exceeded the charge is refused and the query must not be answered.
/// Thread-safe — concurrent batch execution may consult it from worker
/// threads — and non-movable (it is shared by pointer).
class AnalystLedger {
 public:
  AnalystLedger() = default;
  AnalystLedger(const AnalystLedger&) = delete;
  AnalystLedger& operator=(const AnalystLedger&) = delete;

  /// Attaches an append-only audit sink: every subsequent successful
  /// Register/Charge/Refund/RecordSaving is logged, under this ledger's
  /// mutex, in exactly the order it was applied — which is what makes
  /// BudgetAuditLog::Replay reproduce this ledger bit-exactly. Attach
  /// before the first mutation; pass nullptr to detach. Not thread-safe
  /// against concurrent mutations (call while the ledger is idle).
  void AttachAuditLog(obs::BudgetAuditLog* log) { audit_ = log; }

  /// Grants `analyst` a total (xi, psi). Fails on duplicate registration
  /// or a non-positive grant. `coordinator` stamps the audit record when
  /// the grant arrives through the shared ledger service (0 = local).
  Status Register(const std::string& analyst, double xi, double psi,
                  uint32_t coordinator = 0);

  /// True iff `analyst` holds a grant.
  bool Knows(const std::string& analyst) const;

  /// The one affordability rule: whether charging `cost` on top of
  /// `spent` stays within `total`, forgiving accumulated floating-point
  /// drift of 1e-12 (relative and absolute) so a grant divides exactly
  /// into pieces. Charge applies it to the live account;
  /// FederationClient::PlanWorkload applies it to a snapshot.
  static bool Affords(const PrivacyBudget& spent, const PrivacyBudget& total,
                      const PrivacyBudget& cost);

  /// Charges `cost` against `analyst`'s grant, refusing (without
  /// recording) on an unknown analyst, a negative cost (InvalidArgument)
  /// or an exhausted budget (Affords; BudgetExhausted). `seq` is
  /// the admission sequence of the causing query, recorded in the audit
  /// log (0 = not part of an admission sequence); `coordinator`
  /// attributes the mutation to a remote coordinator (0 = local).
  Status Charge(const std::string& analyst, const PrivacyBudget& cost,
                uint64_t seq = 0, uint32_t coordinator = 0);

  /// Returns `amount` of `analyst`'s previously charged budget — how a
  /// cancelled query's unexercised shares flow back to the grant (budget
  /// is only irrevocably consumed by the releases that actually
  /// happened). Clamped so the recorded spend never goes negative;
  /// refunding more than was spent is an accounting bug, reported as
  /// InvalidArgument after the (clamped) refund is applied.
  Status Refund(const std::string& analyst, const PrivacyBudget& amount,
                uint64_t seq = 0, uint32_t coordinator = 0);

  /// Remaining budget of `analyst`, component-wise and floored at zero
  /// (NotFound when unregistered).
  Result<PrivacyBudget> Remaining(const std::string& analyst) const;

  /// Budget consumed so far by `analyst` (NotFound when unregistered).
  Result<PrivacyBudget> Spent(const std::string& analyst) const;

  /// The full (xi, psi) grant of `analyst` (NotFound when unregistered).
  Result<PrivacyBudget> Total(const std::string& analyst) const;

  /// Records a charge the noisy-answer cache made unnecessary: `amount`
  /// is what the query would have cost `analyst` without the cached
  /// answer. Pure bookkeeping — the grant itself is untouched. Unknown
  /// analysts are ignored.
  void RecordSaving(const std::string& analyst, const PrivacyBudget& amount,
                    uint64_t seq = 0, uint32_t coordinator = 0);

  /// Budget cache-served answers avoided charging `analyst` (NotFound
  /// when unregistered).
  Result<PrivacyBudget> Saved(const std::string& analyst) const;

  /// Registered analyst names, sorted.
  std::vector<std::string> Analysts() const;

 private:
  /// One analyst's grant and what has been charged and saved against it.
  struct Account {
    PrivacyBudget total;
    PrivacyBudget spent{0.0, 0.0};
    PrivacyBudget saved{0.0, 0.0};
  };

  mutable std::mutex mutex_;
  /// Ordered map so iteration (Analysts) is deterministic.
  std::map<std::string, Account> ledgers_;
  /// Optional audit sink; appended to under mutex_ (see AttachAuditLog).
  obs::BudgetAuditLog* audit_ = nullptr;
};

}  // namespace fedaqp

#endif  // FEDAQP_DP_ACCOUNTANT_H_
