#ifndef FEDAQP_DP_ACCOUNTANT_H_
#define FEDAQP_DP_ACCOUNTANT_H_

#include <cstddef>
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

/// Runtime privacy-budget enforcement (Sec. 5.4): the analyst is granted a
/// total (xi, psi); each answered query charges its (eps, delta); once
/// either component would be exceeded the charge is refused and the query
/// must not be answered.
class PrivacyAccountant {
 public:
  /// Creates an accountant with total budget (xi, psi).
  PrivacyAccountant(double xi, double psi) : total_{xi, psi} {}

  /// Attempts to charge `cost`; on success the spend is recorded, otherwise
  /// returns kBudgetExhausted and records nothing.
  Status Charge(const PrivacyBudget& cost);

  /// Returns `amount` of previously charged budget (a cancelled query's
  /// unspent share under the paper's composition accounting: budget is
  /// only irrevocably consumed by the releases that actually happened).
  /// Clamped so the recorded spend never goes negative; refunding more
  /// than was spent is an accounting bug, reported as InvalidArgument
  /// after the (clamped) refund is applied.
  Status Refund(const PrivacyBudget& amount);

  /// True iff `cost` could currently be charged.
  bool CanCharge(const PrivacyBudget& cost) const;

  /// Records a charge the noisy-answer cache made unnecessary: `amount`
  /// is what the query would have cost without the cached answer. Pure
  /// bookkeeping — the grant itself is untouched.
  void RecordSaving(const PrivacyBudget& amount);

  /// Budget consumed so far.
  const PrivacyBudget& spent() const { return spent_; }
  /// Total grant.
  const PrivacyBudget& total() const { return total_; }
  /// Remaining budget (component-wise, floored at zero).
  PrivacyBudget Remaining() const;
  /// Number of successful charges.
  size_t num_charges() const { return num_charges_; }
  /// Budget that cache-served answers avoided charging (RecordSaving);
  /// the registry's `accountant.cache_served` counts those answers.
  const PrivacyBudget& saved() const { return saved_; }

 private:
  PrivacyBudget total_;
  PrivacyBudget spent_{0.0, 0.0};
  PrivacyBudget saved_{0.0, 0.0};
  size_t num_charges_ = 0;
};

/// Multi-analyst budget enforcement for the session layer (FederationClient):
/// each named analyst holds an independent (xi, psi) grant tracked by its
/// own PrivacyAccountant. Unlike PrivacyAccountant this class is
/// thread-safe — concurrent batch execution may consult it from worker
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

  /// Charges `cost` against `analyst`'s grant, refusing (without
  /// recording) on an unknown analyst or an exhausted budget. `seq` is
  /// the admission sequence of the causing query, recorded in the audit
  /// log (0 = not part of an admission sequence); `coordinator`
  /// attributes the mutation to a remote coordinator (0 = local).
  Status Charge(const std::string& analyst, const PrivacyBudget& cost,
                uint64_t seq = 0, uint32_t coordinator = 0);

  /// Returns `amount` of `analyst`'s previously charged budget (see
  /// PrivacyAccountant::Refund) — how a cancelled query's unexercised
  /// shares flow back to the grant.
  Status Refund(const std::string& analyst, const PrivacyBudget& amount,
                uint64_t seq = 0, uint32_t coordinator = 0);

  /// Remaining budget of `analyst` (NotFound when unregistered).
  Result<PrivacyBudget> Remaining(const std::string& analyst) const;

  /// Budget consumed so far by `analyst` (NotFound when unregistered).
  Result<PrivacyBudget> Spent(const std::string& analyst) const;

  /// The full (xi, psi) grant of `analyst` (NotFound when unregistered).
  Result<PrivacyBudget> Total(const std::string& analyst) const;

  /// Records budget the cache saved `analyst` (see
  /// PrivacyAccountant::RecordSaving). Unknown analysts are ignored.
  void RecordSaving(const std::string& analyst, const PrivacyBudget& amount,
                    uint64_t seq = 0, uint32_t coordinator = 0);

  /// Budget cache-served answers avoided charging `analyst` (NotFound
  /// when unregistered).
  Result<PrivacyBudget> Saved(const std::string& analyst) const;

  /// Registered analyst names, sorted.
  std::vector<std::string> Analysts() const;

 private:
  mutable std::mutex mutex_;
  /// Ordered map so iteration (Analysts) is deterministic.
  std::map<std::string, PrivacyAccountant> ledgers_;
  /// Optional audit sink; appended to under mutex_ (see AttachAuditLog).
  obs::BudgetAuditLog* audit_ = nullptr;
};

}  // namespace fedaqp

#endif  // FEDAQP_DP_ACCOUNTANT_H_
