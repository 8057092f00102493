#include "dp/accountant.h"

#include <algorithm>

#include "obs/audit_log.h"
#include "obs/metrics.h"

namespace fedaqp {

namespace {
// Tolerates accumulated floating-point drift when a caller charges exactly
// the remaining budget in several pieces.
constexpr double kSlack = 1e-12;

// Registry handles, resolved once (the lookups take a mutex; the
// increments afterwards are lock-free stripe adds).
obs::Counter& ChargesCounter() {
  static obs::Counter* c =
      obs::MetricRegistry::Global().GetCounter("accountant.charges");
  return *c;
}
obs::Counter& RefusalsCounter() {
  static obs::Counter* c =
      obs::MetricRegistry::Global().GetCounter("accountant.refusals");
  return *c;
}
obs::Counter& RefundsCounter() {
  static obs::Counter* c =
      obs::MetricRegistry::Global().GetCounter("accountant.refunds");
  return *c;
}
obs::Counter& CacheServedCounter() {
  static obs::Counter* c =
      obs::MetricRegistry::Global().GetCounter("accountant.cache_served");
  return *c;
}
}  // namespace

Status AnalystLedger::Register(const std::string& analyst, double xi,
                               double psi, uint32_t coordinator) {
  if (analyst.empty()) {
    return Status::InvalidArgument("ledger: analyst name must be non-empty");
  }
  if (xi <= 0.0 || psi < 0.0) {
    return Status::InvalidArgument("ledger: grant must satisfy xi > 0, psi >= 0");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (ledgers_.find(analyst) != ledgers_.end()) {
    return Status::InvalidArgument("ledger: analyst '" + analyst +
                                   "' already registered");
  }
  ledgers_.emplace(analyst, Account{PrivacyBudget{xi, psi}});
  if (audit_ != nullptr) {
    audit_->Append(obs::BudgetAuditLog::Kind::kRegister, analyst, xi, psi,
                   /*seq=*/0, coordinator);
  }
  return Status::OK();
}

bool AnalystLedger::Knows(const std::string& analyst) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ledgers_.find(analyst) != ledgers_.end();
}

Status AnalystLedger::Charge(const std::string& analyst,
                             const PrivacyBudget& cost, uint64_t seq,
                             uint32_t coordinator) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = ledgers_.find(analyst);
  if (it == ledgers_.end()) {
    return Status::NotFound("ledger: unknown analyst '" + analyst + "'");
  }
  if (cost.epsilon < 0.0 || cost.delta < 0.0) {
    return Status::InvalidArgument("privacy charge must be non-negative");
  }
  Account& account = it->second;
  const bool fits =
      account.spent.epsilon + cost.epsilon <=
          account.total.epsilon * (1.0 + kSlack) + kSlack &&
      account.spent.delta + cost.delta <=
          account.total.delta * (1.0 + kSlack) + kSlack;
  if (!fits) {
    RefusalsCounter().Add();
    return Status::BudgetExhausted(
        "privacy budget exhausted: spent " + account.spent.ToString() +
        " of " + account.total.ToString() + ", refusing charge " +
        cost.ToString());
  }
  account.spent.epsilon += cost.epsilon;
  account.spent.delta += cost.delta;
  ChargesCounter().Add();
  if (audit_ != nullptr) {
    audit_->Append(obs::BudgetAuditLog::Kind::kCharge, analyst, cost.epsilon,
                   cost.delta, seq, coordinator);
  }
  return Status::OK();
}

Status AnalystLedger::Refund(const std::string& analyst,
                             const PrivacyBudget& amount, uint64_t seq,
                             uint32_t coordinator) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = ledgers_.find(analyst);
  if (it == ledgers_.end()) {
    return Status::NotFound("ledger: unknown analyst '" + analyst + "'");
  }
  if (amount.epsilon < 0.0 || amount.delta < 0.0) {
    return Status::InvalidArgument("privacy refund must be non-negative");
  }
  PrivacyBudget& spent = it->second.spent;
  const bool overdrawn = amount.epsilon > spent.epsilon + kSlack ||
                         amount.delta > spent.delta + kSlack;
  spent.epsilon = std::max(0.0, spent.epsilon - amount.epsilon);
  spent.delta = std::max(0.0, spent.delta - amount.delta);
  RefundsCounter().Add();
  if (audit_ != nullptr) {
    // Logged even on the clamped-overdraw path: the clamp mutated the
    // ledger, so replay must apply the identical operation.
    audit_->Append(obs::BudgetAuditLog::Kind::kRefund, analyst, amount.epsilon,
                   amount.delta, seq, coordinator);
  }
  if (overdrawn) {
    return Status::InvalidArgument(
        "privacy refund exceeds recorded spend (clamped to zero)");
  }
  return Status::OK();
}

Result<PrivacyBudget> AnalystLedger::Remaining(
    const std::string& analyst) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = ledgers_.find(analyst);
  if (it == ledgers_.end()) {
    return Status::NotFound("ledger: unknown analyst '" + analyst + "'");
  }
  const Account& account = it->second;
  return PrivacyBudget{
      std::max(0.0, account.total.epsilon - account.spent.epsilon),
      std::max(0.0, account.total.delta - account.spent.delta)};
}

Result<PrivacyBudget> AnalystLedger::Total(const std::string& analyst) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = ledgers_.find(analyst);
  if (it == ledgers_.end()) {
    return Status::NotFound("ledger: unknown analyst '" + analyst + "'");
  }
  return it->second.total;
}

Result<PrivacyBudget> AnalystLedger::Spent(const std::string& analyst) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = ledgers_.find(analyst);
  if (it == ledgers_.end()) {
    return Status::NotFound("ledger: unknown analyst '" + analyst + "'");
  }
  return it->second.spent;
}

void AnalystLedger::RecordSaving(const std::string& analyst,
                                 const PrivacyBudget& amount, uint64_t seq,
                                 uint32_t coordinator) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = ledgers_.find(analyst);
  if (it == ledgers_.end()) return;
  PrivacyBudget& saved = it->second.saved;
  saved.epsilon += std::max(0.0, amount.epsilon);
  saved.delta += std::max(0.0, amount.delta);
  CacheServedCounter().Add();
  if (audit_ != nullptr) {
    audit_->Append(obs::BudgetAuditLog::Kind::kSaving, analyst, amount.epsilon,
                   amount.delta, seq, coordinator);
  }
}

Result<PrivacyBudget> AnalystLedger::Saved(const std::string& analyst) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = ledgers_.find(analyst);
  if (it == ledgers_.end()) {
    return Status::NotFound("ledger: unknown analyst '" + analyst + "'");
  }
  return it->second.saved;
}

std::vector<std::string> AnalystLedger::Analysts() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(ledgers_.size());
  for (const auto& entry : ledgers_) names.push_back(entry.first);
  return names;
}

}  // namespace fedaqp
