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

bool PrivacyAccountant::CanCharge(const PrivacyBudget& cost) const {
  if (cost.epsilon < 0.0 || cost.delta < 0.0) return false;
  return spent_.epsilon + cost.epsilon <= total_.epsilon * (1.0 + kSlack) + kSlack &&
         spent_.delta + cost.delta <= total_.delta * (1.0 + kSlack) + kSlack;
}

Status PrivacyAccountant::Charge(const PrivacyBudget& cost) {
  if (cost.epsilon < 0.0 || cost.delta < 0.0) {
    return Status::InvalidArgument("privacy charge must be non-negative");
  }
  if (!CanCharge(cost)) {
    RefusalsCounter().Add();
    return Status::BudgetExhausted(
        "privacy budget exhausted: spent " + spent_.ToString() + " of " +
        total_.ToString() + ", refusing charge " + cost.ToString());
  }
  spent_.epsilon += cost.epsilon;
  spent_.delta += cost.delta;
  ++num_charges_;
  ChargesCounter().Add();
  return Status::OK();
}

Status PrivacyAccountant::Refund(const PrivacyBudget& amount) {
  if (amount.epsilon < 0.0 || amount.delta < 0.0) {
    return Status::InvalidArgument("privacy refund must be non-negative");
  }
  const bool overdrawn = amount.epsilon > spent_.epsilon + kSlack ||
                         amount.delta > spent_.delta + kSlack;
  spent_.epsilon = std::max(0.0, spent_.epsilon - amount.epsilon);
  spent_.delta = std::max(0.0, spent_.delta - amount.delta);
  RefundsCounter().Add();
  if (overdrawn) {
    return Status::InvalidArgument(
        "privacy refund exceeds recorded spend (clamped to zero)");
  }
  return Status::OK();
}

void PrivacyAccountant::RecordSaving(const PrivacyBudget& amount) {
  saved_.epsilon += std::max(0.0, amount.epsilon);
  saved_.delta += std::max(0.0, amount.delta);
  CacheServedCounter().Add();
}

PrivacyBudget PrivacyAccountant::Remaining() const {
  return PrivacyBudget{std::max(0.0, total_.epsilon - spent_.epsilon),
                       std::max(0.0, total_.delta - spent_.delta)};
}

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
  ledgers_.emplace(analyst, PrivacyAccountant(xi, psi));
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
  Status st = it->second.Charge(cost);
  if (st.ok() && audit_ != nullptr) {
    audit_->Append(obs::BudgetAuditLog::Kind::kCharge, analyst, cost.epsilon,
                   cost.delta, seq, coordinator);
  }
  return st;
}

Status AnalystLedger::Refund(const std::string& analyst,
                             const PrivacyBudget& amount, uint64_t seq,
                             uint32_t coordinator) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = ledgers_.find(analyst);
  if (it == ledgers_.end()) {
    return Status::NotFound("ledger: unknown analyst '" + analyst + "'");
  }
  Status st = it->second.Refund(amount);
  if (audit_ != nullptr) {
    // Logged even on the clamped-overdraw path: the clamp mutated the
    // ledger, so replay must apply the identical operation.
    audit_->Append(obs::BudgetAuditLog::Kind::kRefund, analyst, amount.epsilon,
                   amount.delta, seq, coordinator);
  }
  return st;
}

Result<PrivacyBudget> AnalystLedger::Remaining(
    const std::string& analyst) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = ledgers_.find(analyst);
  if (it == ledgers_.end()) {
    return Status::NotFound("ledger: unknown analyst '" + analyst + "'");
  }
  return it->second.Remaining();
}

Result<PrivacyBudget> AnalystLedger::Total(const std::string& analyst) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = ledgers_.find(analyst);
  if (it == ledgers_.end()) {
    return Status::NotFound("ledger: unknown analyst '" + analyst + "'");
  }
  return it->second.total();
}

Result<PrivacyBudget> AnalystLedger::Spent(const std::string& analyst) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = ledgers_.find(analyst);
  if (it == ledgers_.end()) {
    return Status::NotFound("ledger: unknown analyst '" + analyst + "'");
  }
  return it->second.spent();
}

void AnalystLedger::RecordSaving(const std::string& analyst,
                                 const PrivacyBudget& amount, uint64_t seq,
                                 uint32_t coordinator) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = ledgers_.find(analyst);
  if (it == ledgers_.end()) return;
  it->second.RecordSaving(amount);
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
  return it->second.saved();
}

std::vector<std::string> AnalystLedger::Analysts() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(ledgers_.size());
  for (const auto& entry : ledgers_) names.push_back(entry.first);
  return names;
}

}  // namespace fedaqp
