#ifndef PERFBENCH_TIMED_H_
#define PERFBENCH_TIMED_H_

// Timing decorators around the two public seams a query crosses below the
// client: ProviderEndpoint (every protocol call into a provider, local or
// over loopback RPC) and serve::LedgerBackend (every budget mutation). They
// forward each call unchanged and, while recording is switched on, append
// one CallRecord per call to a per-thread buffer. The records are both the
// per-layer statistics and the spans of the Chrome trace.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/endpoint.h"
#include "serve/ledger_backend.h"

namespace perfbench {

/// Seconds on the steady clock since the first call in this process. The
/// load generators stamp due times and submissions with the same clock.
double Now();

enum class Call : uint8_t {
  kCover = 0,
  kSummary,
  kApproximate,
  kExactAnswer,
  kExactScan,
  kEndQuery,
  kCharge,
  kRefund,
  kSaving,
};
constexpr size_t kNumCalls = 9;

/// "endpoint.cover", ..., "ledger.saving".
const char* CallName(Call call);
/// True for the ProviderEndpoint calls, false for ledger calls.
bool IsEndpointCall(Call call);

struct CallRecord {
  double start = 0.0;
  double end = 0.0;
  /// Provider-reported compute seconds of the reply (ProviderWorkStats);
  /// negative when the call carries none (EndQuery, ledger calls, errors).
  double compute = -1.0;
  /// Session query_id (endpoint calls; 0 for the sessionless exact scan)
  /// or admission seq (ledger calls).
  uint64_t key = 0;
  /// Dense index of the recording thread.
  uint32_t thread = 0;
  Call call = Call::kCover;
  uint8_t provider = 0;
};

/// Process-wide sink for CallRecords: one buffer per recording thread, so
/// the hot path takes only its own uncontended lock.
class CallRecorder {
 public:
  static CallRecorder& Global();

  /// Recording switch (off by default). Decorators forward calls either
  /// way; only the clock reads and the append depend on it.
  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void Record(CallRecord record);

  /// Every record whose start lies in [from, to), across threads.
  std::vector<CallRecord> Collect(double from, double to) const;

 private:
  struct Buffer {
    std::mutex mutex;
    std::vector<CallRecord> records;
    uint32_t index = 0;
  };
  Buffer* ThisThreadBuffer();

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// ProviderEndpoint decorator. Forwards IssueAsync, max_concurrent_calls
/// and ConfigureScanSharding untouched, so scheduling, the admission gate
/// and doorbell batching behave exactly as on the wrapped endpoint.
class TimedEndpoint final : public fedaqp::ProviderEndpoint {
 public:
  TimedEndpoint(std::shared_ptr<fedaqp::ProviderEndpoint> inner,
                uint8_t provider)
      : inner_(std::move(inner)), provider_(provider) {}

  const fedaqp::EndpointInfo& info() const override { return inner_->info(); }
  fedaqp::Result<fedaqp::CoverReply> Cover(
      const fedaqp::CoverRequest& request) override;
  fedaqp::Result<fedaqp::SummaryReply> PublishSummary(
      const fedaqp::SummaryRequest& request) override;
  fedaqp::Result<fedaqp::EstimateReply> Approximate(
      const fedaqp::ApproximateRequest& request) override;
  fedaqp::Result<fedaqp::EstimateReply> ExactAnswer(
      const fedaqp::ExactAnswerRequest& request) override;
  fedaqp::Result<fedaqp::ExactScanReply> ExactFullScan(
      const fedaqp::ExactScanRequest& request) override;
  void EndQuery(uint64_t query_id) override;

  void IssueAsync(std::function<void()> call) override {
    inner_->IssueAsync(std::move(call));
  }
  size_t max_concurrent_calls() const override {
    return inner_->max_concurrent_calls();
  }
  void ConfigureScanSharding(fedaqp::ThreadPool* scan_pool,
                             size_t num_scan_shards) override {
    inner_->ConfigureScanSharding(scan_pool, num_scan_shards);
  }

 private:
  std::shared_ptr<fedaqp::ProviderEndpoint> inner_;
  uint8_t provider_;
};

/// LedgerBackend decorator: times Charge, Refund and RecordSaving; the
/// reads forward untimed.
class TimedLedger final : public fedaqp::serve::LedgerBackend {
 public:
  explicit TimedLedger(std::shared_ptr<fedaqp::serve::LedgerBackend> inner)
      : inner_(std::move(inner)) {}

  fedaqp::Status Register(const std::string& analyst, double xi,
                          double psi) override {
    return inner_->Register(analyst, xi, psi);
  }
  fedaqp::Result<bool> Knows(const std::string& analyst) const override {
    return inner_->Knows(analyst);
  }
  fedaqp::Status Charge(const std::string& analyst,
                        const fedaqp::PrivacyBudget& cost,
                        uint64_t seq) override;
  fedaqp::Status Refund(const std::string& analyst,
                        const fedaqp::PrivacyBudget& amount,
                        uint64_t seq) override;
  void RecordSaving(const std::string& analyst,
                    const fedaqp::PrivacyBudget& amount,
                    uint64_t seq) override;
  fedaqp::Result<fedaqp::PrivacyBudget> Remaining(
      const std::string& analyst) const override {
    return inner_->Remaining(analyst);
  }
  fedaqp::Result<fedaqp::PrivacyBudget> Spent(
      const std::string& analyst) const override {
    return inner_->Spent(analyst);
  }

 private:
  std::shared_ptr<fedaqp::serve::LedgerBackend> inner_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_H_
