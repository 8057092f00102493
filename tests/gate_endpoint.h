// Test-only ProviderEndpoint wrapper that holds Cover calls at a gate,
// so a test decides when a query may start its protocol: to cancel it at
// a known composition stage, or to keep it queued past its deadline.

#ifndef FEDAQP_TESTS_GATE_ENDPOINT_H_
#define FEDAQP_TESTS_GATE_ENDPOINT_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>

#include "exec/endpoint.h"

namespace fedaqp {

/// A gate that one or more GatedEndpoints share, open until Close().
/// While it is closed, every Cover call through them waits at it;
/// Release() opens it.
class CoverGate {
 public:
  /// Closes the gate: Cover calls from now on wait until Release().
  void Close() {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    entered_ = false;
  }

  void Release() {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = false;
    ++releases_;
    cv_.notify_all();
  }

  /// Blocks until a Cover call has reached the closed gate.
  void WaitEntered() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return entered_; });
  }

  /// Called by a GatedEndpoint before it forwards a Cover call.
  void Pass() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!closed_) return;
    entered_ = true;
    cv_.notify_all();
    const uint64_t releases = releases_;
    cv_.wait(lock, [&] { return releases_ != releases; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool closed_ = false;
  bool entered_ = false;
  uint64_t releases_ = 0;
};

/// Forwards every call to `inner`, except that Cover first passes `gate`.
class GatedEndpoint : public ProviderEndpoint {
 public:
  GatedEndpoint(std::shared_ptr<ProviderEndpoint> inner,
                std::shared_ptr<CoverGate> gate)
      : inner_(std::move(inner)), gate_(std::move(gate)) {}

  const EndpointInfo& info() const override { return inner_->info(); }
  Result<CoverReply> Cover(const CoverRequest& request) override {
    gate_->Pass();
    return inner_->Cover(request);
  }
  Result<SummaryReply> PublishSummary(const SummaryRequest& r) override {
    return inner_->PublishSummary(r);
  }
  Result<EstimateReply> Approximate(const ApproximateRequest& r) override {
    return inner_->Approximate(r);
  }
  Result<EstimateReply> ExactAnswer(const ExactAnswerRequest& r) override {
    return inner_->ExactAnswer(r);
  }
  Result<ExactScanReply> ExactFullScan(const ExactScanRequest& r) override {
    return inner_->ExactFullScan(r);
  }
  void EndQuery(uint64_t id) override { inner_->EndQuery(id); }

 private:
  std::shared_ptr<ProviderEndpoint> inner_;
  std::shared_ptr<CoverGate> gate_;
};

}  // namespace fedaqp

#endif  // FEDAQP_TESTS_GATE_ENDPOINT_H_
