// Test-only ProviderEndpoint wrapper that holds one kind of call at a
// gate, so a test decides when a query may pass a protocol step: to cancel
// it at a known composition stage or round, or to keep it queued past its
// deadline. It also counts the Approximate calls it forwards.

#ifndef FEDAQP_TESTS_GATE_ENDPOINT_H_
#define FEDAQP_TESTS_GATE_ENDPOINT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>

#include "fixture.h"

namespace fedaqp {

/// A gate that one or more GatedEndpoints share, open until Close().
/// While it is closed, every gated call through them waits at it;
/// Release() opens it.
class CallGate {
 public:
  /// Closes the gate: gated calls from now on wait until Release().
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

  /// Blocks until a gated call has reached the closed gate.
  void WaitEntered() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return entered_; });
  }

  /// Called by a GatedEndpoint before it forwards a gated call.
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

/// The call a GatedEndpoint holds at its gate.
struct GatedCall {
  enum class Kind { kCover, kSummary, kApproximate };
  Kind kind = Kind::kCover;
  /// kApproximate only: the round held (0 holds every round).
  uint32_t round = 0;
};

/// Forwards every call to `inner`, except that the `gated` call first
/// passes `gate`.
class GatedEndpoint : public ForwardingEndpoint {
 public:
  GatedEndpoint(std::shared_ptr<ProviderEndpoint> inner,
                std::shared_ptr<CallGate> gate, GatedCall gated = {})
      : ForwardingEndpoint(std::move(inner)),
        gate_(std::move(gate)),
        gated_(gated) {}

  Result<CoverReply> Cover(const CoverRequest& request) override {
    if (gated_.kind == GatedCall::Kind::kCover) gate_->Pass();
    return inner_->Cover(request);
  }
  Result<SummaryReply> PublishSummary(const SummaryRequest& r) override {
    if (gated_.kind == GatedCall::Kind::kSummary) gate_->Pass();
    return inner_->PublishSummary(r);
  }
  Result<EstimateReply> Approximate(const ApproximateRequest& r) override {
    approximate_calls_.fetch_add(1);
    if (gated_.kind == GatedCall::Kind::kApproximate &&
        (gated_.round == 0 || gated_.round == r.round)) {
      gate_->Pass();
    }
    return inner_->Approximate(r);
  }

  /// Approximate calls forwarded so far.
  size_t approximate_calls() const { return approximate_calls_.load(); }

 private:
  std::shared_ptr<CallGate> gate_;
  GatedCall gated_;
  std::atomic<size_t> approximate_calls_{0};
};

}  // namespace fedaqp

#endif  // FEDAQP_TESTS_GATE_ENDPOINT_H_
