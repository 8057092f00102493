#include "timed.h"

#include <chrono>

namespace perfbench {

double Now() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

const char* CallName(Call call) {
  static const char* const kNames[kNumCalls] = {
      "endpoint.cover",      "endpoint.summary",   "endpoint.approximate",
      "endpoint.exact_answer", "endpoint.exact_scan", "endpoint.end_query",
      "ledger.charge",       "ledger.refund",      "ledger.saving",
  };
  return kNames[static_cast<size_t>(call)];
}

bool IsEndpointCall(Call call) { return call < Call::kCharge; }

CallRecorder& CallRecorder::Global() {
  static CallRecorder* recorder = new CallRecorder();
  return *recorder;
}

CallRecorder::Buffer* CallRecorder::ThisThreadBuffer() {
  // One recorder per process (Global), so a plain thread_local suffices.
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffer = buffers_.back().get();
    buffer->index = static_cast<uint32_t>(buffers_.size() - 1);
  }
  return buffer;
}

void CallRecorder::Record(CallRecord record) {
  Buffer* buffer = ThisThreadBuffer();
  record.thread = buffer->index;
  std::lock_guard<std::mutex> lock(buffer->mutex);
  buffer->records.push_back(record);
}

std::vector<CallRecord> CallRecorder::Collect(double from, double to) const {
  std::vector<CallRecord> out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    for (const CallRecord& r : buffer->records) {
      if (r.start >= from && r.start < to) out.push_back(r);
    }
  }
  return out;
}

namespace {

/// Runs `fn` and records it when recording is on. `compute_of` extracts
/// the provider-reported compute seconds from a successful reply.
template <typename Fn, typename ComputeOf>
auto TimeCall(Call call, uint8_t provider, uint64_t key, Fn&& fn,
              ComputeOf&& compute_of) -> decltype(fn()) {
  CallRecorder& recorder = CallRecorder::Global();
  if (!recorder.enabled()) return fn();
  CallRecord record;
  record.start = Now();
  auto result = fn();
  record.end = Now();
  record.compute = compute_of(result);
  record.key = key;
  record.call = call;
  record.provider = provider;
  recorder.Record(record);
  return result;
}

template <typename Reply, typename Get>
auto ComputeOr(Get get) {
  return [get](const fedaqp::Result<Reply>& r) {
    return r.ok() ? get(r.value()) : -1.0;
  };
}

auto NoCompute() {
  return [](const auto&) { return -1.0; };
}

}  // namespace

using fedaqp::Result;

Result<fedaqp::CoverReply> TimedEndpoint::Cover(
    const fedaqp::CoverRequest& request) {
  return TimeCall(
      Call::kCover, provider_, request.query_id,
      [&] { return inner_->Cover(request); },
      ComputeOr<fedaqp::CoverReply>(
          [](const fedaqp::CoverReply& r) { return r.work.compute_seconds; }));
}

Result<fedaqp::SummaryReply> TimedEndpoint::PublishSummary(
    const fedaqp::SummaryRequest& request) {
  return TimeCall(
      Call::kSummary, provider_, request.query_id,
      [&] { return inner_->PublishSummary(request); },
      ComputeOr<fedaqp::SummaryReply>([](const fedaqp::SummaryReply& r) {
        return r.summary.work.compute_seconds;
      }));
}

Result<fedaqp::EstimateReply> TimedEndpoint::Approximate(
    const fedaqp::ApproximateRequest& request) {
  return TimeCall(
      Call::kApproximate, provider_, request.query_id,
      [&] { return inner_->Approximate(request); },
      ComputeOr<fedaqp::EstimateReply>([](const fedaqp::EstimateReply& r) {
        return r.estimate.work.compute_seconds;
      }));
}

Result<fedaqp::EstimateReply> TimedEndpoint::ExactAnswer(
    const fedaqp::ExactAnswerRequest& request) {
  return TimeCall(
      Call::kExactAnswer, provider_, request.query_id,
      [&] { return inner_->ExactAnswer(request); },
      ComputeOr<fedaqp::EstimateReply>([](const fedaqp::EstimateReply& r) {
        return r.estimate.work.compute_seconds;
      }));
}

Result<fedaqp::ExactScanReply> TimedEndpoint::ExactFullScan(
    const fedaqp::ExactScanRequest& request) {
  return TimeCall(
      Call::kExactScan, provider_, 0,
      [&] { return inner_->ExactFullScan(request); },
      ComputeOr<fedaqp::ExactScanReply>(
          [](const fedaqp::ExactScanReply& r) { return r.work.compute_seconds; }));
}

void TimedEndpoint::EndQuery(uint64_t query_id) {
  TimeCall(
      Call::kEndQuery, provider_, query_id,
      [&] {
        inner_->EndQuery(query_id);
        return 0;
      },
      NoCompute());
}

fedaqp::Status TimedLedger::Charge(const std::string& analyst,
                                   const fedaqp::PrivacyBudget& cost,
                                   uint64_t seq) {
  return TimeCall(
      Call::kCharge, 0, seq, [&] { return inner_->Charge(analyst, cost, seq); },
      NoCompute());
}

fedaqp::Status TimedLedger::Refund(const std::string& analyst,
                                   const fedaqp::PrivacyBudget& amount,
                                   uint64_t seq) {
  return TimeCall(
      Call::kRefund, 0, seq, [&] { return inner_->Refund(analyst, amount, seq); },
      NoCompute());
}

void TimedLedger::RecordSaving(const std::string& analyst,
                               const fedaqp::PrivacyBudget& amount,
                               uint64_t seq) {
  TimeCall(
      Call::kSaving, 0, seq,
      [&] {
        inner_->RecordSaving(analyst, amount, seq);
        return 0;
      },
      NoCompute());
}

}  // namespace perfbench
