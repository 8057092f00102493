#include "exec/in_process_endpoint.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "exec/federation_client.h"

namespace fedaqp {

namespace {

/// Per-(provider, session) noise stream: the provider's seed mixed with
/// the coordinator's session nonce (which itself encodes the coordinator
/// seed and query id), decorrelated from the provider's own persistent
/// stream. Distinct sessions get distinct streams only while their
/// nonces differ: two coordinators with equal seeds send equal nonces
/// for equal query ids and replay each other's noise (ROADMAP item 1).
Rng SessionRng(uint64_t provider_seed, uint64_t session_nonce) {
  return Rng(MixSeeds(provider_seed, session_nonce));
}

}  // namespace

InProcessEndpoint::InProcessEndpoint(DataProvider* provider)
    : provider_(provider),
      scan_exec_(provider->options().storage.num_scan_shards, nullptr) {
  info_.name = provider_->name();
  info_.schema = provider_->store().schema();
  info_.cluster_capacity = provider_->options().storage.cluster_capacity;
  info_.n_min = provider_->options().n_min;
}

void InProcessEndpoint::ConfigureScanSharding(ThreadPool* scan_pool,
                                              size_t num_scan_shards) {
  std::lock_guard<std::mutex> lock(mutex_);
  // 0 keeps the current shard count (resolved from the provider's options
  // at construction). Deliberately does NOT re-read provider_: the
  // orchestrator's destructor detaches through here, and at teardown the
  // providers may already be gone.
  size_t shards =
      num_scan_shards != 0 ? num_scan_shards : scan_exec_.num_shards();
  scan_exec_ = ShardedScanExecutor(shards, scan_pool);
}

Result<CoverReply> InProcessEndpoint::Cover(const CoverRequest& request) {
  std::lock_guard<std::mutex> lock(mutex_);
  CoverReply reply;
  CoverInfo cover = provider_->Cover(request.query, &reply.work, &scan_exec_);
  reply.should_approximate = provider_->ShouldApproximate(cover);
  sessions_.insert_or_assign(
      request.query_id,
      Session{request.query, std::move(cover),
              SessionRng(provider_->options().seed, request.session_nonce),
              /*published_n_q=*/0.0, SampleDraw{}});
  return reply;
}

Result<SummaryReply> InProcessEndpoint::PublishSummary(
    const SummaryRequest& request) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sessions_.find(request.query_id);
  if (it == sessions_.end()) {
    return Status::FailedPrecondition(
        "endpoint: PublishSummary without a Cover session");
  }
  SummaryReply reply;
  FEDAQP_ASSIGN_OR_RETURN(
      reply.summary,
      provider_->PublishSummary(it->second.query, it->second.cover,
                                request.eps_allocation, &it->second.rng));
  it->second.published_n_q = std::max(0.0, std::round(reply.summary.noisy_n_q));
  return reply;
}

Result<EstimateReply> InProcessEndpoint::Approximate(
    const ApproximateRequest& request) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sessions_.find(request.query_id);
  if (it == sessions_.end()) {
    return Status::FailedPrecondition(
        "endpoint: Approximate without a Cover session");
  }
  Session& session = it->second;
  // A peer's request is checked before anything is allocated: the rounds
  // must be the session's next, and sample_size, which sizes the EM draw,
  // may not exceed what this session's own published ~N^Q (or one draw
  // per round) can call for.
  if (request.rounds == 0 || request.rounds > kMaxProgressiveRounds) {
    return Status::InvalidArgument("endpoint: rounds must be in [1, " +
                                   std::to_string(kMaxProgressiveRounds) +
                                   "]");
  }
  if (request.round != session.draw.released + 1 ||
      request.round > request.rounds ||
      (request.round > 1 && request.rounds != session.draw.rounds)) {
    return Status::InvalidArgument(
        "endpoint: round " + std::to_string(request.round) + " of " +
        std::to_string(request.rounds) + " is not the session's next round");
  }
  if (static_cast<double>(request.sample_size) >
      std::max<double>(request.rounds, session.published_n_q)) {
    return Status::InvalidArgument(
        "endpoint: sample_size exceeds the published covering-set size");
  }
  session.draw.rounds = request.rounds;
  EstimateReply reply;
  FEDAQP_ASSIGN_OR_RETURN(
      reply.estimate,
      provider_->Approximate(session.query, session.cover, request.sample_size,
                             request.eps_sampling, request.eps_estimate,
                             request.delta, request.add_noise, &session.rng,
                             &scan_exec_, &session.draw));
  return reply;
}

Result<EstimateReply> InProcessEndpoint::ExactAnswer(
    const ExactAnswerRequest& request) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sessions_.find(request.query_id);
  if (it == sessions_.end()) {
    return Status::FailedPrecondition(
        "endpoint: ExactAnswer without a Cover session");
  }
  EstimateReply reply;
  FEDAQP_ASSIGN_OR_RETURN(
      reply.estimate,
      provider_->ExactAnswer(it->second.query, it->second.cover,
                             request.eps_estimate, request.add_noise,
                             &it->second.rng, &scan_exec_));
  return reply;
}

Result<ExactScanReply> InProcessEndpoint::ExactFullScan(
    const ExactScanRequest& request) {
  std::lock_guard<std::mutex> lock(mutex_);
  ExactScanReply reply;
  reply.value = static_cast<double>(
      provider_->ExactFullScan(request.query, &reply.work, &scan_exec_));
  return reply;
}

void InProcessEndpoint::EndQuery(uint64_t query_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  sessions_.erase(query_id);
}

Result<std::vector<std::shared_ptr<ProviderEndpoint>>> MakeInProcessEndpoints(
    const std::vector<DataProvider*>& providers) {
  std::vector<std::shared_ptr<ProviderEndpoint>> endpoints;
  endpoints.reserve(providers.size());
  for (auto* p : providers) {
    if (p == nullptr) {
      return Status::InvalidArgument("endpoint: null provider");
    }
    endpoints.push_back(std::make_shared<InProcessEndpoint>(p));
  }
  return endpoints;
}

}  // namespace fedaqp
