#include "rpc/remote_endpoint.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace fedaqp {

namespace {

/// The registry's transport counters, the only record of doorbell
/// batches and of the calls coalesced into them.
struct RpcCounters {
  obs::MetricRegistry& reg = obs::MetricRegistry::Global();
  obs::Counter* bytes_sent = reg.GetCounter("rpc.client.bytes_sent");
  obs::Counter* bytes_received = reg.GetCounter("rpc.client.bytes_received");
  obs::Counter* doorbell_batches = reg.GetCounter("rpc.doorbell_batches");
  obs::Counter* coalesced_calls = reg.GetCounter("rpc.coalesced_calls");
};
const RpcCounters& Counters() {
  static const RpcCounters counters;
  return counters;
}

bool SameIdentity(const EndpointInfo& a, const EndpointInfo& b) {
  return a.name == b.name && a.schema == b.schema &&
         a.cluster_capacity == b.cluster_capacity && a.n_min == b.n_min;
}

Status PoisonedStatus() {
  return Status::FailedPrecondition(
      "rpc: connection poisoned by an earlier transport error; sessionful "
      "calls are never auto-retried — reconnect with a fresh endpoint "
      "(ExactFullScan reconnects automatically)");
}

}  // namespace

RemoteEndpoint::RemoteEndpoint(TcpConnection conn, EndpointInfo info,
                               std::string host, uint16_t port)
    : conn_(std::move(conn)),
      info_(std::move(info)),
      host_(std::move(host)),
      port_(port) {}

Result<std::pair<TcpConnection, EndpointInfo>> RemoteEndpoint::Handshake(
    const std::string& host, uint16_t port) {
  FEDAQP_ASSIGN_OR_RETURN(TcpConnection conn,
                          TcpConnection::Connect(host, port));
  // kInfo handshake: fetch the endpoint facts the orchestrator validates
  // at federation setup (and fail fast if the peer is not a fedaqp
  // provider speaking our wire version).
  ByteWriter request;
  Encode(Empty{}, &request);
  FEDAQP_RETURN_IF_ERROR(conn.SendFrame(kInfoRpc.id, request));
  FEDAQP_ASSIGN_OR_RETURN(RpcFrame received, conn.ReceiveFrame());
  bool broken = false;  // The connection is dropped on any failure anyway.
  FEDAQP_ASSIGN_OR_RETURN(
      RpcFrame reply, UnwrapReply(std::move(received), kInfoRpc.id, &broken));
  FEDAQP_ASSIGN_OR_RETURN(EndpointInfo info,
                          Decode<EndpointInfo>(reply.payload));
  return std::make_pair(std::move(conn), std::move(info));
}

Result<std::shared_ptr<RemoteEndpoint>> RemoteEndpoint::Connect(
    const std::string& host, uint16_t port) {
  FEDAQP_ASSIGN_OR_RETURN(auto handshake, Handshake(host, port));
  return std::shared_ptr<RemoteEndpoint>(
      new RemoteEndpoint(std::move(handshake.first),
                         std::move(handshake.second), host, port));
}

Result<std::vector<std::shared_ptr<ProviderEndpoint>>>
RemoteEndpoint::ConnectAll(const std::vector<std::string>& host_ports) {
  std::vector<std::shared_ptr<ProviderEndpoint>> endpoints;
  endpoints.reserve(host_ports.size());
  for (const std::string& hp : host_ports) {
    FEDAQP_ASSIGN_OR_RETURN(HostPort addr, ParseHostPort(hp));
    FEDAQP_ASSIGN_OR_RETURN(std::shared_ptr<RemoteEndpoint> endpoint,
                            Connect(addr.host, addr.port));
    endpoints.push_back(std::move(endpoint));
  }
  return endpoints;
}

Result<RpcFrame> RemoteEndpoint::SingleExchangeLocked(
    RpcMethod method, const ByteWriter& payload) {
  // Caller holds mutex_. Byte-identical to the unbatched protocol: one
  // plain frame out, one plain frame in.
  if (broken_) return PoisonedStatus();
  Status sent = conn_.SendFrame(method, payload);
  if (!sent.ok()) {
    broken_ = true;
    return sent;
  }
  Counters().bytes_sent->Add(kFrameHeaderBytes + payload.size());
  Result<RpcFrame> reply = conn_.ReceiveFrame();
  if (!reply.ok()) {
    broken_ = true;
    return reply.status();
  }
  Counters().bytes_received->Add(kFrameHeaderBytes + reply->payload.size());
  return UnwrapReply(std::move(*reply), method, &broken_);
}

void RemoteEndpoint::ServeBatchLocked(const std::vector<CallSlot*>& batch) {
  // Caller holds mutex_ (is the combiner). Every slot's reply is filled
  // and its done flag flipped before this returns.
  size_t idx = 0;
  const auto fail_from = [&](size_t start, const Status& status) {
    for (size_t i = start; i < batch.size(); ++i) {
      batch[i]->reply = status;
      batch[i]->done.store(true, std::memory_order_release);
    }
  };
  while (idx < batch.size()) {
    if (broken_) {
      fail_from(idx, PoisonedStatus());
      return;
    }
    // Greedy chunk: as many parked requests as fit under the outer
    // frame's payload cap. Chunks of one (a lone call, or an oversized
    // neighbor) go out as plain frames — no batch, no overhead.
    ByteWriter outer;
    const size_t chunk_begin = idx;
    while (idx < batch.size()) {
      const CallSlot* slot = batch[idx];
      const size_t framed = kFrameHeaderBytes + slot->payload->size();
      if (idx > chunk_begin && outer.size() + framed > kMaxFramePayloadBytes) {
        break;
      }
      AppendFrame(slot->method, *slot->payload, &outer);
      ++idx;
    }
    const size_t chunk_size = idx - chunk_begin;
    if (chunk_size == 1) {
      CallSlot* slot = batch[chunk_begin];
      slot->reply = SingleExchangeLocked(slot->method, *slot->payload);
      slot->done.store(true, std::memory_order_release);
      continue;
    }
    Status sent = conn_.SendFrame(RpcMethod::kBatch, outer);
    if (!sent.ok()) {
      broken_ = true;
      fail_from(chunk_begin, sent);
      return;
    }
    // The outer header is the only sent byte the per-message protocol
    // charges do not already cover.
    batch_overhead_bytes_ += kFrameHeaderBytes;
    Counters().bytes_sent->Add(kFrameHeaderBytes + outer.size());
    Result<RpcFrame> reply = conn_.ReceiveFrame();
    if (!reply.ok()) {
      broken_ = true;
      fail_from(chunk_begin, reply.status());
      return;
    }
    Counters().bytes_received->Add(kFrameHeaderBytes + reply->payload.size());
    reply = UnwrapReply(std::move(*reply), RpcMethod::kBatch, &broken_);
    if (broken_) {
      fail_from(chunk_begin, reply.status());
      return;
    }
    if (!reply.ok()) {
      // Whole-batch refusal: the server could not split the batch at all
      // (it never happens against our own encoder, but the stream is
      // still in sync — the refusal covers exactly this exchange).
      for (size_t i = chunk_begin; i < idx; ++i) {
        batch[i]->reply = reply.status();
        batch[i]->done.store(true, std::memory_order_release);
      }
      continue;
    }
    batch_overhead_bytes_ += kFrameHeaderBytes;
    Result<std::vector<RpcFrame>> subs =
        DecodeBatchPayload(reply->payload, /*requests_only=*/false);
    if (!subs.ok()) {
      broken_ = true;
      fail_from(chunk_begin, subs.status());
      return;
    }
    if (subs->size() != chunk_size) {
      broken_ = true;
      fail_from(chunk_begin,
                Status::ProtocolError(
                    "rpc: batched reply count does not match request count"));
      return;
    }
    // Sub-replies match request order; unwrap each exactly as a plain
    // reply would be (kError -> carried Status, else method echo check).
    for (size_t i = 0; i < chunk_size; ++i) {
      CallSlot* slot = batch[chunk_begin + i];
      slot->reply = UnwrapReply(std::move((*subs)[i]), slot->method, &broken_);
      slot->done.store(true, std::memory_order_release);
    }
    Counters().doorbell_batches->Add();
    Counters().coalesced_calls->Add(chunk_size);
  }
}

Result<RpcFrame> RemoteEndpoint::RoundTrip(RpcMethod method,
                                           const ByteWriter& payload) {
  CallSlot slot(method, &payload);
  {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    pending_.push_back(&slot);
  }
  // Ring the doorbell: take the wire. Blocking here is the flat-combining
  // handoff — while we wait, the current combiner may serve our slot.
  std::unique_lock<std::mutex> wire(mutex_);
  if (!slot.done.load(std::memory_order_acquire)) {
    // Not served: we are the combiner. Drain everything parked (our slot
    // is necessarily among it — only combiners remove slots, under the
    // wire lock we now hold).
    std::vector<CallSlot*> batch;
    {
      std::lock_guard<std::mutex> lock(pending_mutex_);
      batch.swap(pending_);
    }
    ServeBatchLocked(batch);
  }
  return std::move(slot.reply);
}

Status RemoteEndpoint::Reconnect(std::unique_lock<std::mutex>& lock) {
  // Bounded backoff: nothing before the first attempt, then 25 ms
  // doubling per consecutive failure, capped at 400 ms — enough to ride
  // out a provider restart without turning a dead peer into a spin loop.
  const int failures = reconnect_failures_;
  // host_/port_/info_ are immutable after construction, so the dial and
  // the identity check run safely outside the mutex; an unreachable peer
  // then stalls only this call, while concurrent ones keep failing fast
  // on broken_ and the odometers stay readable.
  lock.unlock();
  if (failures > 0) {
    const long ms = std::min(25L << std::min(failures - 1, 4), 400L);
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  }
  Result<std::pair<TcpConnection, EndpointInfo>> fresh =
      Handshake(host_, port_);
  const bool same_identity =
      fresh.ok() && SameIdentity(fresh->second, info_);
  lock.lock();
  if (!broken_) {
    // Another thread healed the connection while we dialed; keep theirs
    // (ours, if any, closes with `fresh` going out of scope).
    return Status::OK();
  }
  if (!fresh.ok()) {
    ++reconnect_failures_;
    return fresh.status();
  }
  if (!same_identity) {
    ++reconnect_failures_;
    return Status::FailedPrecondition(
        "rpc: reconnected peer is a different provider (schema/capacity "
        "changed); refusing to silently switch federations");
  }
  // Keep lifetime odometers truthful across the swap.
  retired_bytes_sent_ += conn_.bytes_sent();
  retired_bytes_received_ += conn_.bytes_received();
  conn_ = std::move(fresh->first);
  broken_ = false;
  reconnect_failures_ = 0;
  return Status::OK();
}

template <typename Row>
Result<typename Row::Reply> RemoteEndpoint::Call(
    const Row& row, const typename Row::Request& request, uint64_t session,
    bool retry_once) {
  obs::ScopedSpan span(
      "rpc", [&row] { return std::string("rpc/") + row.name; }, session);
  ByteWriter payload;
  Encode(request, &payload);
  Result<RpcFrame> reply = RoundTrip(row.id, payload);
  if (!reply.ok() && retry_once) {
    std::unique_lock<std::mutex> lock(mutex_);
    // Application-level refusals (invalid query, ...) leave the stream in
    // sync; only transport errors poison, and only those warrant a retry.
    // The backoff sleep and the dial happen with the mutex released (see
    // Reconnect), so concurrent calls never stall behind them; the retry
    // is a plain unbatched exchange on the healed wire.
    if (broken_) {
      FEDAQP_RETURN_IF_ERROR(Reconnect(lock));
      reply = SingleExchangeLocked(row.id, payload);
    }
  }
  FEDAQP_RETURN_IF_ERROR(reply.status());
  return Decode<typename Row::Reply>(reply->payload);
}

Result<CoverReply> RemoteEndpoint::Cover(const CoverRequest& request) {
  return Call(kCoverRpc, request, request.query_id);
}

Result<SummaryReply> RemoteEndpoint::PublishSummary(
    const SummaryRequest& request) {
  return Call(kPublishSummaryRpc, request, request.query_id);
}

Result<EstimateReply> RemoteEndpoint::Approximate(
    const ApproximateRequest& request) {
  return Call(kApproximateRpc, request, request.query_id);
}

Result<EstimateReply> RemoteEndpoint::ExactAnswer(
    const ExactAnswerRequest& request) {
  return Call(kExactAnswerRpc, request, request.query_id);
}

Result<ExactScanReply> RemoteEndpoint::ExactFullScan(
    const ExactScanRequest& request) {
  // The first attempt rides the doorbell like any other call (and fails
  // fast on an already-poisoned connection). Then one automatic reconnect
  // and retry: ExactFullScan is documented idempotent — no session, no
  // provider RNG — so replaying it after a transport error cannot skew
  // any later query's noise stream. After the retry fails the transport
  // Status surfaces to the caller.
  return Call(kExactFullScanRpc, request, /*session=*/0, /*retry_once=*/true);
}

void RemoteEndpoint::EndQuery(uint64_t query_id) {
  // Best-effort: the interface returns void.
  (void)Call(kEndQueryRpc, EndQueryRequest{query_id}, query_id);
}

void RemoteEndpoint::IssueAsync(std::function<void()> call) {
  std::lock_guard<std::mutex> lock(dispatch_mutex_);
  // The dispatch pool is as wide as the scheduler's admission window, so
  // concurrently admitted nodes really do overlap on this connection —
  // which is what gives the doorbell something to coalesce. Started
  // lazily so endpoints that never see a task graph pay no threads.
  if (dispatch_ == nullptr) {
    dispatch_ = std::make_unique<ThreadPool>(max_concurrent_calls());
  }
  dispatch_->Submit(std::move(call));
}

bool RemoteEndpoint::dispatch_started() const {
  std::lock_guard<std::mutex> lock(dispatch_mutex_);
  return dispatch_ != nullptr;
}

uint64_t RemoteEndpoint::bytes_sent() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return retired_bytes_sent_ + conn_.bytes_sent();
}

uint64_t RemoteEndpoint::bytes_received() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return retired_bytes_received_ + conn_.bytes_received();
}

uint64_t RemoteEndpoint::batch_overhead_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return batch_overhead_bytes_;
}

}  // namespace fedaqp
