#include "serve/ledger_service.h"

#include <cmath>
#include <utility>

#include "obs/metrics.h"
#include "rpc/wire.h"

namespace fedaqp {
namespace serve {

namespace {

obs::Counter& LedgerOpsCounter() {
  static obs::Counter* c =
      obs::MetricRegistry::Global().GetCounter("ledger_service.ops");
  return *c;
}
obs::Counter& LedgerDedupedCounter() {
  static obs::Counter* c =
      obs::MetricRegistry::Global().GetCounter("ledger_service.deduped");
  return *c;
}

/// Sends `status` as the reply to a request: an empty echo ack when OK,
/// a kError frame otherwise.
Status SendOutcome(TcpConnection& conn, RpcMethod method,
                   const Status& status) {
  if (status.ok()) {
    return conn.SendFrame(method, ByteWriter());
  }
  ByteWriter payload;
  EncodeStatusPayload(status, &payload);
  return conn.SendFrame(RpcMethod::kError, payload);
}

}  // namespace

// -------------------------------------------------------------- LedgerService

Result<std::unique_ptr<LedgerService>> LedgerService::Start(
    const Options& options) {
  std::unique_ptr<LedgerService> service(new LedgerService());
  FEDAQP_ASSIGN_OR_RETURN(service->listener_, TcpListener::Listen(options.port));
  service->port_ = service->listener_.port();
  service->acceptor_ = std::thread([s = service.get()] { s->AcceptLoop(); });
  return service;
}

LedgerService::~LedgerService() { Stop(); }

void LedgerService::Stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  listener_.Interrupt();
  if (acceptor_.joinable()) acceptor_.join();
  listener_.Shutdown();
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    // ShutdownBoth is the one member safe against a concurrently blocked
    // read: every handler's ReceiveFrame unblocks with an error.
    for (auto& kv : handlers_) {
      kv.second.conn->ShutdownBoth();
      threads.push_back(std::move(kv.second.thread));
    }
    for (std::thread& t : finished_) threads.push_back(std::move(t));
  }
  // A handler returning from here on finds its thread already moved out,
  // so its Reap only drops the connection.
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
  std::lock_guard<std::mutex> lock(conn_mutex_);
  finished_.clear();
}

size_t LedgerService::num_connections() const {
  std::lock_guard<std::mutex> lock(conn_mutex_);
  return handlers_.size();
}

Status LedgerService::Register(const std::string& analyst, double xi,
                               double psi) {
  std::lock_guard<std::mutex> lock(op_mutex_);
  return RegisterOp(analyst, xi, psi, /*coordinator=*/0);
}

void LedgerService::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    Result<TcpConnection> accepted = listener_.Accept();
    if (!accepted.ok()) {
      if (stopping_.load(std::memory_order_acquire)) return;
      continue;  // transient accept failure
    }
    auto conn = std::make_shared<TcpConnection>(std::move(accepted).value());
    std::vector<std::thread> finished;
    {
      std::lock_guard<std::mutex> lock(conn_mutex_);
      if (stopping_.load(std::memory_order_acquire)) return;  // raced Stop
      finished.swap(finished_);
      const uint64_t id = next_handler_id_++;
      Handler& handler = handlers_[id];
      handler.conn = conn;
      // Started under conn_mutex_, so the handler's Reap cannot run
      // before its thread is stored.
      handler.thread = std::thread([this, id, conn]() mutable {
        Serve(std::move(conn));
        Reap(id);
      });
    }
    for (std::thread& t : finished) t.join();
  }
}

void LedgerService::Reap(uint64_t handler_id) {
  std::lock_guard<std::mutex> lock(conn_mutex_);
  auto it = handlers_.find(handler_id);
  if (it == handlers_.end()) return;
  finished_.push_back(std::move(it->second.thread));
  handlers_.erase(it);  // Drops the last reference: the socket closes.
}

void LedgerService::Serve(std::shared_ptr<TcpConnection> conn) {
  for (;;) {
    Result<RpcFrame> frame = conn->ReceiveFrame();
    if (!frame.ok()) return;  // closed or broken — either way, done
    if (!HandleFrame(*conn, *frame).ok()) return;
  }
}

Status LedgerService::HandleFrame(TcpConnection& conn, const RpcFrame& frame) {
  LedgerOpsCounter().Add();
  ByteReader reader(frame.payload);
  switch (frame.method) {
    case RpcMethod::kLedgerRegister:
    case RpcMethod::kLedgerCharge:
    case RpcMethod::kLedgerRefund:
    case RpcMethod::kLedgerSaving: {
      Result<LedgerOpRequest> req = DecodeLedgerOpRequest(&reader);
      Status status = req.ok() ? ExpectConsumed(reader) : req.status();
      if (status.ok()) status = ApplyOp(frame.method, *req);
      return SendOutcome(conn, frame.method, status);
    }
    case RpcMethod::kLedgerQuery: {
      Result<LedgerQueryRequest> req = DecodeLedgerQueryRequest(&reader);
      Status status = req.ok() ? ExpectConsumed(reader) : req.status();
      if (!status.ok()) return SendOutcome(conn, frame.method, status);
      LedgerQueryReply reply;
      // Snapshot the three reads under the op mutex so a concurrent
      // charge cannot tear remaining vs spent.
      {
        std::lock_guard<std::mutex> lock(op_mutex_);
        if (ledger_.Knows(req->analyst)) {
          reply.registered = 1;
          const PrivacyBudget remaining = *ledger_.Remaining(req->analyst);
          const PrivacyBudget spent = *ledger_.Spent(req->analyst);
          const PrivacyBudget saved = *ledger_.Saved(req->analyst);
          reply.remaining_epsilon = remaining.epsilon;
          reply.remaining_delta = remaining.delta;
          reply.spent_epsilon = spent.epsilon;
          reply.spent_delta = spent.delta;
          reply.saved_epsilon = saved.epsilon;
          reply.saved_delta = saved.delta;
        }
      }
      ByteWriter payload;
      EncodeLedgerQueryReply(reply, &payload);
      return conn.SendFrame(RpcMethod::kLedgerQuery, payload);
    }
    default:
      return SendOutcome(
          conn, frame.method,
          Status::InvalidArgument(
              "ledger service: unsupported method id " +
              std::to_string(static_cast<int>(frame.method))));
  }
}

Status LedgerService::ApplyOp(RpcMethod method, const LedgerOpRequest& req) {
  std::lock_guard<std::mutex> lock(op_mutex_);
  const bool keyed = req.coordinator != 0 && req.seq != 0;
  const auto key = std::make_tuple(req.coordinator, req.seq,
                                   static_cast<uint8_t>(method));
  if (keyed) {
    auto it = applied_.find(key);
    if (it != applied_.end()) {
      LedgerDedupedCounter().Add();
      return it->second;
    }
  }
  Status status = Status::OK();
  const PrivacyBudget amount{req.epsilon, req.delta};
  switch (method) {
    case RpcMethod::kLedgerRegister:
      status = RegisterOp(req.analyst, req.epsilon, req.delta,
                          req.coordinator);
      break;
    case RpcMethod::kLedgerCharge:
      status = ledger_.Charge(req.analyst, amount, req.seq, req.coordinator);
      break;
    case RpcMethod::kLedgerRefund:
      status = ledger_.Refund(req.analyst, amount, req.seq, req.coordinator);
      break;
    case RpcMethod::kLedgerSaving:
      ledger_.RecordSaving(req.analyst, amount, req.seq, req.coordinator);
      break;
    default:
      status = Status::Internal("ledger service: non-mutation in ApplyOp");
      break;
  }
  if (keyed) applied_.emplace(key, status);
  return status;
}

Status LedgerService::RegisterOp(const std::string& analyst, double xi,
                                 double psi, uint32_t coordinator) {
  if (ledger_.Knows(analyst)) {
    const PrivacyBudget total = *ledger_.Total(analyst);
    if (total.epsilon == xi && total.delta == psi) {
      return Status::OK();  // identical grant: a fleet member joining
    }
    return Status::InvalidArgument(
        "ledger service: analyst '" + analyst +
        "' already registered with a different grant " + total.ToString());
  }
  return ledger_.Register(analyst, xi, psi, coordinator);
}

// --------------------------------------------------------------- RemoteLedger

Result<std::shared_ptr<RemoteLedger>> RemoteLedger::Connect(
    const std::string& host, uint16_t port, uint32_t coordinator_id) {
  if (coordinator_id == 0) {
    return Status::InvalidArgument(
        "remote ledger: coordinator id must be nonzero (it keys audit "
        "attribution and retry idempotency)");
  }
  FEDAQP_ASSIGN_OR_RETURN(TcpConnection conn,
                          TcpConnection::Connect(host, port));
  return std::shared_ptr<RemoteLedger>(
      new RemoteLedger(std::move(conn), host, port, coordinator_id));
}

RemoteLedger::RemoteLedger(TcpConnection conn, std::string host, uint16_t port,
                           uint32_t coordinator_id)
    : conn_(std::move(conn)),
      host_(std::move(host)),
      port_(port),
      coordinator_(coordinator_id) {}

bool RemoteLedger::broken() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return broken_;
}

Status RemoteLedger::Reconnect() {
  Result<TcpConnection> fresh = TcpConnection::Connect(host_, port_);
  std::lock_guard<std::mutex> lock(mutex_);
  if (!fresh.ok()) return fresh.status();
  conn_ = std::move(fresh).value();
  broken_ = false;
  // Perhaps a restarted service that has forgotten every registration.
  known_.clear();
  return Status::OK();
}

Result<RpcFrame> RemoteLedger::ExchangeLocked(RpcMethod method,
                                              const ByteWriter& payload) const {
  if (broken_ || !conn_.valid()) {
    return Status::Unavailable(
        "remote ledger: connection poisoned by an earlier transport error "
        "(Reconnect() to heal; retries dedupe on the service)");
  }
  Status sent = conn_.SendFrame(method, payload);
  if (!sent.ok()) {
    broken_ = true;
    return Status::Unavailable("remote ledger: send failed: " +
                               sent.message());
  }
  Result<RpcFrame> reply = conn_.ReceiveFrame();
  if (!reply.ok()) {
    broken_ = true;
    return Status::Unavailable("remote ledger: receive failed: " +
                               reply.status().message());
  }
  if (reply->method == RpcMethod::kError) {
    ByteReader reader(reply->payload);
    Status remote = Status::OK();
    Status decoded = DecodeStatusPayload(&reader, &remote);
    if (!decoded.ok() || !ExpectConsumed(reader).ok()) {
      broken_ = true;
      return Status::Internal("remote ledger: malformed error frame");
    }
    return remote;  // a real refusal; the wire itself is healthy
  }
  if (reply->method != method) {
    broken_ = true;
    return Status::Internal("remote ledger: reply method mismatch");
  }
  return reply;
}

Status RemoteLedger::MutateOp(RpcMethod method, const std::string& analyst,
                              double epsilon, double delta,
                              uint64_t seq) const {
  LedgerOpRequest req;
  req.coordinator = coordinator_;
  req.seq = seq;
  req.analyst = analyst;
  req.epsilon = epsilon;
  req.delta = delta;
  ByteWriter payload;
  EncodeLedgerOpRequest(req, &payload);
  std::lock_guard<std::mutex> lock(mutex_);
  Result<RpcFrame> reply = ExchangeLocked(method, payload);
  if (!reply.ok()) return reply.status();
  if (!reply->payload.empty()) {
    broken_ = true;
    return Status::Internal("remote ledger: non-empty mutation ack");
  }
  if (method == RpcMethod::kLedgerRegister) known_.insert(analyst);
  return Status::OK();
}

Result<LedgerQueryReply> RemoteLedger::QueryOp(
    const std::string& analyst) const {
  LedgerQueryRequest req;
  req.analyst = analyst;
  ByteWriter payload;
  EncodeLedgerQueryRequest(req, &payload);
  std::lock_guard<std::mutex> lock(mutex_);
  FEDAQP_ASSIGN_OR_RETURN(RpcFrame reply,
                          ExchangeLocked(RpcMethod::kLedgerQuery, payload));
  ByteReader reader(reply.payload);
  Result<LedgerQueryReply> decoded = DecodeLedgerQueryReply(&reader);
  if (!decoded.ok() || !ExpectConsumed(reader).ok()) {
    broken_ = true;
    return Status::Internal("remote ledger: malformed query reply");
  }
  if (decoded->registered != 0) known_.insert(analyst);
  return decoded;
}

Status RemoteLedger::Register(const std::string& analyst, double xi,
                              double psi) {
  return MutateOp(RpcMethod::kLedgerRegister, analyst, xi, psi, /*seq=*/0);
}

Result<bool> RemoteLedger::Knows(const std::string& analyst) const {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!broken_ && known_.count(analyst) != 0) return true;
  }
  FEDAQP_ASSIGN_OR_RETURN(LedgerQueryReply reply, QueryOp(analyst));
  return reply.registered != 0;
}

Status RemoteLedger::Charge(const std::string& analyst,
                            const PrivacyBudget& cost, uint64_t seq) {
  return MutateOp(RpcMethod::kLedgerCharge, analyst, cost.epsilon, cost.delta,
                  seq);
}

Status RemoteLedger::Refund(const std::string& analyst,
                            const PrivacyBudget& amount, uint64_t seq) {
  return MutateOp(RpcMethod::kLedgerRefund, analyst, amount.epsilon,
                  amount.delta, seq);
}

void RemoteLedger::RecordSaving(const std::string& analyst,
                                const PrivacyBudget& amount, uint64_t seq) {
  // Best-effort, like the interface: a saving lost to a dead wire is
  // bookkeeping, not budget.
  (void)MutateOp(RpcMethod::kLedgerSaving, analyst, amount.epsilon,
                 amount.delta, seq);
}

Result<PrivacyBudget> RemoteLedger::Remaining(
    const std::string& analyst) const {
  FEDAQP_ASSIGN_OR_RETURN(LedgerQueryReply reply, QueryOp(analyst));
  if (reply.registered == 0) {
    return Status::NotFound("ledger: unknown analyst '" + analyst + "'");
  }
  return PrivacyBudget{reply.remaining_epsilon, reply.remaining_delta};
}

Result<PrivacyBudget> RemoteLedger::Spent(const std::string& analyst) const {
  FEDAQP_ASSIGN_OR_RETURN(LedgerQueryReply reply, QueryOp(analyst));
  if (reply.registered == 0) {
    return Status::NotFound("ledger: unknown analyst '" + analyst + "'");
  }
  return PrivacyBudget{reply.spent_epsilon, reply.spent_delta};
}

Result<PrivacyBudget> RemoteLedger::Saved(const std::string& analyst) const {
  FEDAQP_ASSIGN_OR_RETURN(LedgerQueryReply reply, QueryOp(analyst));
  if (reply.registered == 0) {
    return Status::NotFound("ledger: unknown analyst '" + analyst + "'");
  }
  return PrivacyBudget{reply.saved_epsilon, reply.saved_delta};
}

}  // namespace serve
}  // namespace fedaqp
