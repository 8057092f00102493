#include "rpc/server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <exception>
#include <string>
#include <utility>

#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rpc/wire.h"

namespace fedaqp {

/// Everything here is guarded by `m`. A thread holds `m` for the whole
/// time it serves the connection: normally the one thread its
/// EPOLLONESHOT event went to, occasionally the idle sweep (which only
/// try-locks, so it never waits on a busy connection). Teardown happens
/// under `m` too, and sets `closed` for any thread that still holds a
/// shared_ptr to the struct.
struct RpcProviderServer::Connection {
  Connection(TcpConnection connection, uint64_t conn_id)
      : id(conn_id), conn(std::move(connection)) {}

  const uint64_t id;
  std::mutex m;
  TcpConnection conn;
  /// Raw received bytes not yet split into frames.
  std::vector<uint8_t> inbuf;
  /// Encoded reply bytes not yet accepted by the socket.
  std::vector<uint8_t> outbuf;
  size_t out_off = 0;
  std::chrono::steady_clock::time_point last_activity =
      std::chrono::steady_clock::now();
  /// No more reads; flush what is buffered, then tear down.
  bool closing = false;
  /// Transport failure: tear down without flushing.
  bool dead = false;
  /// Torn down: the socket is closed and the sessions are released.
  bool closed = false;
  /// This connection's open sessions, in namespaced (rewritten) ids.
  std::unordered_set<uint64_t> live_sessions;
};

namespace {

constexpr uint64_t kListenerTag = 0;
constexpr uint64_t kStopTag = 1;

/// How often the idle sweep runs while idle_timeout_seconds is set.
constexpr std::chrono::seconds kSweepInterval{1};

/// Registers (EPOLL_CTL_ADD) or re-arms (EPOLL_CTL_MOD) `fd` for one
/// readiness event on `events`.
bool ArmOneShot(int epoll_fd, int op, int fd, uint64_t tag, uint32_t events) {
  struct epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = events | EPOLLONESHOT;
  ev.data.u64 = tag;
  return ::epoll_ctl(epoll_fd, op, fd, &ev) == 0;
}

Status EpollError(const char* what) {
  return Status::Internal(std::string("rpc server: ") + what +
                          " failed: " + std::strerror(errno));
}

obs::Counter& ServerFramesCounter() {
  static obs::Counter* c =
      obs::MetricRegistry::Global().GetCounter("server.frames");
  return *c;
}

/// Appends a kError frame carrying `status` to a connection's unsent
/// output.
void QueueError(std::vector<uint8_t>* outbuf, const Status& status) {
  ByteWriter out;
  AppendReply<Empty>(RpcMethod::kError, status, &out);
  outbuf->insert(outbuf->end(), out.bytes().begin(), out.bytes().end());
}

}  // namespace

RpcProviderServer::RpcProviderServer(DataProvider* provider,
                                     TcpListener listener,
                                     const RpcServerOptions& options)
    : endpoint_(provider),
      listener_(std::move(listener)),
      port_(listener_.port()),
      max_sessions_per_connection_(options.max_sessions_per_connection > 0
                                       ? options.max_sessions_per_connection
                                       : 1),
      idle_timeout_seconds_(options.idle_timeout_seconds),
      send_buffer_bytes_(options.send_buffer_bytes) {}

Result<std::unique_ptr<RpcProviderServer>> RpcProviderServer::Start(
    DataProvider* provider, const RpcServerOptions& options) {
  if (provider == nullptr) {
    return Status::InvalidArgument("rpc server: null provider");
  }
  FEDAQP_ASSIGN_OR_RETURN(TcpListener listener,
                          TcpListener::Listen(options.port));
  // Not make_unique: the constructor is private.
  std::unique_ptr<RpcProviderServer> server(
      new RpcProviderServer(provider, std::move(listener), options));
  server->epoll_fd_ = ::epoll_create1(0);
  if (server->epoll_fd_ < 0) return EpollError("epoll_create1");
  server->stop_fd_ = ::eventfd(0, EFD_NONBLOCK);
  if (server->stop_fd_ < 0) return EpollError("eventfd");
  server->listener_.SetNonBlocking();
  if (!ArmOneShot(server->epoll_fd_, EPOLL_CTL_ADD, server->listener_.fd(),
                  kListenerTag, EPOLLIN)) {
    return EpollError("epoll_ctl");
  }
  // Level-triggered and never drained: once Stop() writes it, every
  // epoll_wait returns at once.
  struct epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN;
  ev.data.u64 = kStopTag;
  if (::epoll_ctl(server->epoll_fd_, EPOLL_CTL_ADD, server->stop_fd_, &ev) !=
      0) {
    return EpollError("epoll_ctl");
  }
  const size_t threads = options.num_workers > 0 ? options.num_workers : 1;
  for (size_t i = 0; i < threads; ++i) {
    server->workers_.emplace_back([s = server.get()] { s->WorkerLoop(); });
  }
  return server;
}

void RpcProviderServer::WorkerLoop() {
  // Wake at least once per sweep interval when idle connections must be
  // found; otherwise readiness and Stop() are the only wakers.
  const int timeout_ms =
      idle_timeout_seconds_ > 0
          ? static_cast<int>(
                std::chrono::milliseconds(kSweepInterval).count())
          : -1;
  while (!stopping_.load(std::memory_order_acquire)) {
    // One event per wait: a ready connection goes to whichever thread is
    // free instead of queueing behind others in one thread's batch.
    struct epoll_event ev;
    const int n = ::epoll_wait(epoll_fd_, &ev, 1, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // Fatal epoll failure: Stop() still cleans everything up.
    }
    if (stopping_.load(std::memory_order_acquire)) return;
    if (n == 1 && ev.data.u64 == kListenerTag) {
      AcceptReady();
    } else if (n == 1 && ev.data.u64 != kStopTag) {
      ServeReady(ev.data.u64, ev.events);
    }
    if (idle_timeout_seconds_ > 0) MaybeSweepIdle();
  }
}

void RpcProviderServer::AcceptReady() {
  for (;;) {
    Result<TcpConnection> accepted = listener_.TryAccept();
    if (!accepted.ok()) break;  // Backlog empty (or listener dying).
    accepted->SetNonBlocking();
    if (send_buffer_bytes_ > 0) {
      accepted->SetSendBufferBytes(send_buffer_bytes_);
    }
    const int fd = accepted->fd();
    uint64_t id = 0;
    std::shared_ptr<Connection> c;
    {
      std::lock_guard<std::mutex> lock(connections_mutex_);
      id = next_conn_id_++;
      c = std::make_shared<Connection>(std::move(accepted).value(), id);
      connections_.emplace(id, c);
    }
    // Registered only once the map holds it; from here on the first event
    // may hand the connection to another thread, so `c` is not touched.
    if (!ArmOneShot(epoll_fd_, EPOLL_CTL_ADD, fd, id, EPOLLIN)) {
      std::lock_guard<std::mutex> lock(connections_mutex_);
      connections_.erase(id);  // `c` closes the socket on return.
    }
  }
  ArmOneShot(epoll_fd_, EPOLL_CTL_MOD, listener_.fd(), kListenerTag, EPOLLIN);
}

void RpcProviderServer::ServeReady(uint64_t conn_id, uint32_t events) {
  std::shared_ptr<Connection> c;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    auto it = connections_.find(conn_id);
    if (it == connections_.end()) return;
    c = it->second;
  }
  std::lock_guard<std::mutex> lock(c->m);
  if (c->closed) return;
  if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    c->dead = true;
  } else if ((events & EPOLLIN) != 0 && !c->closing) {
    bool eof = false;
    for (;;) {
      Result<size_t> n = c->conn.ReadAvailable(&c->inbuf, &eof);
      if (!n.ok()) {
        c->dead = true;
        break;
      }
      if (*n == 0) break;  // Would block, or orderly shutdown (eof set).
      c->last_activity = std::chrono::steady_clock::now();
    }
    if (!c->dead) {
      HandleFrames(c.get());
      if (eof && !c->closing) {
        if (!c->inbuf.empty()) {
          // Peer closed mid-frame: same error the blocking reader raised.
          QueueError(&c->outbuf,
                     Status::OutOfRange("rpc: connection closed mid-frame"));
        }
        c->closing = true;
      }
    }
  }
  Flush(c.get());
  Finish(c.get());
}

void RpcProviderServer::HandleFrames(Connection* c) {
  ByteWriter out;
  size_t consumed = 0;
  while (!c->closing && c->inbuf.size() - consumed >= kFrameHeaderBytes) {
    ByteReader header_reader(c->inbuf.data() + consumed, kFrameHeaderBytes);
    Result<FrameHeader> header = DecodeFrameHeader(&header_reader);
    if (!header.ok()) {
      // Bad magic / version / oversized length: the stream position is
      // untrusted from here on — best-effort report and drop the link.
      AppendReply<Empty>(RpcMethod::kError, header.status(), &out);
      c->closing = true;
      break;
    }
    if (c->inbuf.size() - consumed - kFrameHeaderBytes < header->payload_size) {
      break;  // Frame not fully received yet.
    }
    RpcFrame frame;
    frame.method = header->method;
    const uint8_t* payload = c->inbuf.data() + consumed + kFrameHeaderBytes;
    frame.payload.assign(payload, payload + header->payload_size);
    consumed += kFrameHeaderBytes + header->payload_size;
    // A false return means the stream is confused: later frames are
    // dropped.
    if (!HandleFrame(frame, c->id, &c->live_sessions, &out)) c->closing = true;
  }
  if (c->closing) {
    c->inbuf.clear();
  } else if (consumed > 0) {
    c->inbuf.erase(c->inbuf.begin(),
                   c->inbuf.begin() + static_cast<ptrdiff_t>(consumed));
  }
  c->outbuf.insert(c->outbuf.end(), out.bytes().begin(), out.bytes().end());
}

void RpcProviderServer::Flush(Connection* c) {
  if (c->dead) return;
  while (c->out_off < c->outbuf.size()) {
    Result<size_t> n = c->conn.WriteSome(c->outbuf.data() + c->out_off,
                                         c->outbuf.size() - c->out_off);
    if (!n.ok()) {
      c->dead = true;
      return;
    }
    if (*n == 0) break;  // Peer's receive window is full.
    c->out_off += *n;
  }
  if (c->out_off == c->outbuf.size()) {
    c->outbuf.clear();
    c->out_off = 0;
  }
}

void RpcProviderServer::Finish(Connection* c) {
  const bool pending = c->out_off < c->outbuf.size();
  if (!c->dead && (!c->closing || pending)) {
    const uint32_t want = (c->closing ? 0u : static_cast<uint32_t>(EPOLLIN)) |
                          (pending ? static_cast<uint32_t>(EPOLLOUT) : 0u);
    if (ArmOneShot(epoll_fd_, EPOLL_CTL_MOD, c->conn.fd(), c->id, want)) {
      return;
    }
    // Cannot be re-armed, so it can never be served again: tear down.
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c->conn.fd(), nullptr);
  // Sessions are connection-scoped: whatever the peer left open (it
  // crashed, or never sent EndQuery) is released with the connection, so
  // dead coordinators cannot leak provider memory.
  for (uint64_t session : c->live_sessions) endpoint_.EndQuery(session);
  c->live_sessions.clear();
  c->conn.Close();
  c->closed = true;
  std::lock_guard<std::mutex> lock(connections_mutex_);
  connections_.erase(c->id);  // The caller's shared_ptr keeps `c` alive.
}

void RpcProviderServer::MaybeSweepIdle() {
  const auto now = std::chrono::steady_clock::now();
  int64_t due = next_sweep_.load(std::memory_order_relaxed);
  if (now.time_since_epoch().count() < due) return;
  const int64_t next = (now + kSweepInterval).time_since_epoch().count();
  // One thread per interval runs the sweep; the others move on.
  if (!next_sweep_.compare_exchange_strong(due, next)) return;
  std::vector<std::shared_ptr<Connection>> snapshot;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    snapshot.reserve(connections_.size());
    for (auto& kv : connections_) snapshot.push_back(kv.second);
  }
  for (const std::shared_ptr<Connection>& c : snapshot) {
    // A connection some thread is serving right now is not idle.
    std::unique_lock<std::mutex> lock(c->m, std::try_to_lock);
    if (!lock.owns_lock() || c->closed || c->closing) continue;
    const double idle =
        std::chrono::duration<double>(now - c->last_activity).count();
    if (idle < idle_timeout_seconds_) continue;
    // Same surface the blocking server's SO_RCVTIMEO produced: the peer
    // gets a timeout error, then the connection goes away.
    QueueError(&c->outbuf, Status::Internal("rpc: receive timed out"));
    c->closing = true;
    Flush(c.get());
    // May re-arm a registration whose event another thread already
    // holds; that thread then finds the connection closing (or closed)
    // under `m` and does the same flush-or-teardown.
    Finish(c.get());
  }
}

/// Serves the table rows a provider answers, for one frame of one
/// connection. Only what differs per method is here; ServeRequest decodes
/// each request and writes each reply.
struct RpcProviderServer::FrameServer {
  RpcProviderServer& server;
  uint64_t conn_id;
  std::unordered_set<uint64_t>& live_sessions;
  obs::ScopedSpan& span;

  /// Session ids are namespaced per connection: every coordinator numbers
  /// its queries from 1, so the raw ids of independent coordinators
  /// collide. The splitmix64 mix keeps the rewritten key space
  /// collision-free in practice and deterministic per (connection, id).
  uint64_t Scope(uint64_t* query_id) {
    *query_id = MixSeeds(conn_id, *query_id);
    span.set_session(*query_id);
    return *query_id;
  }

  /// The in-process engine validates queries coordinator-side; a wire
  /// client is untrusted, so re-validate before the provider indexes rows
  /// with the query's dimension indexes.
  Status Validate(const RangeQuery& query) const {
    return query.Validate(server.endpoint_.info().schema);
  }

  Result<EndpointInfo> operator()(RpcMethod, Empty&) {
    return server.endpoint_.info();
  }

  Result<CoverReply> operator()(RpcMethod, CoverRequest& request) {
    FEDAQP_RETURN_IF_ERROR(Validate(request.query));
    const uint64_t session = Scope(&request.query_id);
    if (live_sessions.count(session) == 0 &&
        live_sessions.size() >= server.max_sessions_per_connection_) {
      return Status::FailedPrecondition(
          "rpc: too many open sessions on this connection (EndQuery "
          "finished queries)");
    }
    Result<CoverReply> reply = server.endpoint_.Cover(request);
    if (reply.ok()) live_sessions.insert(session);
    return reply;
  }

  Result<SummaryReply> operator()(RpcMethod, SummaryRequest& request) {
    Scope(&request.query_id);
    return server.endpoint_.PublishSummary(request);
  }

  Result<EstimateReply> operator()(RpcMethod, ApproximateRequest& request) {
    Scope(&request.query_id);
    return server.endpoint_.Approximate(request);
  }

  Result<EstimateReply> operator()(RpcMethod, ExactAnswerRequest& request) {
    Scope(&request.query_id);
    return server.endpoint_.ExactAnswer(request);
  }

  Result<ExactScanReply> operator()(RpcMethod, ExactScanRequest& request) {
    FEDAQP_RETURN_IF_ERROR(Validate(request.query));
    // Stateless and RNG-free (see endpoint.h): replaying this after a
    // transport error is safe — the reply is a pure function of the
    // store, so retries cannot skew determinism.
    return server.endpoint_.ExactFullScan(request);
  }

  Result<Empty> operator()(RpcMethod, EndQueryRequest& request) {
    const uint64_t session = Scope(&request.query_id);
    server.endpoint_.EndQuery(session);  // Idempotent by contract.
    live_sessions.erase(session);
    return Empty{};
  }
};

bool RpcProviderServer::HandleFrame(const RpcFrame& frame, uint64_t conn_id,
                                    std::unordered_set<uint64_t>* live_sessions,
                                    ByteWriter* out) {
  ServerFramesCounter().Add();
  obs::ScopedSpan span("server", [&frame] {
    return std::string("server/") + MethodName(frame.method);
  });
  if (frame.method == RpcMethod::kError) {
    // A client must never send an error frame; the stream is confused.
    AppendReply<Empty>(
        frame.method, Status::InvalidArgument("rpc: error frame is reply-only"),
        out);
    return false;
  }
  if (frame.method != RpcMethod::kBatch) {
    // A handler that throws (say, an allocation a peer-chosen size made
    // too large) fails its own frame, not the provider process.
    try {
      ServeRequest(frame, FrameServer{*this, conn_id, *live_sessions, span},
                   out);
    } catch (const std::exception& e) {
      AppendReply<Empty>(
          frame.method,
          Status::Internal(std::string("rpc: request failed: ") + e.what()),
          out);
    }
    return true;
  }
  // Doorbell batch: unpack, dispatch in order, answer with one kBatch
  // reply carrying the sub-replies in request order. The decoder rejects
  // nested batches and kError sub-requests, so every sub-frame takes the
  // request path above (which never closes the connection).
  Result<std::vector<RpcFrame>> subs =
      DecodeBatchPayload(frame.payload, /*requests_only=*/true);
  if (!subs.ok()) {
    AppendReply<Empty>(frame.method, subs.status(), out);
    return true;
  }
  ByteWriter inner;
  for (const RpcFrame& sub : *subs) {
    HandleFrame(sub, conn_id, live_sessions, &inner);
    if (inner.size() > kMaxFramePayloadBytes) {
      // Replies outgrew the frame cap (requests are client-chunked,
      // replies are not). A plain kError reply to the batch fails the
      // whole chunk client-side with the stream still in sync.
      AppendReply<Empty>(frame.method,
                         Status::FailedPrecondition(
                             "rpc: batch reply exceeds the frame payload cap"),
                         out);
      return true;
    }
  }
  AppendFrame(RpcMethod::kBatch, inner, out);
  return true;
}

void RpcProviderServer::Stop() {
  if (stopped_) return;
  stopped_ = true;
  stopping_.store(true, std::memory_order_release);
  if (stop_fd_ >= 0) {
    uint64_t one = 1;
    ssize_t ignored = ::write(stop_fd_, &one, sizeof(one));
    (void)ignored;
  }
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  // No thread serves anything now.
  for (auto& kv : connections_) {
    for (uint64_t session : kv.second->live_sessions) {
      endpoint_.EndQuery(session);
    }
  }
  connections_.clear();  // Destructors close the sockets.
  listener_.Shutdown();
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
  if (stop_fd_ >= 0) {
    ::close(stop_fd_);
    stop_fd_ = -1;
  }
}

}  // namespace fedaqp
