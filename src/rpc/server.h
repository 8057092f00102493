#ifndef FEDAQP_RPC_SERVER_H_
#define FEDAQP_RPC_SERVER_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "exec/in_process_endpoint.h"
#include "rpc/transport.h"

namespace fedaqp {

struct RpcServerOptions {
  /// TCP port to listen on; 0 binds an ephemeral port (see port()).
  uint16_t port = 0;
  /// The server's threads — its total thread count. Every one waits on
  /// the same epoll set and serves whichever connection turns ready, so
  /// a thread is occupied only while it moves one connection's bytes
  /// and dispatches its requests into the provider; a few threads serve
  /// hundreds of idle or slow connections.
  size_t num_workers = 4;
  /// Cap on concurrently open query sessions per connection: an
  /// untrusted wire client looping Cover without EndQuery would
  /// otherwise grow the provider's session map without bound. Well over
  /// any real coordinator's in-flight batch size.
  size_t max_sessions_per_connection = 1024;
  /// Disconnect a connection whose next request does not arrive within
  /// this many seconds (<= 0 disables). Idle sockets pin no thread, but
  /// they still hold a fd and session state; coordinators idling longer
  /// than this must reconnect.
  double idle_timeout_seconds = 300.0;
  /// Test knob: shrink each accepted socket's kernel send buffer
  /// (SO_SNDBUF) so partial-write (slow peer) paths become reachable at
  /// tiny payload sizes. <= 0 leaves the kernel default.
  int send_buffer_bytes = 0;
};

/// Hosts one DataProvider behind the wire protocol. Request frames are
/// dispatched into an InProcessEndpoint wrapped around the provider —
/// the exact adapter the in-process engine uses, so session semantics,
/// RNG keying, and answers are identical over the wire by construction.
///
/// Threading: num_workers threads all block in epoll_wait on one epoll
/// set holding the listener, an eventfd used only by Stop(), and every
/// live connection. Connections (and the listener) are registered
/// EPOLLONESHOT, so a readiness event hands a connection to exactly one
/// thread, which owns it until it re-arms the registration: it reads
/// what the socket has, runs every complete frame through HandleFrame in
/// arrival order, writes the replies itself without blocking, and
/// re-arms (EPOLLIN, plus EPOLLOUT only while unsent output remains).
/// There is no hand-off between threads on the request path, and one
/// connection's requests are answered in order because only its owner
/// touches it. A peer that stops reading only grows its own output
/// buffer; it never blocks a thread or another connection. kBatch frames
/// (doorbell-coalesced clients) are unpacked, dispatched sub-frame by
/// sub-frame in order, and answered with a single kBatch reply carrying
/// the sub-replies in request order.
///
/// Session ids are namespaced per connection — each request's query_id
/// is rewritten to MixSeeds(connection id, query_id) before dispatch —
/// so independent coordinators, which all number their queries from 1,
/// cannot collide on or interfere with each other's sessions. A
/// connection's surviving sessions are released when it closes (sessions
/// are connection-scoped; a coordinator that dies mid-query leaks
/// nothing), and max_sessions_per_connection bounds what a misbehaving
/// client can hold open. Reproducibility follows the ProviderEndpoint
/// contract: answers are bit-identical as long as each coordinator
/// issues its calls in a deterministic order (noise is keyed by
/// (provider seed, session nonce), never by arrival time or session id).
///
/// The provider must outlive the server. Stop() (idempotent, also run by
/// the destructor) wakes and joins every thread, releases every leftover
/// session, and closes all sockets.
class RpcProviderServer {
 public:
  static Result<std::unique_ptr<RpcProviderServer>> Start(
      DataProvider* provider, const RpcServerOptions& options = {});

  ~RpcProviderServer() { Stop(); }

  RpcProviderServer(const RpcProviderServer&) = delete;
  RpcProviderServer& operator=(const RpcProviderServer&) = delete;

  /// The bound port (resolves option port 0 to the actual ephemeral one).
  uint16_t port() const { return port_; }

  void Stop();

  /// Query sessions currently open across all connections (diagnostic:
  /// must drain to zero once every coordinator ends its queries or
  /// disconnects).
  size_t num_open_sessions() const { return endpoint_.num_open_sessions(); }

 private:
  /// Per-connection state, guarded by its own mutex, which the owning
  /// thread holds for the whole time it serves the connection. See
  /// server.cc.
  struct Connection;
  /// The per-method part of serving one request frame (see server.cc).
  struct FrameServer;

  RpcProviderServer(DataProvider* provider, TcpListener listener,
                    const RpcServerOptions& options);

  void WorkerLoop();
  /// Accepts every pending connection, then re-arms the listener.
  void AcceptReady();
  /// Serves one readiness event for the connection tagged `conn_id`.
  void ServeReady(uint64_t conn_id, uint32_t events);
  /// Runs every complete frame in c->inbuf through HandleFrame, in
  /// order, appending replies to c->outbuf. Caller holds c->m.
  void HandleFrames(Connection* c);
  /// Writes as much of c->outbuf as the socket accepts without
  /// blocking. Caller holds c->m.
  void Flush(Connection* c);
  /// Re-arms the connection's EPOLLONESHOT registration, or tears the
  /// connection down once it is dead, or closing with nothing left to
  /// flush. Caller holds c->m.
  void Finish(Connection* c);
  /// Disconnects connections idle past the timeout, at most once per
  /// sweep interval, from whichever thread notices the interval passed.
  void MaybeSweepIdle();

  /// Handles one request frame, appending the complete reply frame(s) to
  /// `out`; returns false when the connection must close (stream
  /// confusion). `conn_id` namespaces session ids; `live_sessions`
  /// tracks this connection's open (namespaced) sessions for the cap and
  /// the close-time cleanup.
  bool HandleFrame(const RpcFrame& frame, uint64_t conn_id,
                   std::unordered_set<uint64_t>* live_sessions,
                   ByteWriter* out);

  InProcessEndpoint endpoint_;
  TcpListener listener_;
  uint16_t port_ = 0;
  size_t max_sessions_per_connection_ = 1024;
  double idle_timeout_seconds_ = 300.0;
  int send_buffer_bytes_ = 0;

  int epoll_fd_ = -1;
  /// Written only by Stop(): level-triggered and never drained, so it
  /// wakes every thread blocked in epoll_wait.
  int stop_fd_ = -1;
  std::atomic<bool> stopping_{false};
  bool stopped_ = false;

  /// Live connections, keyed by their epoll tag. A thread looks its
  /// event's connection up here and keeps the shared_ptr while serving
  /// it; teardown erases the entry.
  std::mutex connections_mutex_;
  std::unordered_map<uint64_t, std::shared_ptr<Connection>> connections_;
  uint64_t next_conn_id_ = 2;  // 0 = listener, 1 = stop eventfd.

  /// steady_clock ticks at which the next idle sweep is due.
  std::atomic<int64_t> next_sweep_{0};

  /// Declared last: the threads use every member above.
  std::vector<std::thread> workers_;
};

}  // namespace fedaqp

#endif  // FEDAQP_RPC_SERVER_H_
