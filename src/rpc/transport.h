#ifndef FEDAQP_RPC_TRANSPORT_H_
#define FEDAQP_RPC_TRANSPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "rpc/wire.h"

namespace fedaqp {

/// A peer address as given on a command line.
struct HostPort {
  std::string host;
  uint16_t port = 0;
};

/// Parses "host:port", splitting at the last ':'. The host must be
/// non-empty and the port all digits in [1, 65535]; anything else is
/// InvalidArgument (never a silently truncated port).
Result<HostPort> ParseHostPort(const std::string& host_port);

/// Blocking, framed TCP connection. Frames are written and read whole
/// (full-write / full-read loops over POSIX sockets, EINTR-safe,
/// SIGPIPE-suppressed), so a frame either transfers completely or the
/// call reports a transport error.
///
/// Thread-safety: none — callers serialize access (RemoteEndpoint and the
/// provider server hold a per-connection mutex; the ledger service runs
/// one handler thread per connection). The only member safe to call
/// concurrently with a blocked Send/Receive is ShutdownBoth(), which is
/// how the ledger service unblocks its handlers at stop.
class TcpConnection {
 public:
  /// An invalid (closed) connection.
  TcpConnection() = default;
  /// Adopts an already-connected socket (the server's accepted fd).
  explicit TcpConnection(int fd) : fd_(fd) {}
  ~TcpConnection() { Close(); }

  TcpConnection(TcpConnection&& o) noexcept { *this = std::move(o); }
  TcpConnection& operator=(TcpConnection&& o) noexcept;
  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  /// Blocking connect to host:port (numeric IP or hostname).
  static Result<TcpConnection> Connect(const std::string& host, uint16_t port);

  bool valid() const { return fd_ >= 0; }

  /// Writes one complete frame (header + payload).
  Status SendFrame(RpcMethod method, const ByteWriter& payload);

  /// Writes bytes that already hold complete frames (e.g. AppendReply's).
  Status SendFrames(const ByteWriter& frames);

  /// Reads one complete frame. A connection closed cleanly *between*
  /// frames reports NotFound("rpc: connection closed"); closure mid-frame
  /// or a malformed header reports the codec/transport error.
  Result<RpcFrame> ReceiveFrame();

  /// Half-closes both directions, unblocking a peer thread stuck in a
  /// blocking read/write on this connection. Does not release the fd
  /// (Close/destructor does).
  void ShutdownBoth();

  void Close();

  /// --- Nonblocking mode, for epoll owners (rpc/server.cc). After
  /// SetNonBlocking the blocking Send/ReceiveFrame pair must not be used;
  /// the owner moves bytes with ReadAvailable/WriteSome and does its own
  /// framing. Byte odometers keep counting either way.

  /// Switches the socket to O_NONBLOCK.
  void SetNonBlocking();

  /// Appends whatever the socket has right now to *buf (bounded per call;
  /// callers loop until 0). Returns the byte count appended — 0 means
  /// nothing available (would block). An orderly peer shutdown sets *eof
  /// and returns 0; transport failures return the error Status.
  Result<size_t> ReadAvailable(std::vector<uint8_t>* buf, bool* eof);

  /// Writes as much of [data, data+size) as the socket accepts without
  /// blocking; returns the count written (0 = would block).
  Result<size_t> WriteSome(const uint8_t* data, size_t size);

  /// Shrinks the kernel send buffer (SO_SNDBUF) — a test knob that makes
  /// partial-write (slow peer) paths reachable at tiny payload sizes.
  void SetSendBufferBytes(int bytes);

  /// The raw fd, for epoll registration. The connection
  /// still owns it.
  int fd() const { return fd_; }

  /// Byte odometers of everything framed through this connection, for
  /// validating SimNetwork's accounting against real traffic. Read them
  /// only from the thread issuing Send/Receive.
  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t bytes_received() const { return bytes_received_; }

 private:
  Status WriteAll(const uint8_t* data, size_t size);
  /// Reads exactly `size` bytes. `*clean_eof` (optional) is set when the
  /// peer closed before the first byte — a legal end-of-stream.
  Status ReadAll(uint8_t* data, size_t size, bool* clean_eof = nullptr);

  int fd_ = -1;
  uint64_t bytes_sent_ = 0;
  uint64_t bytes_received_ = 0;
};

/// Listening TCP socket. Port 0 binds an ephemeral port; port() reports
/// the actual one. Accept blocks until a connection arrives or Shutdown
/// is called from another thread (Accept then returns an error).
class TcpListener {
 public:
  TcpListener() = default;
  ~TcpListener() { Shutdown(); }

  TcpListener(TcpListener&& o) noexcept { *this = std::move(o); }
  TcpListener& operator=(TcpListener&& o) noexcept;
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  static Result<TcpListener> Listen(uint16_t port);

  bool valid() const { return fd_ >= 0; }
  uint16_t port() const { return port_; }

  Result<TcpConnection> Accept();

  /// Switches the listening socket to O_NONBLOCK (epoll owners).
  void SetNonBlocking();

  /// Nonblocking accept (after SetNonBlocking): NotFound("no pending
  /// connection") when the backlog is empty; transient per-connection
  /// aborts are retried internally like Accept.
  Result<TcpConnection> TryAccept();

  /// The raw fd, for epoll registration. The listener owns it.
  int fd() const { return fd_; }

  /// Wakes a concurrently blocked Accept (it returns an error) without
  /// mutating any member — the ONLY member safe to call from another
  /// thread while the accept thread is live. The owner still calls
  /// Shutdown() afterwards, once the accept thread is joined.
  void Interrupt();

  /// Closes the listening socket; a subsequent Accept fails. Idempotent,
  /// but NOT safe concurrently with a blocked Accept — use Interrupt()
  /// first and join the accepting thread.
  void Shutdown();

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
};

}  // namespace fedaqp

#endif  // FEDAQP_RPC_TRANSPORT_H_
