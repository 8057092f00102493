#include "rpc/transport.h"

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace fedaqp {

namespace {

Status Errno(const std::string& what) {
  return Status::Internal("rpc: " + what + ": " + std::strerror(errno));
}

/// Disables Nagle: the protocol is strict request/reply with tiny frames,
/// where delayed ACK + Nagle interact into 40ms stalls per round-trip.
void DisableNagle(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

Result<HostPort> ParseHostPort(const std::string& host_port) {
  const size_t colon = host_port.rfind(':');
  if (colon == std::string::npos || colon == 0) {
    return Status::InvalidArgument("rpc: expected host:port, got '" +
                                   host_port + "'");
  }
  const std::string digits = host_port.substr(colon + 1);
  const bool numeric = !digits.empty() && digits.size() <= 5 &&
                       digits.find_first_not_of("0123456789") ==
                           std::string::npos;
  const unsigned long port = numeric ? std::stoul(digits) : 0;
  if (port == 0 || port > 65535) {
    return Status::InvalidArgument("rpc: bad port in '" + host_port + "'");
  }
  return HostPort{host_port.substr(0, colon), static_cast<uint16_t>(port)};
}

TcpConnection& TcpConnection::operator=(TcpConnection&& o) noexcept {
  if (this != &o) {
    Close();
    fd_ = o.fd_;
    bytes_sent_ = o.bytes_sent_;
    bytes_received_ = o.bytes_received_;
    o.fd_ = -1;
    o.bytes_sent_ = 0;
    o.bytes_received_ = 0;
  }
  return *this;
}

Result<TcpConnection> TcpConnection::Connect(const std::string& host,
                                             uint16_t port) {
  struct addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* addrs = nullptr;
  int rc = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints,
                         &addrs);
  if (rc != 0) {
    return Status::InvalidArgument("rpc: cannot resolve '" + host +
                                   "': " + ::gai_strerror(rc));
  }
  int fd = -1;
  int last_errno = ECONNREFUSED;
  for (struct addrinfo* a = addrs; a != nullptr; a = a->ai_next) {
    fd = ::socket(a->ai_family, a->ai_socktype, a->ai_protocol);
    if (fd < 0) {
      last_errno = errno;
      continue;
    }
    if (::connect(fd, a->ai_addr, a->ai_addrlen) == 0) break;
    last_errno = errno;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(addrs);
  if (fd < 0) {
    return Status::Internal("rpc: cannot connect to " + host + ":" +
                            std::to_string(port) + ": " +
                            std::strerror(last_errno));
  }
  DisableNagle(fd);
  return TcpConnection(fd);
}

Status TcpConnection::WriteAll(const uint8_t* data, size_t size) {
  size_t off = 0;
  while (off < size) {
    // MSG_NOSIGNAL: a peer that died must surface as EPIPE, not kill the
    // process with SIGPIPE.
    ssize_t n = ::send(fd_, data + off, size - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send failed");
    }
    off += static_cast<size_t>(n);
  }
  bytes_sent_ += size;
  return Status::OK();
}

Status TcpConnection::ReadAll(uint8_t* data, size_t size, bool* clean_eof) {
  if (clean_eof != nullptr) *clean_eof = false;
  size_t off = 0;
  while (off < size) {
    ssize_t n = ::recv(fd_, data + off, size - off, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("recv failed");
    }
    if (n == 0) {
      if (off == 0 && clean_eof != nullptr) {
        *clean_eof = true;
        return Status::NotFound("rpc: connection closed");
      }
      return Status::OutOfRange("rpc: connection closed mid-frame");
    }
    off += static_cast<size_t>(n);
  }
  bytes_received_ += size;
  return Status::OK();
}

Status TcpConnection::SendFrame(RpcMethod method, const ByteWriter& payload) {
  if (!valid()) return Status::FailedPrecondition("rpc: connection not open");
  // Enforced sender-side too: an oversized message must fail fast and
  // locally, not poison the connection when the peer rejects the header
  // (and a > 4 GiB payload would truncate in the u32 length field and
  // desync the stream).
  if (payload.size() > kMaxFramePayloadBytes) {
    return Status::InvalidArgument("rpc: frame payload of " +
                                   std::to_string(payload.size()) +
                                   " bytes exceeds the 16 MiB cap");
  }
  std::vector<uint8_t> frame = EncodeFrame(method, payload);
  return WriteAll(frame.data(), frame.size());
}

Status TcpConnection::SendFrames(const ByteWriter& frames) {
  if (!valid()) return Status::FailedPrecondition("rpc: connection not open");
  return WriteAll(frames.bytes().data(), frames.size());
}

Result<RpcFrame> TcpConnection::ReceiveFrame() {
  if (!valid()) return Status::FailedPrecondition("rpc: connection not open");
  uint8_t header_bytes[kFrameHeaderBytes];
  bool clean_eof = false;
  FEDAQP_RETURN_IF_ERROR(ReadAll(header_bytes, sizeof(header_bytes),
                                 &clean_eof));
  ByteReader header_reader(header_bytes, sizeof(header_bytes));
  FEDAQP_ASSIGN_OR_RETURN(FrameHeader header,
                          DecodeFrameHeader(&header_reader));
  RpcFrame frame;
  frame.method = header.method;
  frame.payload.resize(header.payload_size);
  if (header.payload_size > 0) {
    FEDAQP_RETURN_IF_ERROR(ReadAll(frame.payload.data(), frame.payload.size()));
  }
  return frame;
}

void TcpConnection::SetNonBlocking() {
  if (fd_ < 0) return;
  int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
}

Result<size_t> TcpConnection::ReadAvailable(std::vector<uint8_t>* buf,
                                            bool* eof) {
  *eof = false;
  if (!valid()) return Status::FailedPrecondition("rpc: connection not open");
  uint8_t chunk[65536];
  for (;;) {
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return size_t{0};
      return Errno("recv failed");
    }
    if (n == 0) {
      *eof = true;
      return size_t{0};
    }
    buf->insert(buf->end(), chunk, chunk + n);
    bytes_received_ += static_cast<size_t>(n);
    return static_cast<size_t>(n);
  }
}

Result<size_t> TcpConnection::WriteSome(const uint8_t* data, size_t size) {
  if (!valid()) return Status::FailedPrecondition("rpc: connection not open");
  for (;;) {
    ssize_t n = ::send(fd_, data, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return size_t{0};
      return Errno("send failed");
    }
    bytes_sent_ += static_cast<size_t>(n);
    return static_cast<size_t>(n);
  }
}

void TcpConnection::SetSendBufferBytes(int bytes) {
  if (fd_ < 0 || bytes <= 0) return;
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes));
}

void TcpConnection::ShutdownBoth() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void TcpConnection::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

TcpListener& TcpListener::operator=(TcpListener&& o) noexcept {
  if (this != &o) {
    Shutdown();
    fd_ = o.fd_;
    port_ = o.port_;
    o.fd_ = -1;
    o.port_ = 0;
  }
  return *this;
}

Result<TcpListener> TcpListener::Listen(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket failed");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Status st = Errno("bind to port " + std::to_string(port) + " failed");
    ::close(fd);
    return st;
  }
  if (::listen(fd, SOMAXCONN) != 0) {
    Status st = Errno("listen failed");
    ::close(fd);
    return st;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) !=
      0) {
    Status st = Errno("getsockname failed");
    ::close(fd);
    return st;
  }
  TcpListener listener;
  listener.fd_ = fd;
  listener.port_ = ntohs(addr.sin_port);
  return listener;
}

Result<TcpConnection> TcpListener::Accept() {
  if (!valid()) return Status::FailedPrecondition("rpc: listener not open");
  for (;;) {
    int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      DisableNagle(fd);
      return TcpConnection(fd);
    }
    // A peer that RSTs between connect and accept surfaces here as
    // ECONNABORTED (EPROTO on some stacks) — about that connection, not
    // the listener; treating it as fatal would let one flaky client kill
    // the accept loop.
    if (errno == EINTR || errno == ECONNABORTED || errno == EPROTO) continue;
    return Errno("accept failed");
  }
}

void TcpListener::SetNonBlocking() {
  if (fd_ < 0) return;
  int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
}

Result<TcpConnection> TcpListener::TryAccept() {
  if (!valid()) return Status::FailedPrecondition("rpc: listener not open");
  for (;;) {
    int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      DisableNagle(fd);
      return TcpConnection(fd);
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::NotFound("no pending connection");
    }
    // Same transient aborts as Accept: about one doomed connection, not
    // the listener.
    if (errno == EINTR || errno == ECONNABORTED || errno == EPROTO) continue;
    return Errno("accept failed");
  }
}

void TcpListener::Interrupt() {
  // shutdown() on a listening socket makes a blocked accept() return
  // (EINVAL on Linux); deliberately leaves fd_ untouched so the accept
  // thread's concurrent reads of it stay race-free.
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void TcpListener::Shutdown() {
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace fedaqp
