#include "rpc/frame.h"

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace ppgnn::rpc {

namespace {

bool fail(std::string* err, const std::string& what) {
  if (err) *err = what;
  return false;
}

int fail_fd(std::string* err, const std::string& what, int fd = -1) {
  if (err) *err = what + ": " + std::strerror(errno);
  if (fd >= 0) ::close(fd);
  return -1;
}

int unix_socket(std::string* err) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return fail_fd(err, "socket(AF_UNIX)");
  return fd;
}

bool fill_unix_addr(const std::string& path, sockaddr_un* sa,
                    std::string* err) {
  if (path.empty() || path.size() >= sizeof(sa->sun_path)) {
    fail(err, "unix socket path empty or too long: " + path);
    return false;
  }
  std::memset(sa, 0, sizeof(*sa));
  sa->sun_family = AF_UNIX;
  std::memcpy(sa->sun_path, path.c_str(), path.size() + 1);
  return true;
}

}  // namespace

bool parse_address(const std::string& addr, ParsedAddr* out,
                   std::string* err) {
  if (addr.rfind("unix:", 0) == 0) {
    out->is_unix = true;
    out->path = addr.substr(5);
    if (out->path.empty()) return fail(err, "empty unix socket path");
    return true;
  }
  if (addr.rfind("tcp:", 0) == 0) {
    const std::string rest = addr.substr(4);
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == rest.size()) {
      return fail(err, "tcp address must be tcp:host:port: " + addr);
    }
    out->is_unix = false;
    out->host = rest.substr(0, colon);
    const std::string port = rest.substr(colon + 1);
    char* end = nullptr;
    const long p = std::strtol(port.c_str(), &end, 10);
    if (*end != '\0' || p <= 0 || p > 65535) {
      return fail(err, "bad tcp port: " + port);
    }
    out->port = static_cast<std::uint16_t>(p);
    return true;
  }
  return fail(err, "address must start with unix: or tcp: — got " + addr);
}

int listen_on(const std::string& addr, std::string* err) {
  ParsedAddr a;
  if (!parse_address(addr, &a, err)) return -1;
  if (a.is_unix) {
    sockaddr_un sa;
    if (!fill_unix_addr(a.path, &sa, err)) return -1;
    ::unlink(a.path.c_str());  // stale socket from a crashed predecessor
    const int fd = unix_socket(err);
    if (fd < 0) return -1;
    if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
      return fail_fd(err, "bind(" + a.path + ")", fd);
    }
    if (::listen(fd, 16) != 0) return fail_fd(err, "listen", fd);
    return fd;
  }
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  addrinfo* res = nullptr;
  const std::string port = std::to_string(a.port);
  if (::getaddrinfo(a.host.c_str(), port.c_str(), &hints, &res) != 0 ||
      !res) {
    fail(err, "getaddrinfo failed for " + a.host);
    return -1;
  }
  int fd = ::socket(res->ai_family, res->ai_socktype | SOCK_CLOEXEC,
                    res->ai_protocol);
  if (fd < 0) {
    ::freeaddrinfo(res);
    return fail_fd(err, "socket(tcp)");
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  const int rc = ::bind(fd, res->ai_addr, res->ai_addrlen);
  ::freeaddrinfo(res);
  if (rc != 0) return fail_fd(err, "bind(tcp " + a.host + ":" + port + ")", fd);
  if (::listen(fd, 16) != 0) return fail_fd(err, "listen", fd);
  return fd;
}

int connect_to(const std::string& addr, std::chrono::milliseconds timeout,
               std::string* err) {
  ParsedAddr a;
  if (!parse_address(addr, &a, err)) return -1;
  int fd = -1;
  if (a.is_unix) {
    sockaddr_un sa;
    if (!fill_unix_addr(a.path, &sa, err)) return -1;
    fd = unix_socket(err);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
      return fail_fd(err, "connect(" + a.path + ")", fd);
    }
    return fd;
  }
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string port = std::to_string(a.port);
  if (::getaddrinfo(a.host.c_str(), port.c_str(), &hints, &res) != 0 ||
      !res) {
    fail(err, "getaddrinfo failed for " + a.host);
    return -1;
  }
  fd = ::socket(res->ai_family, res->ai_socktype | SOCK_CLOEXEC,
                res->ai_protocol);
  if (fd < 0) {
    ::freeaddrinfo(res);
    return fail_fd(err, "socket(tcp)");
  }
  // Nonblocking connect bounded by `timeout`, then back to blocking: the
  // caller decides per-fd blocking mode afterwards.
  set_nonblocking(fd);
  int rc = ::connect(fd, res->ai_addr, res->ai_addrlen);
  ::freeaddrinfo(res);
  if (rc != 0 && errno == EINPROGRESS) {
    pollfd p{fd, POLLOUT, 0};
    rc = ::poll(&p, 1, static_cast<int>(timeout.count()));
    if (rc <= 0) return fail_fd(err, "connect timeout to " + addr, fd);
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len);
    if (so_error != 0) {
      errno = so_error;
      return fail_fd(err, "connect(" + addr + ")", fd);
    }
    rc = 0;
  }
  if (rc != 0) return fail_fd(err, "connect(" + addr + ")", fd);
  const int flags = ::fcntl(fd, F_GETFL);
  ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void FrameReader::feed(const std::uint8_t* data, std::size_t n) {
  if (failed_) return;
  // Compact once the consumed prefix dominates — amortized O(1) per byte.
  if (off_ > 4096 && off_ > buf_.size() / 2) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(off_));
    off_ = 0;
  }
  buf_.insert(buf_.end(), data, data + n);
}

bool FrameReader::next(MsgType* type, std::vector<std::uint8_t>* body) {
  const std::uint8_t* p = nullptr;
  std::size_t len = 0;
  if (!next_view(type, &p, &len)) return false;
  body->assign(p, p + len);
  return true;
}

bool FrameReader::next_view(MsgType* type, const std::uint8_t** body,
                            std::size_t* len) {
  if (failed_) return false;
  if (buf_.size() - off_ < kFrameHeaderBytes) return false;
  FrameHeader h;
  if (!decode_frame_header(buf_.data() + off_, &h, &error_)) {
    failed_ = true;
    return false;
  }
  if (buf_.size() - off_ < kFrameHeaderBytes + h.body_len) return false;
  *type = h.type;
  *body = buf_.data() + off_ + kFrameHeaderBytes;
  *len = h.body_len;
  off_ += kFrameHeaderBytes + h.body_len;
  return true;
}

}  // namespace ppgnn::rpc
