// Socket plumbing under ppgnn-wire: address parsing, listen/connect
// helpers, and incremental frame assembly over a byte stream.
//
// Addresses are strings so every CLI flag, config file and test uses one
// syntax:
//   unix:/path/to/replica.sock   Unix-domain stream socket (the default
//                                deployment: replicas on the serving host)
//   tcp:host:port                TCP, for replicas on other hosts (the
//                                multi-host follow-on rides on this)
//
// FrameReader turns the stream's arbitrary read() chunking back into whole
// frames: feed() appends bytes, next() pops one complete [header|body] at a
// time.  A protocol violation (bad version, unknown type, oversized length)
// latches failed() — the owner closes the connection; a half-received frame
// is simply "not yet".
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "rpc/wire.h"

namespace ppgnn::rpc {

struct ParsedAddr {
  bool is_unix = true;
  std::string path;  // unix
  std::string host;  // tcp
  std::uint16_t port = 0;
};

bool parse_address(const std::string& addr, ParsedAddr* out,
                   std::string* err);

// Bound + listening fd (CLOEXEC), or -1 with *err set.  Unix paths are
// unlinked first so a crashed predecessor's socket file cannot wedge a
// restart.
int listen_on(const std::string& addr, std::string* err);

// Connected blocking fd (CLOEXEC), or -1 with *err set.  The timeout bounds
// the TCP connect; refused connections fail immediately (the caller's
// retry/backoff decides what to do about a server that is not up yet).
int connect_to(const std::string& addr, std::chrono::milliseconds timeout,
               std::string* err);

bool set_nonblocking(int fd);

class FrameReader {
 public:
  void feed(const std::uint8_t* data, std::size_t n);
  // Pops the next complete frame into (*type, *body); false when the buffer
  // holds less than one frame.  After a protocol violation failed() is set
  // and next() returns false forever.
  bool next(MsgType* type, std::vector<std::uint8_t>* body);
  // Zero-copy variant: exposes the next frame's body in place.  The
  // pointer aliases the reader's buffer and is invalidated by the next
  // feed() (which may compact) — decode before feeding more bytes.
  bool next_view(MsgType* type, const std::uint8_t** body, std::size_t* len);
  bool failed() const { return failed_; }
  const std::string& error() const { return error_; }
  std::size_t buffered() const { return buf_.size() - off_; }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t off_ = 0;  // consumed prefix, compacted lazily
  bool failed_ = false;
  std::string error_;
};

}  // namespace ppgnn::rpc
