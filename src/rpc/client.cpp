#include "rpc/client.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace ppgnn::rpc {

namespace {

using Clock = std::chrono::steady_clock;

// Deadline-bounded full write on a (blocking or not) fd — handshake only;
// steady-state writes go through the nonblocking outbox.
bool write_all(int fd, const std::uint8_t* p, std::size_t n,
               Clock::time_point deadline, std::string* err) {
  while (n > 0) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) {
      if (err) *err = "handshake write timeout";
      return false;
    }
    pollfd pf{fd, POLLOUT, 0};
    if (::poll(&pf, 1, static_cast<int>(left.count())) <= 0) {
      if (err) *err = "handshake write timeout";
      return false;
    }
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      if (err) *err = std::string("handshake write: ") + std::strerror(errno);
      return false;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

// Sends Hello, waits for HelloAck (whose decoder refuses any version but
// ours).  The FrameReader is local: handshake bytes never mix with
// steady-state traffic.
bool hello_exchange(int fd, Clock::time_point deadline, WireHelloAck* ack,
                    std::string* err) {
  std::vector<std::uint8_t> frame;
  encode_hello_into(WireHello{}, frame);
  if (!write_all(fd, frame.data(), frame.size(), deadline, err)) return false;

  FrameReader reader;
  std::uint8_t buf[4096];
  for (;;) {
    MsgType type;
    std::vector<std::uint8_t> body;
    if (reader.next(&type, &body)) {
      if (type != MsgType::kHelloAck) {
        if (err) *err = "handshake: expected HelloAck";
        return false;
      }
      return decode_hello_ack(body.data(), body.size(), ack, err);
    }
    if (reader.failed()) {
      if (err) *err = reader.error();
      return false;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) {
      if (err) *err = "handshake read timeout";
      return false;
    }
    pollfd pf{fd, POLLIN, 0};
    if (::poll(&pf, 1, static_cast<int>(left.count())) <= 0) {
      if (err) *err = "handshake read timeout";
      return false;
    }
    const ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
    if (r == 0) {
      if (err) *err = "handshake: server closed the connection";
      return false;
    }
    if (r < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      if (err) *err = std::string("handshake read: ") + std::strerror(errno);
      return false;
    }
    reader.feed(buf, static_cast<std::size_t>(r));
  }
}

}  // namespace

RpcClient::RpcClient(RpcClientConfig cfg)
    : cfg_(std::move(cfg)), pool_(cfg_.frame_pool_buffers) {
  if (::pipe2(wake_pipe_, O_CLOEXEC | O_NONBLOCK) != 0) {
    throw std::runtime_error("RpcClient: pipe2 failed");
  }
}

RpcClient::~RpcClient() { shutdown(); }

bool RpcClient::handshake(WireHelloAck* ack, std::string* err) {
  const auto deadline = Clock::now() + cfg_.handshake_timeout;
  int fd = -1;
  std::string last_err = "handshake timeout";
  // Retry the connect inside the budget: the replica process may still be
  // loading its checkpoint when we first knock.
  while (Clock::now() < deadline) {
    fd = connect_to(cfg_.address, cfg_.connect_timeout, &last_err);
    if (fd >= 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  if (fd < 0) {
    std::lock_guard<std::mutex> lk(mu_);
    dead_ = true;
    if (err) *err = last_err;
    return false;
  }
  if (!hello_exchange(fd, deadline, ack, err)) {
    ::close(fd);
    std::lock_guard<std::mutex> lk(mu_);
    dead_ = true;
    return false;
  }
  set_nonblocking(fd);
  {
    std::lock_guard<std::mutex> lk(mu_);
    fd_ = fd;
    connected_ = true;
  }
  io_ = std::thread([this] { io_loop(); });
  return true;
}

void RpcClient::call(WireRequest& req, std::chrono::milliseconds timeout,
                     Done done) {
  if (timeout.count() <= 0) timeout = cfg_.request_timeout;
  std::string why;
  bool need_wake = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopping_) {
      why = "rpc client shut down";
    } else if (dead_) {
      why = "rpc transport dead (reconnect attempts exhausted)";
    } else if (!connected_) {
      // Fail fast while reconnecting: the fleet re-routes instead of
      // queueing work against a connection that may never come back.
      why = "rpc transport disconnected";
    } else if (pending_count_ > kSlotMask) {
      why = "rpc client overloaded (slot slab exhausted)";
    } else {
      std::uint32_t slot;
      if (!free_slots_.empty()) {
        slot = free_slots_.back();
        free_slots_.pop_back();
      } else {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
      }
      const std::uint64_t id = (next_seq_++ << kSlotBits) | slot;
      req.id = id;
      Pending& p = slots_[slot];
      p.id = id;
      p.done = std::move(done);
      p.expires = Clock::now() + timeout;
      ++pending_count_;
      // Wake the I/O thread only on the idle->busy edge: while the outbox
      // already has frames the poll loop has POLLOUT armed (or a wake byte
      // pending) and will pick this frame up on its own.  A dispatcher
      // submitting a whole batch then costs one pipe write, not one per
      // envelope — on a busy box each elided wake is a context switch
      // saved.  The second clause covers the deadline-driven sweep: a call
      // expiring before everything already in flight must shorten the
      // loop's sleep (with uniform timeouts it never fires).
      need_wake = outbox_.empty() || p.expires < next_expiry_;
      if (p.expires < next_expiry_) next_expiry_ = p.expires;
      outbox_.push_back(encode_pooled(
          pool_, stats_, [&req](std::vector<std::uint8_t>& out) {
            encode_request_into(req, out);
          }));
    }
  }
  if (why.empty()) {
    if (need_wake) wake();
    return;
  }
  Result r;
  r.transport_ok = false;
  r.transport_error = why;
  done(r);
}

bool RpcClient::alive() const {
  std::lock_guard<std::mutex> lk(mu_);
  return connected_ && !stopping_;
}

std::size_t RpcClient::inflight() const {
  std::lock_guard<std::mutex> lk(mu_);
  return pending_count_;
}

RpcStats RpcClient::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

void RpcClient::wake() {
  const std::uint8_t b = 1;
  [[maybe_unused]] const ssize_t w = ::write(wake_pipe_[1], &b, 1);
}

void RpcClient::drop_connection_locked(
    const std::string& why,
    std::vector<std::pair<Done, Result>>* completions) {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  connected_ = false;
  while (!outbox_.empty()) {
    pool_.release(std::move(outbox_.front()));
    outbox_.pop_front();
  }
  reader_ = FrameReader{};
  next_expiry_ = Clock::time_point::max();
  for (Pending& p : slots_) {
    if (p.id == 0) continue;
    Result r;
    r.transport_ok = false;
    r.transport_error = why;
    completions->emplace_back(std::move(p.done), std::move(r));
    p.done = nullptr;
    p.id = 0;
  }
  free_slots_.clear();
  slots_.clear();
  pending_count_ = 0;
  if (reconnect_attempts_ >= cfg_.max_reconnect_attempts) {
    dead_ = true;
    return;
  }
  backoff_ = backoff_.count() == 0
                 ? cfg_.backoff_initial
                 : std::min(backoff_ * 2, cfg_.backoff_max);
  next_reconnect_ = Clock::now() + backoff_;
}

bool RpcClient::try_reconnect() {
  std::string err;
  WireHelloAck ack;
  int fd = connect_to(cfg_.address, cfg_.connect_timeout, &err);
  bool ok = fd >= 0;
  if (ok && !hello_exchange(fd, Clock::now() + cfg_.connect_timeout, &ack,
                            &err)) {
    ::close(fd);
    ok = false;
  }
  std::lock_guard<std::mutex> lk(mu_);
  ++reconnect_attempts_;
  if (stopping_) {
    if (ok) ::close(fd);
    return false;
  }
  if (ok) {
    set_nonblocking(fd);
    fd_ = fd;
    connected_ = true;
    reconnect_attempts_ = 0;
    backoff_ = std::chrono::milliseconds(0);
    reader_ = FrameReader{};
    return true;
  }
  if (reconnect_attempts_ >= cfg_.max_reconnect_attempts) {
    dead_ = true;
  } else {
    backoff_ = backoff_.count() == 0
                   ? cfg_.backoff_initial
                   : std::min(backoff_ * 2, cfg_.backoff_max);
    next_reconnect_ = Clock::now() + backoff_;
  }
  return false;
}

void RpcClient::io_loop() {
  // The per-request timeout is a hang detector, so the loop sleeps exactly
  // until the NEAREST in-flight expiry (next_expiry_, maintained
  // incrementally by call()) instead of ticking on a fixed interval — and
  // indefinitely when nothing is in flight, so an idle client costs zero
  // wakeups.  The expired scan runs only when that instant actually
  // arrives, never per iteration.
  std::vector<std::pair<Done, Result>> completions;
  // Response decode scratch, reused across frames: decode_response refills
  // the same parts/logits capacity every time, and the Done borrows it
  // (moving out only what must outlive the callback), so the response path
  // stops allocating once the scratch has seen the workload's widest frame.
  Result scratch;
  std::uint8_t buf[65536];
  for (;;) {
    completions.clear();
    bool conn, reconnect_due = false;
    int fd;
    bool want_write;
    std::chrono::milliseconds wait{-1};  // -1: block until an fd event
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (stopping_) return;
      conn = connected_;
      fd = fd_;
      want_write = !outbox_.empty();
      const auto now = Clock::now();
      auto cap = [&wait](Clock::time_point t, Clock::time_point now) {
        // ceil, not truncate: a poll returning one ms early would spin on
        // a zero timeout until the deadline finally passes.
        auto ms = std::chrono::ceil<std::chrono::milliseconds>(t - now);
        if (ms.count() < 0) ms = std::chrono::milliseconds(0);
        if (wait.count() < 0 || ms < wait) wait = ms;
      };
      if (next_expiry_ != Clock::time_point::max()) cap(next_expiry_, now);
      if (!conn && !dead_) {
        if (now >= next_reconnect_) {
          reconnect_due = true;
        } else {
          cap(next_reconnect_, now);
        }
      }
    }
    if (reconnect_due) {
      try_reconnect();
      continue;
    }

    pollfd pfds[2];
    pfds[0] = {wake_pipe_[0], POLLIN, 0};
    nfds_t nfds = 1;
    if (conn) {
      pfds[1] = {fd, static_cast<short>(POLLIN | (want_write ? POLLOUT : 0)),
                 0};
      nfds = 2;
    }
    const int poll_ms =
        wait.count() < 0
            ? -1
            : static_cast<int>(std::min<std::int64_t>(wait.count(), INT_MAX));
    ::poll(pfds, nfds, poll_ms);
    if (pfds[0].revents & POLLIN) {
      std::uint8_t drain[64];
      while (::read(wake_pipe_[0], drain, sizeof(drain)) > 0) {
      }
    }

    if (conn && nfds == 2) {
      bool dropped = false;
      if (pfds[1].revents & (POLLERR | POLLHUP)) {
        std::lock_guard<std::mutex> lk(mu_);
        drop_connection_locked("rpc connection lost", &completions);
        dropped = true;
      }
      if (!dropped && (pfds[1].revents & POLLOUT)) {
        std::lock_guard<std::mutex> lk(mu_);
        if (!drain_writev(fd, outbox_, pool_, stats_)) {
          drop_connection_locked("rpc write failed", &completions);
          dropped = true;
        }
      }
      if (!dropped && (pfds[1].revents & POLLIN)) {
        for (;;) {
          const ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
          if (r > 0) {
            reader_.feed(buf, static_cast<std::size_t>(r));
            continue;
          }
          if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          if (r < 0 && errno == EINTR) continue;
          std::lock_guard<std::mutex> lk(mu_);
          drop_connection_locked(r == 0 ? "rpc connection closed by server"
                                        : "rpc read failed",
                                 &completions);
          dropped = true;
          break;
        }
        // Zero-copy decode: the body view aliases the reader's buffer,
        // which only this thread feeds — valid until the next recv.
        MsgType type;
        const std::uint8_t* body = nullptr;
        std::size_t body_len = 0;
        while (!dropped && reader_.next_view(&type, &body, &body_len)) {
          std::string err;
          if (type != MsgType::kResponse ||
              !decode_response(body, body_len, &scratch.response, &err)) {
            std::lock_guard<std::mutex> lk(mu_);
            drop_connection_locked(
                err.empty() ? "rpc protocol violation" : err, &completions);
            dropped = true;
            break;
          }
          Done done;
          {
            std::lock_guard<std::mutex> lk(mu_);
            const std::uint64_t id = scratch.response.id;
            const auto slot = static_cast<std::size_t>(id & kSlotMask);
            // Slot empty or recycled for a newer call: a late response to
            // a timed-out id — drop it.
            if (slot >= slots_.size() || slots_[slot].id != id) continue;
            Pending& p = slots_[slot];
            done = std::move(p.done);
            p.done = nullptr;
            p.id = 0;
            free_slots_.push_back(static_cast<std::uint32_t>(slot));
            --pending_count_;
          }
          // Completed inline, mu_ released: the borrowed scratch is this
          // thread's, and the callback may submit follow-up calls.
          scratch.transport_ok = true;
          scratch.transport_error.clear();
          done(scratch);
        }
        if (!dropped && reader_.failed()) {
          std::lock_guard<std::mutex> lk(mu_);
          drop_connection_locked(reader_.error(), &completions);
        }
      }
    }

    // Per-request timeout sweep: the hang detector.  Runs only when the
    // nearest tracked expiry has actually arrived (next_expiry_ may be
    // stale-early after that call completed — then the scan finds nothing
    // and just recomputes).  The connection stays up — a late response to
    // the forgotten id is dropped on arrival.
    if (const auto now = Clock::now(); true) {
      std::lock_guard<std::mutex> lk(mu_);
      if (now >= next_expiry_) {
        auto nearest = Clock::time_point::max();
        for (std::uint32_t s = 0; s < slots_.size(); ++s) {
          Pending& p = slots_[s];
          if (p.id == 0) continue;
          if (p.expires <= now) {
            Result r;
            r.transport_ok = false;
            r.transport_error = "rpc request timeout";
            completions.emplace_back(std::move(p.done), std::move(r));
            p.done = nullptr;
            p.id = 0;
            free_slots_.push_back(s);
            --pending_count_;
          } else {
            nearest = std::min(nearest, p.expires);
          }
        }
        next_expiry_ = nearest;
      }
    }

    for (auto& [done, result] : completions) done(result);
  }
}

void RpcClient::shutdown() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopping_) {
      // A concurrent/second shutdown: the first one owns the teardown.
      return;
    }
    stopping_ = true;
  }
  wake();
  if (io_.joinable()) io_.join();
  std::vector<std::pair<Done, Result>> completions;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (Pending& p : slots_) {
      if (p.id == 0) continue;
      Result r;
      r.transport_ok = false;
      r.transport_error = "rpc client shut down";
      completions.emplace_back(std::move(p.done), std::move(r));
      p.done = nullptr;
      p.id = 0;
    }
    free_slots_.clear();
    slots_.clear();
    pending_count_ = 0;
    next_expiry_ = Clock::time_point::max();
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
    connected_ = false;
  }
  for (auto& [done, result] : completions) done(result);
  for (int& fd : wake_pipe_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
}

}  // namespace ppgnn::rpc
