#include "rpc/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <functional>
#include <iterator>
#include <map>
#include <mutex>
#include <vector>

#include "rpc/frame.h"
#include "rpc/wire.h"

namespace ppgnn::rpc {

namespace {

// One accepted connection.  Its requests complete into `cq`, a
// callback-mode CompletionQueue whose callback (running on a batcher
// dispatcher thread) encodes the response into the outbox; the poll loop
// flushes the outbox, hence the mutex.  `closed` makes a completion for a
// vanished client drop its response instead of writing into a dead
// buffer, and a closed connection is only destroyed once `cq` has
// delivered every request it was handed (`submitted`, poll thread only) —
// the queue must outlive its requests.  The frame pool and counters are
// per connection and ride under the same mutex (a replica serves one
// front, so per-conn pooling IS global pooling here).
struct Conn {
  using Respond = std::function<void(Conn&, serve::ServeResponse&&)>;
  Conn(int f, std::size_t pool_buffers, const Respond& respond)
      : fd(f),
        pool(pool_buffers),
        cq([this, respond](serve::ServeResponse&& r) {
          respond(*this, std::move(r));
        }) {}
  int fd;
  FrameReader reader;
  std::mutex mu;
  FrameQueue outbox;
  FramePool pool;
  RpcStats stats;
  bool closed = false;
  serve::CompletionQueue cq;
  std::size_t submitted = 0;

  // Encodes one frame into a pooled buffer via `encode` (a *_into
  // encoder).  Returns true when the outbox went idle->busy: only that
  // edge needs a poll-loop wake (while frames are queued the loop has
  // POLLOUT armed or a wake byte pending), so a dispatch round completing
  // a whole batch of responses costs one pipe write — and the loop then
  // flushes all of them in one vectored write.
  template <typename EncodeFn>
  bool enqueue(EncodeFn&& encode) {
    std::lock_guard<std::mutex> lk(mu);
    if (closed) return false;
    const bool was_idle = outbox.empty();
    outbox.push_back(
        encode_pooled(pool, stats, std::forward<EncodeFn>(encode)));
    return was_idle;
  }
  bool flushed() {
    std::lock_guard<std::mutex> lk(mu);
    return closed || outbox.empty();
  }
  bool answered_all() const { return cq.delivered() == submitted; }
};

serve::ServeStatus part_wire_status(serve::ServeStatus envelope,
                                    bool has_result) {
  if (!has_result) return envelope;
  // A part that carries a result is either a clean answer or a late one;
  // the envelope-level status may be worse because of OTHER parts.
  return envelope == serve::ServeStatus::kDeadlineExceeded
             ? serve::ServeStatus::kDeadlineExceeded
             : serve::ServeStatus::kOk;
}

// Fills `w` (a reusable scratch) from a finished ServeResponse.  The
// per-part payloads are MOVED out of `resp` — it owns them and dies with
// the completion callback — so building the wire shape costs zero
// allocations: the scratch's parts array keeps its capacity and each
// moved-in vector replaces (frees) the one left over from the previous
// response.  The response id is the client's wire id (handle_request
// passes it through), and the result mode shows in the response's shape:
// a top-k answer carries one (possibly empty) entry list per node, a
// full-logits answer none.
void to_wire_into(serve::ServeResponse& resp, WireResponse& w) {
  const serve::ResultMode mode = resp.topk.empty()
                                     ? serve::ResultMode::kFullLogits
                                     : serve::ResultMode::kTopK;
  w.id = resp.id;
  w.status = resp.status;
  w.mode = mode;
  w.timings = resp.timings;
  w.error.clear();
  if (resp.error) {
    try {
      std::rethrow_exception(resp.error);
    } catch (const std::exception& e) {
      w.error = e.what();
    } catch (...) {
      w.error = "unknown backend error";
    }
  }
  const std::size_t n =
      mode == serve::ResultMode::kTopK ? resp.topk.size() : resp.logits.size();
  w.parts.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    WirePart& p = w.parts[i];
    if (mode == serve::ResultMode::kTopK) {
      p.logits.clear();
      p.topk = std::move(resp.topk[i]);
      p.status = part_wire_status(resp.status, !p.topk.empty());
    } else {
      p.topk.clear();
      p.logits = std::move(resp.logits[i]);
      p.status = part_wire_status(resp.status, !p.logits.empty());
    }
  }
}

}  // namespace

ReplicaServer::ReplicaServer(std::unique_ptr<serve::InferenceSession> session,
                             const ReplicaServerConfig& cfg)
    : session_(std::move(session)), cfg_(cfg) {
  stats_ = std::make_unique<serve::ServerStats>();
}

ReplicaServer::~ReplicaServer() = default;

int ReplicaServer::run(const std::atomic<bool>& stop) {
  std::string err;
  int listen_fd = listen_on(cfg_.address, &err);
  if (listen_fd < 0) {
    std::fprintf(stderr, "replica_server: %s\n", err.c_str());
    return 1;
  }
  set_nonblocking(listen_fd);
  int wake_pipe[2];
  if (::pipe2(wake_pipe, O_CLOEXEC | O_NONBLOCK) != 0) {
    ::close(listen_fd);
    std::fprintf(stderr, "replica_server: pipe2 failed\n");
    return 1;
  }
  const int wake_wfd = wake_pipe[1];
  auto wake = [wake_wfd] {
    const std::uint8_t b = 1;
    [[maybe_unused]] const ssize_t w = ::write(wake_wfd, &b, 1);
  };

  std::map<int, std::shared_ptr<Conn>> conns;
  // Closed connections whose requests are still in the batcher.
  std::vector<std::shared_ptr<Conn>> closing;
  std::atomic<std::size_t> inflight{0};
  // Every response lands here, on the dispatcher thread that finished the
  // envelope's last part.  One wire-shape scratch per dispatcher thread:
  // to_wire_into moves the payloads out of `resp` and reuses the
  // scratch's parts capacity, so a completion allocates nothing on its way
  // to the outbox (the pooled encode buffer is recycled too).
  const Conn::Respond respond = [&inflight, wake](Conn& conn,
                                                  serve::ServeResponse&& resp) {
    thread_local WireResponse w;
    to_wire_into(resp, w);
    const bool need_wake = conn.enqueue(
        [](std::vector<std::uint8_t>& out) { encode_response_into(w, out); });
    inflight.fetch_sub(1, std::memory_order_relaxed);
    if (need_wake) wake();
  };
  // HelloAck advertises the logits width; measured by running one real
  // inference, which doubles as the health check the Warming handshake
  // exists for — a replica that cannot answer node 0 never acks.
  std::uint32_t classes = 0;

  serve::MicroBatcher batcher(*session_, cfg_.batch, stats_.get());
  bool draining = false;
  std::chrono::steady_clock::time_point drain_deadline{};

  auto handle_request = [&](const std::shared_ptr<Conn>& conn,
                            WireRequest& wreq) {
    serve::ServeRequest sreq;
    sreq.id = wreq.id;
    // The decoded nodes move straight into the serve envelope — the wire
    // request is scratch and the ServeRequest needs ownership anyway.
    sreq.nodes = std::move(wreq.nodes);
    sreq.priority = wreq.priority;
    sreq.mode = wreq.mode;
    sreq.topk = wreq.topk;
    sreq.tenant = wreq.tenant;
    sreq.deadline = budget_us_to_deadline(wreq.deadline_rel_us,
                                          std::chrono::steady_clock::now());
    inflight.fetch_add(1, std::memory_order_relaxed);
    ++conn->submitted;
    auto state =
        std::make_shared<serve::RequestState>(std::move(sreq), &conn->cq);
    const std::size_t parts = state->parts();
    auto bounce = [&state, parts] {
      for (std::uint32_t slot = 0; slot < parts; ++slot) {
        state->finish_part(slot, serve::ServeStatus::kDraining, nullptr, 0,
                           serve::StageTimings{});
      }
    };
    if (draining) {
      bounce();
      return;
    }
    // Slot ids are just 0..parts-1; envelopes are a handful of nodes, so a
    // stack array covers them without a per-request allocation (heap only
    // for pathological fan-out).
    std::uint32_t stack_slots[256];
    std::vector<std::uint32_t> heap_slots;
    std::uint32_t* slots = stack_slots;
    if (parts > std::size(stack_slots)) {
      heap_slots.resize(parts);
      slots = heap_slots.data();
    }
    for (std::uint32_t i = 0; i < parts; ++i) slots[i] = i;
    serve::RejectReason reason;
    try {
      reason = batcher.try_submit_parts(state, slots, parts);
    } catch (const std::runtime_error&) {
      reason = serve::RejectReason::kDraining;  // stopped == terminal drain
    }
    if (reason == serve::RejectReason::kDraining) bounce();
    // kOverload / kDeadline: the batcher resolved the parts itself.
  };

  auto close_conn = [&conns, &closing, this](int fd) {
    const auto it = conns.find(fd);
    if (it == conns.end()) return;
    {
      std::lock_guard<std::mutex> lk(it->second->mu);
      it->second->closed = true;
      rpc_stats_.merge(it->second->stats);
    }
    ::close(fd);
    if (!it->second->answered_all()) closing.push_back(it->second);
    conns.erase(it);
  };

  std::uint8_t buf[65536];
  std::vector<pollfd> pfds;
  // Request decode scratch: handle_request moves the nodes out, so across
  // frames this only re-grows what each envelope actually ships.
  WireRequest wreq;
  for (;;) {
    if (!draining && stop.load(std::memory_order_acquire)) {
      draining = true;
      drain_deadline = std::chrono::steady_clock::now() + cfg_.drain_timeout;
      if (listen_fd >= 0) {
        ::close(listen_fd);
        listen_fd = -1;
      }
      batcher.begin_drain();
    }
    closing.erase(std::remove_if(closing.begin(), closing.end(),
                                 [](const std::shared_ptr<Conn>& c) {
                                   return c->answered_all();
                                 }),
                  closing.end());
    if (draining) {
      bool all_flushed = inflight.load(std::memory_order_relaxed) == 0;
      for (const auto& [fd, conn] : conns) {
        all_flushed = all_flushed && conn->flushed();
      }
      if (all_flushed || std::chrono::steady_clock::now() > drain_deadline) {
        break;
      }
    }

    pfds.clear();
    pfds.push_back({wake_pipe[0], POLLIN, 0});
    if (listen_fd >= 0) pfds.push_back({listen_fd, POLLIN, 0});
    for (const auto& [fd, conn] : conns) {
      short ev = POLLIN;
      if (!conn->flushed()) ev |= POLLOUT;
      pfds.push_back({fd, ev, 0});
    }
    ::poll(pfds.data(), pfds.size(), 50);

    std::size_t idx = 0;
    if (pfds[idx].revents & POLLIN) {
      std::uint8_t drain_buf[64];
      while (::read(wake_pipe[0], drain_buf, sizeof(drain_buf)) > 0) {
      }
    }
    ++idx;
    if (listen_fd >= 0) {
      if (pfds[idx].revents & POLLIN) {
        for (;;) {
          const int cfd = ::accept4(listen_fd, nullptr, nullptr,
                                    SOCK_CLOEXEC | SOCK_NONBLOCK);
          if (cfd < 0) break;
          conns.emplace(cfd, std::make_shared<Conn>(
                                 cfd, cfg_.frame_pool_buffers, respond));
        }
      }
      ++idx;
    }

    std::vector<int> dead;
    // Walk the polled entries, not `conns`: the accept loop above may have
    // grown the map since pfds was built, and std::map orders by fd — a
    // freshly accepted low fd would shift every later entry off its pollfd.
    // Connections accepted this iteration simply wait for the next poll.
    for (; idx < pfds.size(); ++idx) {
      const pollfd& p = pfds[idx];
      const auto conn_it = conns.find(p.fd);
      if (conn_it == conns.end()) continue;
      const int fd = conn_it->first;
      const std::shared_ptr<Conn>& conn = conn_it->second;
      if (p.revents & (POLLERR | POLLHUP)) {
        dead.push_back(fd);
        continue;
      }
      if (p.revents & POLLOUT) {
        std::lock_guard<std::mutex> lk(conn->mu);
        if (!drain_writev(fd, conn->outbox, conn->pool, conn->stats)) {
          dead.push_back(fd);
        }
      }
      if (p.revents & POLLIN) {
        bool eof = false;
        for (;;) {
          const ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
          if (r > 0) {
            conn->reader.feed(buf, static_cast<std::size_t>(r));
            continue;
          }
          if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          if (r < 0 && errno == EINTR) continue;
          eof = true;
          break;
        }
        // Zero-copy decode: the body view aliases the reader's buffer,
        // which only this thread feeds — valid until the next recv.
        MsgType type;
        const std::uint8_t* body = nullptr;
        std::size_t body_len = 0;
        bool proto_err = false;
        while (conn->reader.next_view(&type, &body, &body_len)) {
          if (type == MsgType::kHello) {
            // A Hello at any other version (or with a bad magic) fails
            // the handshake: the connection closes without an ack.
            WireHello hello;
            std::string herr;
            if (!decode_hello(body, body_len, &hello, &herr)) {
              proto_err = true;
              break;
            }
            if (classes == 0) {
              classes = static_cast<std::uint32_t>(
                  session_->infer_one(0).size());
            }
            WireHelloAck ack;
            ack.num_nodes = session_->num_nodes();
            ack.classes = classes;
            ack.precision = static_cast<std::uint8_t>(session_->precision());
            conn->enqueue([&ack](std::vector<std::uint8_t>& out) {
              encode_hello_ack_into(ack, out);
            });
          } else if (type == MsgType::kRequest) {
            std::string rerr;
            if (!decode_request(body, body_len, &wreq, &rerr)) {
              proto_err = true;
              break;
            }
            handle_request(conn, wreq);
          } else {
            proto_err = true;  // clients never send HelloAck/Response
            break;
          }
        }
        if (proto_err || conn->reader.failed() || eof) {
          dead.push_back(fd);
        }
      }
    }
    for (const int fd : dead) close_conn(fd);
  }

  // Admitted work completes inside stop(); its responses were either
  // flushed above (clean drain) or die with the connections (drain
  // timeout — the client's transport error re-routes them).
  batcher.stop();
  for (auto& [fd, conn] : conns) {
    std::lock_guard<std::mutex> lk(conn->mu);
    conn->closed = true;
    rpc_stats_.merge(conn->stats);
    ::close(fd);
  }
  conns.clear();
  if (listen_fd >= 0) ::close(listen_fd);
  ::close(wake_pipe[0]);
  ::close(wake_pipe[1]);
  return 0;
}

}  // namespace ppgnn::rpc
