#include "net/tcp.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "support/bytes.hpp"

namespace dityco::net {

// -- framing ----------------------------------------------------------

std::vector<std::uint8_t> encode_frame(
    const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out;
  out.reserve(4 + payload.size());
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  out.push_back(static_cast<std::uint8_t>(len));
  out.push_back(static_cast<std::uint8_t>(len >> 8));
  out.push_back(static_cast<std::uint8_t>(len >> 16));
  out.push_back(static_cast<std::uint8_t>(len >> 24));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

bool FrameParser::feed(const std::uint8_t* data, std::size_t n,
                       std::vector<std::vector<std::uint8_t>>& out) {
  return feed(data, n, [&out](const std::uint8_t* p, std::size_t len) {
    out.emplace_back(p, p + len);
    return true;
  });
}

std::size_t gather_frames(const std::deque<BufPtr>& q, std::size_t wr_off,
                          std::size_t flush_bytes, std::size_t flush_frames,
                          struct iovec* iov, std::size_t iov_max) {
  std::size_t cnt = 0, bytes = 0;
  for (const auto& f : q) {
    if (cnt == iov_max) break;
    const std::size_t skip = cnt == 0 ? wr_off : 0;
    iov[cnt].iov_base = const_cast<std::uint8_t*>(f->data() + skip);
    iov[cnt].iov_len = f->size() - skip;
    bytes += iov[cnt].iov_len;
    ++cnt;
    if (cnt >= flush_frames || bytes >= flush_bytes) break;
  }
  return cnt;
}

void consume_written(std::deque<BufPtr>& q, std::size_t& wr_off,
                     std::size_t n, BufferPool& pool) {
  wr_off += n;
  while (!q.empty() && wr_off >= q.front()->size()) {
    wr_off -= q.front()->size();
    pool.release(std::move(q.front()));
    q.pop_front();
  }
}

std::pair<std::string, std::uint16_t> parse_hostport(const std::string& s) {
  const auto colon = s.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= s.size())
    throw std::invalid_argument("expected host:port, got '" + s + "'");
  const std::string host = s.substr(0, colon);
  const std::string port_str = s.substr(colon + 1);
  char* end = nullptr;
  const long port = std::strtol(port_str.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || port < 0 || port > 65535)
    throw std::invalid_argument("bad port in '" + s + "'");
  return {host, static_cast<std::uint16_t>(port)};
}

// -- small socket helpers ---------------------------------------------

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void close_quietly(int fd) {
  if (fd >= 0) ::close(fd);
}

sockaddr_in make_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
    throw std::invalid_argument("bad IPv4 address '" + host + "'");
  return addr;
}

// Peek at a daemon packet's trace header without decoding it. This
// mirrors core/wire.hpp — which net/ cannot include (packets are opaque
// at this layer) — so the socket hops of a traced operation carry the
// same id and sampling decision as every other hop.
constexpr std::uint8_t kPeekTraceFlag = 0x80;
constexpr std::uint8_t kPeekSampledFlag = 0x40;

std::uint64_t peek_trace_id(const std::vector<std::uint8_t>& b) {
  if (b.size() < 13 || !(b[0] & kPeekTraceFlag)) return 0;
  std::uint64_t id;
  std::memcpy(&id, b.data() + 5, sizeof id);
  return id;
}

bool peek_sampled(const std::vector<std::uint8_t>& b) {
  // Untraced packets count as sampled, like packet_sampled.
  return b.empty() || !(b[0] & kPeekTraceFlag) || (b[0] & kPeekSampledFlag);
}

void append_u32(Buf& b, std::uint32_t v) {
  b.push_back(static_cast<std::uint8_t>(v));
  b.push_back(static_cast<std::uint8_t>(v >> 8));
  b.push_back(static_cast<std::uint8_t>(v >> 16));
  b.push_back(static_cast<std::uint8_t>(v >> 24));
}

/// Read buffer drained per poll() wakeup; large enough that a batch of
/// tiny frames is dispatched in one read.
constexpr std::size_t kReadChunk = 256u << 10;

}  // namespace

// -- TcpTransport -----------------------------------------------------

TcpTransport::TcpTransport(TcpConfig cfg)
    : cfg_(std::move(cfg)), epoch_(std::chrono::steady_clock::now()) {
  rng_ ^= static_cast<std::uint64_t>(::getpid()) << 17 ^ cfg_.self;

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("tcp: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr = make_addr(cfg_.listen_host, cfg_.listen_port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
      0) {
    close_quietly(listen_fd_);
    throw std::runtime_error("tcp: cannot bind " + cfg_.listen_host + ":" +
                             std::to_string(cfg_.listen_port) + ": " +
                             std::strerror(errno));
  }
  if (::listen(listen_fd_, 64) != 0) {
    close_quietly(listen_fd_);
    throw std::runtime_error("tcp: listen() failed");
  }
  socklen_t alen = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &alen);
  port_ = ntohs(addr.sin_port);
  set_nonblocking(listen_fd_);

  int pipefd[2];
  if (::pipe(pipefd) != 0) {
    close_quietly(listen_fd_);
    throw std::runtime_error("tcp: pipe() failed");
  }
  wake_r_ = pipefd[0];
  wake_w_ = pipefd[1];
  set_nonblocking(wake_r_);
  set_nonblocking(wake_w_);

  for (const auto& [node, hp] : cfg_.peers)
    if (node != cfg_.self) peers_[node].hostport = hp;

  io_ = std::thread([this] { io_loop(); });
}

TcpTransport::~TcpTransport() { shutdown(); }

double TcpTransport::now_ms() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::uint64_t TcpTransport::now_us() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void TcpTransport::shutdown() {
  if (stop_.exchange(true)) {
    if (io_.joinable()) io_.join();
    return;
  }
  // Unblock any sender stuck in backpressure, then stop the loop.
  backpressure_cv_.notify_all();
  if (wake_w_ >= 0) {
    const char b = 1;
    [[maybe_unused]] ssize_t rc = ::write(wake_w_, &b, 1);
  }
  if (io_.joinable()) io_.join();
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [node, p] : peers_) {
    close_quietly(p.fd);
    p.fd = -1;
    // Return undelivered frames so the pool gauge drains to baseline —
    // the ASan leak check (and /peers) can then prove nothing escaped.
    for (auto& f : p.outq) pool_.release(std::move(f));
    p.outq.clear();
    p.out_bytes = 0;
    p.wr_off = 0;
  }
  for (auto& [fd, in] : inbound_) close_quietly(fd);
  inbound_.clear();
  close_quietly(listen_fd_);
  close_quietly(wake_r_);
  close_quietly(wake_w_);
  listen_fd_ = wake_r_ = wake_w_ = -1;
}

void TcpTransport::add_peer(std::uint32_t node, const std::string& hostport) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    peers_[node].hostport = hostport;
  }
  const char b = 1;
  [[maybe_unused]] ssize_t rc = ::write(wake_w_, &b, 1);
}

std::size_t TcpTransport::connected_peers() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::size_t n = 0;
  for (const auto& [node, p] : peers_)
    if (p.fd >= 0 && !p.connecting) ++n;
  return n;
}

std::size_t TcpTransport::queued_bytes() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::size_t n = 0;
  for (const auto& [node, p] : peers_) n += p.out_bytes - p.wr_off;
  return n;
}

bool TcpTransport::peer_dead(std::uint32_t node) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = peers_.find(node);
  return it != peers_.end() && it->second.dead;
}

std::vector<std::uint32_t> TcpTransport::dead_peers() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::uint32_t> out;
  for (const auto& [node, p] : peers_)
    if (p.dead) out.push_back(node);
  return out;
}

std::vector<std::uint32_t> TcpTransport::advisory_dead() const {
  std::lock_guard<std::mutex> lk(mu_);
  return {advisory_dead_.begin(), advisory_dead_.end()};
}

std::vector<TcpTransport::PeerInfo> TcpTransport::peer_info() const {
  std::lock_guard<std::mutex> lk(mu_);
  const double now = now_ms();
  std::vector<PeerInfo> out;
  out.reserve(peers_.size());
  for (const auto& [node, p] : peers_) {
    PeerInfo pi;
    pi.node = node;
    pi.hostport = p.hostport;
    pi.monitor_port = p.monitor_port;
    pi.connected = p.fd >= 0 && !p.connecting;
    pi.connecting = p.connecting;
    pi.suspected = p.suspect_since_ms >= 0;
    pi.dead = p.dead;
    pi.phi = p.detector.started() ? p.detector.phi(now) : 0;
    pi.last_heard_age_ms = p.last_heard_ms >= 0 ? now - p.last_heard_ms : -1;
    pi.queue_bytes = p.out_bytes - p.wr_off;
    pi.queued_frames = p.queued_frames;
    pi.reconnects = p.reconnects;
    pi.backoff_ms = p.backoff_ms;
    pi.last_rtt_us = p.last_rtt_us;
    pi.rtt_us = p.rtt_hist.snapshot();
    out.push_back(std::move(pi));
  }
  return out;
}

void TcpTransport::set_monitor_port(std::uint16_t port) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    cfg_.monitor_port = port;
    // Re-gossip so already-connected peers learn the (possibly late-
    // bound) monitor port without waiting for new address traffic.
    broadcast_peers_locked();
  }
  const char b = 1;
  [[maybe_unused]] ssize_t rc = ::write(wake_w_, &b, 1);
}

void TcpTransport::enable_trace(std::size_t capacity,
                                std::uint64_t sample_every,
                                std::uint64_t sample_seed) {
  std::lock_guard<std::mutex> lk(mu_);
  ring_.enable(capacity, cfg_.self, obs::kTcpSite);
  ring_.set_sampling(sample_every, sample_seed);
}

void TcpTransport::set_trace_record_all(bool on) {
  std::lock_guard<std::mutex> lk(mu_);
  ring_.set_record_all(on);
}

void TcpTransport::send(Packet p, double /*now_us: wall clock rules*/) {
  // Across processes a packet leaves this process's work count once it
  // is handed to a peer (the peer counts it on arrival); a dropped
  // packet is done wherever it was headed.
  const bool leaves = cfg_.multiprocess && p.dst_node != cfg_.self;
  if (!post(std::move(p)) || leaves)
    if (WorkCount* w = work_.load(std::memory_order_acquire)) w->release();
}

void TcpTransport::set_doorbell(std::uint32_t node, Doorbell* bell) {
  std::lock_guard<std::mutex> lk(mu_);
  if (node == cfg_.self) bell_ = bell;
}

std::size_t TcpTransport::attach_work(WorkCount* w) {
  std::lock_guard<std::mutex> lk(mu_);
  work_.store(w, std::memory_order_release);
  // Frames queued for peers already left this process's count (a mesh
  // part is never attached: the mesh counts for its parts).
  return inbox_.size();
}

bool TcpTransport::post(Packet p) {
  if (stop_.load(std::memory_order_relaxed)) return false;
  {
    // Fault injection: a filtered packet vanishes before framing, as if
    // the wire lost it.
    std::lock_guard<std::mutex> lk(mu_);
    if (drop_filter_ && drop_filter_(p)) {
      stats_.frames_filtered.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
  }
  const std::size_t wire = p.bytes.size();
  if (p.dst_node == cfg_.self) {
    // Loopback: a daemon packet addressed to this very node (rare — the
    // node's shared-memory fast path catches most) skips the socket.
    std::lock_guard<std::mutex> lk(mu_);
    packets_out_.fetch_add(1, std::memory_order_relaxed);
    bytes_out_.fetch_add(wire, std::memory_order_relaxed);
    if (ring_.should_record(peek_sampled(p.bytes)))
      ring_.record(obs::EventType::kTcpSend, peek_trace_id(p.bytes),
                   p.dst_node);
    if (slo_hook_) {
      const std::uint64_t tid = peek_trace_id(p.bytes);
      if (tid != 0) slo_hook_(tid, true, obs::trace_now_ns());
    }
    inbox_.push_back(std::move(p));
    if (bell_ != nullptr) bell_->ring();
    return true;
  }
  // Encode straight into a pooled buffer — the steady-state hot path
  // allocates nothing: [len u32][kData u8][src u32][dst u32][packet].
  const std::uint32_t body_len = static_cast<std::uint32_t>(9 + wire);
  BufPtr frame = pool_.acquire(4 + body_len);
  append_u32(*frame, body_len);
  frame->push_back(static_cast<std::uint8_t>(FrameKind::kData));
  append_u32(*frame, p.src_node);
  append_u32(*frame, p.dst_node);
  frame->insert(frame->end(), p.bytes.begin(), p.bytes.end());

  std::unique_lock<std::mutex> lk(mu_);
  Peer& peer = peers_[p.dst_node];  // unknown peers wait for an address
  if (peer.dead) {
    stats_.frames_dropped.fetch_add(1, std::memory_order_relaxed);
    pool_.release(std::move(frame));
    return false;
  }
  if (peer.out_bytes - peer.wr_off > cfg_.max_queue_bytes) {
    stats_.backpressure_waits.fetch_add(1, std::memory_order_relaxed);
    const auto drained = [&] {
      return stop_.load(std::memory_order_relaxed) || peer.dead ||
             peer.out_bytes - peer.wr_off <= cfg_.max_queue_bytes;
    };
    bool ok = true;
    if (cfg_.send_timeout_ms == 0) {
      backpressure_cv_.wait(lk, drained);
    } else {
      ok = backpressure_cv_.wait_for(
          lk, std::chrono::milliseconds(cfg_.send_timeout_ms), drained);
    }
    if (stop_.load(std::memory_order_relaxed)) {
      pool_.release(std::move(frame));
      return false;
    }
    if (!ok) {
      // The queue never drained: drop this frame rather than wedge an
      // executor thread forever on a peer that cannot keep up (or whose
      // address is simply wrong — see connect_deadline_ms).
      stats_.send_timeouts.fetch_add(1, std::memory_order_relaxed);
      stats_.frames_dropped.fetch_add(1, std::memory_order_relaxed);
      pool_.release(std::move(frame));
      return false;
    }
    if (peer.dead) {
      stats_.frames_dropped.fetch_add(1, std::memory_order_relaxed);
      pool_.release(std::move(frame));
      return false;
    }
  }
  if (!peer.ever_connected && peer.demand_since_ms < 0)
    peer.demand_since_ms = now_ms();
  const bool was_empty = peer.outq.empty();
  peer.out_bytes += frame->size();
  peer.outq.push_back(std::move(frame));
  ++peer.queued_frames;
  stats_.send_queue_bytes.observe(
      static_cast<double>(peer.out_bytes - peer.wr_off));
  if (ring_.should_record(peek_sampled(p.bytes)))
    ring_.record(obs::EventType::kTcpSend, peek_trace_id(p.bytes),
                 p.dst_node);
  if (slo_hook_) {
    const std::uint64_t tid = peek_trace_id(p.bytes);
    if (tid != 0) slo_hook_(tid, true, obs::trace_now_ns());
  }
  packets_out_.fetch_add(1, std::memory_order_relaxed);
  bytes_out_.fetch_add(wire, std::memory_order_relaxed);
  stats_.frames_out.fetch_add(1, std::memory_order_relaxed);
  lk.unlock();
  // Wake elision: the I/O loop rebuilds its fd set — arming POLLOUT for
  // every peer with a non-empty queue — under mu_, so appending to an
  // already non-empty queue never needs a poke (either POLLOUT is armed
  // for the in-flight poll(), or the queue was non-empty at the last
  // rebuild and still is). Only the empty→non-empty transition can find
  // the loop parked without POLLOUT; that's the one syscall we pay.
  if (was_empty) {
    const char b = 1;
    [[maybe_unused]] ssize_t rc = ::write(wake_w_, &b, 1);
  }
  return true;
}

bool TcpTransport::recv(std::uint32_t node, Packet& out, double /*now_us*/) {
  std::lock_guard<std::mutex> lk(mu_);
  if (node != cfg_.self || inbox_.empty()) return false;
  out = std::move(inbox_.front());
  inbox_.pop_front();
  if (ring_.should_record(peek_sampled(out.bytes)))
    ring_.record(obs::EventType::kTcpRecv, peek_trace_id(out.bytes),
                 out.src_node);
  if (slo_hook_) {
    const std::uint64_t tid = peek_trace_id(out.bytes);
    if (tid != 0) slo_hook_(tid, false, obs::trace_now_ns());
  }
  return true;
}

std::size_t TcpTransport::in_flight() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::size_t n = inbox_.size();
  for (const auto& [node, p] : peers_) n += p.queued_frames;
  return n;
}

// -- I/O loop ---------------------------------------------------------

void TcpTransport::queue_frame(Peer& p, FrameKind kind,
                               const std::vector<std::uint8_t>& body) {
  BufPtr f = pool_.acquire(4 + 1 + body.size());
  append_u32(*f, static_cast<std::uint32_t>(1 + body.size()));
  f->push_back(static_cast<std::uint8_t>(kind));
  f->insert(f->end(), body.begin(), body.end());
  p.out_bytes += f->size();
  p.outq.push_back(std::move(f));
}

void TcpTransport::start_connect(std::uint32_t node, Peer& p, double now) {
  std::string host;
  std::uint16_t port = 0;
  try {
    std::tie(host, port) = parse_hostport(p.hostport);
  } catch (const std::invalid_argument&) {
    return;  // unusable address; wait for gossip to replace it
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return;
  set_nonblocking(fd);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr;
  try {
    addr = make_addr(host, port);
  } catch (const std::invalid_argument&) {
    close_quietly(fd);
    return;
  }
  const int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  if (rc == 0) {
    p.fd = fd;
    p.connecting = false;
    finish_connect(node, p, now);
  } else if (errno == EINPROGRESS) {
    p.fd = fd;
    p.connecting = true;
  } else {
    close_quietly(fd);
    fail_connect(node, p, now);
  }
}

void TcpTransport::finish_connect(std::uint32_t node, Peer& p, double now) {
  p.connecting = false;
  if (p.ever_connected) {
    stats_.reconnects.fetch_add(1, std::memory_order_relaxed);
    ++p.reconnects;
    // A reconnect is a path anomaly worth keeping: stamp the trace event
    // with a fresh id so a flight recorder can promote exactly it.
    if (ring_.enabled() || peer_event_hook_) {
      const std::uint64_t id = obs::next_trace_id();
      if (ring_.enabled())
        ring_.record(obs::EventType::kTcpReconnect, id, node);
      if (peer_event_hook_) peer_event_hook_(PeerEvent::kReconnect, node, id);
    }
  }
  stats_.connects.fetch_add(1, std::memory_order_relaxed);
  p.ever_connected = true;
  p.demand_since_ms = -1;
  p.backoff_ms = 0;
  p.parser = FrameParser{};
  // Identity first: the hello must precede any queued data so the
  // acceptor can tag the connection (and learn our reach-back address)
  // before payloads arrive. Prepending at the queue head is
  // frame-aligned: wr_off is 0 here (fresh peers start there,
  // fail_connect rewinds).
  Writer hello;
  hello.u8(static_cast<std::uint8_t>(FrameKind::kHello));
  hello.u32(cfg_.self);
  hello.u16(port_);
  hello.u16(cfg_.monitor_port);
  const auto body = hello.take();
  BufPtr frame = pool_.acquire(4 + body.size());
  append_u32(*frame, static_cast<std::uint32_t>(body.size()));
  frame->insert(frame->end(), body.begin(), body.end());
  p.out_bytes += frame->size();
  p.outq.push_front(std::move(frame));
  p.next_hb_ms = now + static_cast<double>(cfg_.heartbeat_ms);
}

void TcpTransport::fail_connect(std::uint32_t node, Peer& p, double now) {
  close_quietly(p.fd);
  p.fd = -1;
  p.connecting = false;
  // Rewind to the start of the partially-written head frame: the broken
  // connection's receiver discarded its partial bytes with the socket,
  // so the next connection must carry the frame whole (after the hello),
  // never the leftover tail.
  p.wr_off = 0;
  // Exponential backoff with up to 50% jitter (xorshift — cheap, seeded
  // per process so restarted fleets spread out).
  p.backoff_ms = p.backoff_ms == 0
                     ? cfg_.backoff_min_ms
                     : std::min(p.backoff_ms * 2, cfg_.backoff_max_ms);
  stats_.reconnect_backoff_ms.observe(static_cast<double>(p.backoff_ms));
  rng_ ^= rng_ << 13;
  rng_ ^= rng_ >> 7;
  rng_ ^= rng_ << 17;
  const std::uint64_t jitter = p.backoff_ms > 1 ? rng_ % (p.backoff_ms / 2 + 1) : 0;
  p.next_connect_ms = now + static_cast<double>(p.backoff_ms + jitter);
  (void)node;
}

void TcpTransport::feed_liveness(std::uint32_t node, double now) {
  auto it = peers_.find(node);
  if (it == peers_.end()) return;
  it->second.detector.heartbeat(now);
  it->second.suspect_since_ms = -1;
  it->second.last_heard_ms = now;
}

void TcpTransport::mark_dead(std::uint32_t node, Peer& p) {
  p.dead = true;
  close_quietly(p.fd);
  p.fd = -1;
  p.connecting = false;
  stats_.frames_dropped.fetch_add(p.queued_frames,
                                  std::memory_order_relaxed);
  p.queued_frames = 0;
  for (auto& f : p.outq) pool_.release(std::move(f));
  p.outq.clear();
  p.out_bytes = 0;
  p.wr_off = 0;
  for (auto it = inbound_.begin(); it != inbound_.end();) {
    if (it->second.node == node) {
      close_quietly(it->first);
      it = inbound_.erase(it);
    } else {
      ++it;
    }
  }
  stats_.peers_dead.fetch_add(1, std::memory_order_relaxed);
  // Our confirmed verdict joins the advisory gossip: the next kPeers
  // broadcast carries it, so survivors that have not yet confirmed can
  // move shard ownership early (they still write off only on their own
  // detector's verdict).
  if (advisory_dead_.insert(node).second) {
    advisory_gen_.fetch_add(1, std::memory_order_release);
    broadcast_peers_locked();
  }
  if (ring_.enabled() || peer_event_hook_) {
    const std::uint64_t id = obs::next_trace_id();
    if (ring_.enabled())
      ring_.record(obs::EventType::kTcpPeerDead, id, node);
    if (peer_event_hook_) peer_event_hook_(PeerEvent::kDead, node, id);
  }
  if (death_frame_) {
    Packet obit;
    obit.src_node = node;
    obit.dst_node = cfg_.self;
    obit.bytes = death_frame_(node);
    inbox_.push_back(std::move(obit));
    if (WorkCount* w = work_.load(std::memory_order_acquire)) w->take();
  }
  // The daemon also folds the advisory set into its shard map.
  if (bell_ != nullptr) bell_->ring();
  backpressure_cv_.notify_all();
}

void TcpTransport::check_liveness(double now) {
  if (!cfg_.detect_failures) return;
  for (auto& [node, p] : peers_) {
    if (p.dead) continue;
    // Phi is blind to a peer that never spoke: a wrong or unreachable
    // address would otherwise queue (and block senders) forever. Demand
    // that never yields a connection — or any inbound traffic — for
    // connect_deadline_ms is a death verdict of its own.
    if (cfg_.connect_deadline_ms > 0 && !p.ever_connected &&
        !p.detector.started() && p.demand_since_ms >= 0 &&
        now - p.demand_since_ms >=
            static_cast<double>(cfg_.connect_deadline_ms)) {
      mark_dead(node, p);
      continue;
    }
    if (!p.detector.started()) continue;
    if (p.detector.phi(now) > cfg_.phi_threshold) {
      if (p.suspect_since_ms < 0) {
        p.suspect_since_ms = now;
        stats_.peers_suspected.fetch_add(1, std::memory_order_relaxed);
      } else if (now - p.suspect_since_ms >=
                 static_cast<double>(cfg_.confirm_ms)) {
        mark_dead(node, p);
      }
    } else {
      p.suspect_since_ms = -1;
    }
  }
}

bool TcpTransport::handle_payload(int fd, std::uint32_t tagged_node,
                                  const std::uint8_t* payload,
                                  std::size_t len, double now) {
  // Frame bodies come off the network and must never be trusted: every
  // Reader access is bounds-checked and throws DecodeError on truncated
  // input. Catch it here — an escaped exception would terminate the I/O
  // thread (and the process) on the first malformed frame from a peer.
  try {
  Reader r(std::span<const std::uint8_t>(payload, len));
  const auto kind = static_cast<FrameKind>(r.u8());
  switch (kind) {
    case FrameKind::kHello: {
      const std::uint32_t node = r.u32();
      const std::uint16_t lport = r.u16();
      // Monitor port is an additive field: old hellos simply end here.
      const std::uint16_t mport = r.remaining() >= 2 ? r.u16() : 0;
      auto in = inbound_.find(fd);
      if (in != inbound_.end()) in->second.node = node;
      Peer& p = peers_[node];
      if (p.dead) {
        // The peer restarted under the same node id: resurrect it (fresh
        // detector, reconnect allowed again).
        p.dead = false;
        p.detector.reset();
        p.suspect_since_ms = -1;
        p.demand_since_ms = -1;
        p.backoff_ms = 0;
        p.next_connect_ms = 0;
      }
      if (p.hostport.empty()) {
        // Learn the reach-back address: the peer's observed IP plus its
        // advertised listen port (the --join bootstrap).
        sockaddr_in addr{};
        socklen_t alen = sizeof addr;
        char ip[INET_ADDRSTRLEN] = "127.0.0.1";
        if (::getpeername(fd, reinterpret_cast<sockaddr*>(&addr), &alen) == 0)
          ::inet_ntop(AF_INET, &addr.sin_addr, ip, sizeof ip);
        p.hostport = std::string(ip) + ":" + std::to_string(lport);
        broadcast_peers_locked();
      }
      if (mport != 0) p.monitor_port = mport;
      feed_liveness(node, now);
      return true;
    }
    case FrameKind::kData: {
      const std::uint32_t src = r.u32();
      const std::uint32_t dst = r.u32();
      Packet p;
      p.src_node = src;
      p.dst_node = dst;
      p.bytes.assign(payload + 9, payload + len);
      stats_.frames_in.fetch_add(1, std::memory_order_relaxed);
      stats_.bytes_in.fetch_add(p.bytes.size(), std::memory_order_relaxed);
      const std::uint32_t liveness_node =
          tagged_node != kUnknownNode ? tagged_node : src;
      feed_liveness(liveness_node, now);
      inbox_.push_back(std::move(p));
      // A frame from another process enters this process's work count;
      // a mesh part's frame still holds its sender's token.
      if (cfg_.multiprocess)
        if (WorkCount* w = work_.load(std::memory_order_acquire)) w->take();
      if (bell_ != nullptr) bell_->ring();
      return true;
    }
    case FrameKind::kHeartbeat: {
      const std::uint32_t node = r.u32();
      r.u64();  // seq rides back in the echo below
      r.u64();
      feed_liveness(node, now);
      // Echo the body back on the same connection as an ACK.
      BufPtr frame = pool_.acquire(4 + len);
      append_u32(*frame, static_cast<std::uint32_t>(len));
      frame->push_back(static_cast<std::uint8_t>(FrameKind::kHeartbeatAck));
      frame->insert(frame->end(), payload + 1, payload + len);
      auto in = inbound_.find(fd);
      if (in != inbound_.end()) {
        if (in->second.node == kUnknownNode) in->second.node = node;
        in->second.outbuf.append(
            reinterpret_cast<const char*>(frame->data()), frame->size());
        pool_.release(std::move(frame));
      } else {
        // Heartbeat arrived on our own outbound connection (the peer
        // echoes through it too); answer there.
        auto pit = peers_.find(node);
        if (pit != peers_.end() && pit->second.fd == fd) {
          pit->second.out_bytes += frame->size();
          pit->second.outq.push_back(std::move(frame));
        } else {
          pool_.release(std::move(frame));
        }
      }
      return true;
    }
    case FrameKind::kHeartbeatAck: {
      r.u32();  // our own node id — the ack echoes our heartbeat body
      r.u64();  // seq
      const std::uint64_t sent_us = r.u64();
      const std::uint64_t rtt = now_us() - sent_us;
      stats_.last_rtt_us.store(rtt, std::memory_order_relaxed);
      stats_.rtt_us.observe(static_cast<double>(rtt));
      stats_.heartbeats_acked.fetch_add(1, std::memory_order_relaxed);
      // The body names us, not the responder: attribute the RTT to
      // whichever peer owns the connection the echo came back on.
      for (auto& [peer_node, p] : peers_) {
        if (p.fd != fd) continue;
        p.last_rtt_us = rtt;
        p.rtt_hist.observe(static_cast<double>(rtt));
        feed_liveness(peer_node, now);
        break;
      }
      return true;
    }
    case FrameKind::kPeers: {
      const std::uint32_t n = r.u32();
      bool changed = false;
      for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint32_t node = r.u32();
        const std::string hp = r.str();
        const std::uint16_t mport = r.remaining() >= 2 ? r.u16() : 0;
        if (node == cfg_.self) continue;
        Peer& p = peers_[node];
        if (p.hostport.empty() && !hp.empty()) {
          p.hostport = hp;
          changed = true;
        }
        if (mport != 0) p.monitor_port = mport;
      }
      // Additive trailing block: advisory deaths. Merge (grow-only; a
      // rumour that we ourselves died is ignored — we are demonstrably
      // here) and re-gossip on change so the set floods the fleet.
      bool deaths_changed = false;
      if (r.remaining() >= 4) {
        const std::uint32_t dead_n = r.u32();
        for (std::uint32_t i = 0; i < dead_n && r.remaining() >= 4; ++i) {
          const std::uint32_t node = r.u32();
          if (node == cfg_.self) continue;
          deaths_changed |= advisory_dead_.insert(node).second;
        }
      }
      if (deaths_changed) {
        advisory_gen_.fetch_add(1, std::memory_order_release);
        broadcast_peers_locked();
        if (bell_ != nullptr) bell_->ring();
      }
      if (tagged_node != kUnknownNode) feed_liveness(tagged_node, now);
      (void)changed;
      return true;
    }
  }
  // Unknown frame kind: tolerate (forward compatibility), drop silently.
  return true;
  } catch (const DecodeError&) {
    stats_.frames_malformed.fetch_add(1, std::memory_order_relaxed);
    return false;  // caller drops the connection, like a framing error
  }
}

std::string TcpTransport::advertised_hostport() const {
  std::string host =
      !cfg_.advertise_host.empty() ? cfg_.advertise_host : cfg_.listen_host;
  // A wildcard bind is not routable from other hosts; without an
  // explicit advertise_host, loopback is the only address we can be
  // sure of. Non-loopback deployments must configure advertise_host.
  if (host.empty() || host == "0.0.0.0" || host == "::" || host == "*")
    host = "127.0.0.1";
  return host + ":" + std::to_string(port_);
}

void TcpTransport::broadcast_peers_locked() {
  // Address gossip: whenever a new address is learned, share the whole
  // table with every known peer so late joiners can reach each other
  // without static configuration.
  Writer w;
  std::uint32_t n = 1;
  for (const auto& [node, p] : peers_)
    if (!p.hostport.empty()) ++n;
  w.u32(n);
  w.u32(cfg_.self);
  w.str(advertised_hostport());
  w.u16(cfg_.monitor_port);
  for (const auto& [node, p] : peers_)
    if (!p.hostport.empty()) {
      w.u32(node);
      w.str(p.hostport);
      w.u16(p.monitor_port);
    }
  // Advisory death gossip rides the same frame as a trailing block (old
  // receivers stop at the entry list and ignore it).
  w.u32(static_cast<std::uint32_t>(advisory_dead_.size()));
  for (std::uint32_t d : advisory_dead_) w.u32(d);
  const auto body = w.take();
  for (auto& [node, p] : peers_)
    if (p.fd >= 0 && !p.connecting && !p.dead)
      queue_frame(p, FrameKind::kPeers, body);
}

void TcpTransport::flush_writes(int fd, std::string& buf) {
  // Inbound connections only (heartbeat ACKs): these sockets are never
  // reconnected, so consuming written bytes immediately is safe here.
  while (!buf.empty()) {
    const ssize_t n = ::write(fd, buf.data(), buf.size());
    if (n > 0) {
      buf.erase(0, static_cast<std::size_t>(n));
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;  // short write: the rest goes out on the next POLLOUT
    } else {
      return;  // hard error: the read side will notice and tear down
    }
  }
}

void TcpTransport::flush_peer_writes(Peer& p) {
  // Coalesced flush: gather up to flush_frames/flush_bytes of whole
  // frames into one writev(). Peer queues survive reconnects, so they
  // stay frame-aligned: bytes are consumed via wr_off and whole frames
  // recycled only once fully written (consume_written). A disconnect
  // mid-batch then rewinds wr_off to 0 (fail_connect) and the next
  // connection retransmits the head frame whole — never a dangling
  // tail after the hello.
  struct iovec iov[kIovMax];
  while (!p.outq.empty()) {
    const std::size_t cnt = gather_frames(
        p.outq, p.wr_off, cfg_.flush_bytes,
        std::max<std::size_t>(1, cfg_.flush_frames), iov, kIovMax);
    const ssize_t n = cnt == 1
                          ? ::write(p.fd, iov[0].iov_base, iov[0].iov_len)
                          : ::writev(p.fd, iov, static_cast<int>(cnt));
    if (n > 0) {
      stats_.writev_calls.fetch_add(1, std::memory_order_relaxed);
      stats_.writev_frames.fetch_add(cnt, std::memory_order_relaxed);
      stats_.flush_frames_per_call.observe(static_cast<double>(cnt));
      const std::size_t before = p.wr_off;
      consume_written(p.outq, p.wr_off, static_cast<std::size_t>(n), pool_);
      p.out_bytes -= before + static_cast<std::size_t>(n) - p.wr_off;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;  // short write: the rest goes out on the next POLLOUT
    } else {
      return;  // hard error: the read side will notice and tear down
    }
  }
}

void TcpTransport::io_loop() {
  // Linux pads timed sleeps (poll included) by the thread's timer slack
  // — 50µs by default, the size of this loop's whole wakeup budget.
  // 1µs slack keeps idle-path latency at the timer's resolution.
  ::prctl(PR_SET_TIMERSLACK, 1000, 0, 0, 0);
  std::vector<pollfd> fds;
  std::vector<std::uint32_t> fd_peer;  // parallel: peer node or kUnknownNode
  BufPtr rdbuf;  // pooled read buffer, held for the loop's lifetime
  while (!stop_.load(std::memory_order_relaxed)) {
    fds.clear();
    fd_peer.clear();
    {
      std::lock_guard<std::mutex> lk(mu_);
      const double now = now_ms();
      fds.push_back({listen_fd_, POLLIN, 0});
      fd_peer.push_back(kUnknownNode);
      fds.push_back({wake_r_, POLLIN, 0});
      fd_peer.push_back(kUnknownNode);
      for (auto& [node, p] : peers_) {
        if (p.dead) continue;
        const bool want =
            !p.outq.empty() || !p.hostport.empty();
        if (p.fd < 0 && want && now >= p.next_connect_ms) {
          start_connect(node, p, now);
        }
        if (p.fd >= 0 && !p.connecting && now >= p.next_hb_ms &&
            cfg_.heartbeat_ms > 0) {
          p.next_hb_ms = now + static_cast<double>(cfg_.heartbeat_ms);
          Writer hb;
          hb.u32(cfg_.self);
          hb.u64(++p.hb_seq);
          hb.u64(now_us());
          queue_frame(p, FrameKind::kHeartbeat, hb.take());
          stats_.heartbeats_sent.fetch_add(1, std::memory_order_relaxed);
        }
        if (p.fd >= 0) {
          short ev = POLLIN;
          if (p.connecting || !p.outq.empty()) ev |= POLLOUT;
          fds.push_back({p.fd, ev, 0});
          fd_peer.push_back(node);
        }
      }
      for (auto& [fd, in] : inbound_) {
        short ev = POLLIN;
        if (!in.outbuf.empty()) ev |= POLLOUT;
        fds.push_back({fd, ev, 0});
        fd_peer.push_back(kUnknownNode);
      }
      check_liveness(now);
    }
    const int timeout_ms =
        cfg_.heartbeat_ms > 0
            ? static_cast<int>(std::min<std::uint64_t>(cfg_.heartbeat_ms, 20))
            : 20;
    if (cfg_.busy_poll_us == 0) {
      ::poll(fds.data(), fds.size(), timeout_ms);
    } else {
      // Opt-in busy-poll: spin on zero-timeout polls (yielding the core
      // between probes so executor threads still run) for up to
      // busy_poll_us before parking in a blocking poll. The fd set is
      // safe to reuse while spinning — any state change that matters
      // either arms an fd already polled or pokes the wake pipe.
      int nready = ::poll(fds.data(), fds.size(), 0);
      if (nready == 0) {
        const auto spin_until =
            std::chrono::steady_clock::now() +
            std::chrono::microseconds(cfg_.busy_poll_us);
        while (nready == 0 && !stop_.load(std::memory_order_relaxed) &&
               std::chrono::steady_clock::now() < spin_until) {
          std::this_thread::yield();
          nready = ::poll(fds.data(), fds.size(), 0);
        }
        if (nready == 0 && !stop_.load(std::memory_order_relaxed))
          ::poll(fds.data(), fds.size(), timeout_ms);
      }
    }
    if (stop_.load(std::memory_order_relaxed)) break;

    std::unique_lock<std::mutex> lk(mu_);
    const double now = now_ms();
    bool drained = false;
    // Read-side batching: drain each ready socket into a pooled
    // contiguous buffer and dispatch every complete frame it holds in
    // one pass (zero copies for frames that don't span reads).
    if (!rdbuf) {
      rdbuf = pool_.acquire(kReadChunk);
      rdbuf->resize(kReadChunk);
    }
    std::uint8_t* const buf = rdbuf->data();
    for (std::size_t i = 0; i < fds.size(); ++i) {
      const pollfd& pf = fds[i];
      if (pf.revents == 0) continue;
      if (pf.fd == wake_r_) {
        ssize_t n;
        char sink[256];
        while ((n = ::read(wake_r_, sink, sizeof sink)) > 0) {
        }
        continue;
      }
      if (pf.fd == listen_fd_) {
        for (;;) {
          const int cfd = ::accept(listen_fd_, nullptr, nullptr);
          if (cfd < 0) break;
          set_nonblocking(cfd);
          const int one = 1;
          ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
          inbound_.emplace(cfd, Inbound{});
          stats_.accepts.fetch_add(1, std::memory_order_relaxed);
        }
        continue;
      }
      const std::uint32_t pnode = fd_peer[i];
      if (pnode != kUnknownNode) {
        // Our outbound connection to `pnode`.
        auto pit = peers_.find(pnode);
        if (pit == peers_.end() || pit->second.fd != pf.fd) continue;
        Peer& p = pit->second;
        if (p.connecting && (pf.revents & (POLLOUT | POLLERR | POLLHUP))) {
          int err = 0;
          socklen_t elen = sizeof err;
          ::getsockopt(pf.fd, SOL_SOCKET, SO_ERROR, &err, &elen);
          if (err != 0) {
            fail_connect(pnode, p, now);
            continue;
          }
          finish_connect(pnode, p, now);
        }
        if (pf.revents & POLLIN) {
          for (;;) {
            const ssize_t n = ::read(pf.fd, buf, kReadChunk);
            if (n > 0) {
              const bool ok = p.parser.feed(
                  buf, static_cast<std::size_t>(n),
                  [&](const std::uint8_t* pl, std::size_t pl_len) {
                    return handle_payload(pf.fd, pnode, pl, pl_len, now);
                  });
              if (!ok) {
                if (p.parser.error())
                  stats_.frames_malformed.fetch_add(
                      1, std::memory_order_relaxed);
                fail_connect(pnode, p, now);
                break;
              }
            } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
              break;
            } else {
              // Peer closed (restart or crash): tear down and let the
              // backoff timer drive reconnection. Queued frames stay.
              fail_connect(pnode, p, now);
              break;
            }
          }
        }
        if (p.fd >= 0 && !p.connecting && (pf.revents & POLLOUT)) {
          const std::size_t before = p.out_bytes - p.wr_off;
          flush_peer_writes(p);
          if (p.out_bytes - p.wr_off < before) {
            drained = true;
            if (p.outq.empty()) p.queued_frames = 0;
          }
        }
        continue;
      }
      // An accepted (inbound) connection.
      auto iit = inbound_.find(pf.fd);
      if (iit == inbound_.end()) continue;
      bool dead_fd = false;
      if (pf.revents & POLLIN) {
        for (;;) {
          const ssize_t n = ::read(pf.fd, buf, kReadChunk);
          if (n > 0) {
            const bool ok = iit->second.parser.feed(
                buf, static_cast<std::size_t>(n),
                [&](const std::uint8_t* pl, std::size_t pl_len) {
                  return handle_payload(pf.fd, iit->second.node, pl, pl_len,
                                        now);
                });
            if (!ok) {
              if (iit->second.parser.error())
                stats_.frames_malformed.fetch_add(1,
                                                  std::memory_order_relaxed);
              dead_fd = true;
              break;
            }
          } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            break;
          } else {
            dead_fd = true;
            break;
          }
        }
      }
      if (!dead_fd && (pf.revents & (POLLERR | POLLHUP))) dead_fd = true;
      if (!dead_fd && (pf.revents & POLLOUT))
        flush_writes(pf.fd, iit->second.outbuf);
      if (dead_fd) {
        close_quietly(pf.fd);
        inbound_.erase(iit);
      }
    }
    // queued_frames stays an estimate between drains (the queue mixes
    // data and control frames): in_flight only needs to reach zero
    // exactly when the queue is empty, which `queued_frames = 0` above
    // guarantees.
    if (drained) backpressure_cv_.notify_all();
  }
  pool_.release(std::move(rdbuf));
  backpressure_cv_.notify_all();
}

// -- TcpMeshTransport -------------------------------------------------

TcpMeshTransport::TcpMeshTransport(std::size_t nodes, TcpConfig base) {
  base.detect_failures = false;  // one process: peers cannot die alone
  for (std::size_t i = 0; i < nodes; ++i) {
    TcpConfig c = base;
    c.self = static_cast<std::uint32_t>(i);
    c.listen_host = "127.0.0.1";
    c.listen_port = 0;
    c.peers.clear();
    c.multiprocess = false;
    parts_.push_back(std::make_unique<TcpTransport>(c));
  }
  for (std::size_t i = 0; i < nodes; ++i)
    for (std::size_t j = 0; j < nodes; ++j)
      if (i != j)
        parts_[i]->add_peer(
            static_cast<std::uint32_t>(j),
            "127.0.0.1:" + std::to_string(parts_[j]->port()));
}

TcpMeshTransport::~TcpMeshTransport() { shutdown(); }

void TcpMeshTransport::shutdown() {
  for (auto& p : parts_) p->shutdown();
}

void TcpMeshTransport::send(Packet p, double /*now_us*/) {
  bytes_.fetch_add(p.bytes.size(), std::memory_order_relaxed);
  packets_.fetch_add(1, std::memory_order_relaxed);
  // Count before the socket write: the packet must be visible to
  // quiescence scans for its entire socket transit. Its work token
  // rides the socket too; a part that drops it hands both back.
  in_flight_.fetch_add(1, std::memory_order_acq_rel);
  if (!parts_.at(p.src_node)->post(std::move(p))) {
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    if (work_ != nullptr) work_->release();
  }
}

void TcpMeshTransport::set_doorbell(std::uint32_t node, Doorbell* bell) {
  parts_.at(node)->set_doorbell(node, bell);
}

std::size_t TcpMeshTransport::attach_work(WorkCount* w) {
  work_ = w;
  return in_flight();
}

bool TcpMeshTransport::recv(std::uint32_t node, Packet& out, double now_us) {
  if (!parts_.at(node)->recv(node, out, now_us)) return false;
  in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  return true;
}

}  // namespace dityco::net
