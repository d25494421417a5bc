#include "net/transport.hpp"

#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <climits>

namespace dityco::net {

namespace {
static_assert(sizeof(std::atomic<std::uint32_t>) == sizeof(std::uint32_t) &&
                  std::atomic<std::uint32_t>::is_always_lock_free,
              "the futex word must be a plain 32-bit integer");

long futex(std::atomic<std::uint32_t>& word, int op, std::uint32_t val,
           const std::timespec* timeout) {
  return ::syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&word), op,
                   val, timeout, nullptr, 0);
}
}  // namespace

void Doorbell::ring() {
  if (word_.fetch_add(2, std::memory_order_release) & 1u)
    futex(word_, FUTEX_WAKE_PRIVATE, INT_MAX, nullptr);
}

void Doorbell::park(std::uint32_t ticket, const std::timespec* timeout) {
  // Announce the sleeper only if nothing rang since the ticket; a ring
  // between this and the futex call changes the word, so the kernel's
  // compare fails and the wait returns at once.
  std::uint32_t expect = ticket;
  if (!word_.compare_exchange_strong(expect, ticket | 1u,
                                     std::memory_order_acq_rel))
    return;
  futex(word_, FUTEX_WAIT_PRIVATE, ticket | 1u, timeout);
  word_.fetch_and(~1u, std::memory_order_acq_rel);
}

void Doorbell::wait(std::uint32_t ticket) { park(ticket, nullptr); }

void Doorbell::wait_for(std::uint32_t ticket,
                        std::chrono::nanoseconds timeout) {
  const std::int64_t ns = timeout.count();
  if (ns <= 0) return;
  const std::timespec ts{static_cast<std::time_t>(ns / 1'000'000'000),
                         static_cast<long>(ns % 1'000'000'000)};
  park(ticket, &ts);
}

void InProcTransport::send(Packet p, double /*now_us*/) {
  Receiver* r = nullptr;
  {
    std::lock_guard<std::mutex> lk(mu_);
    // A node outside the fleet (a forged NetRef) is dropped like a lossy
    // link's packet, never indexed.
    if (p.dst_node >= inboxes_.size() || (drop_ && drop_(p))) {
      ++dropped_;
      if (work_ != nullptr) work_->release();
      return;
    }
    bytes_ += p.bytes.size();
    ++packets_;
    r = receivers_[p.dst_node];
  }
  // The sender's thread delivers: a site packet (its work token with
  // it) lands in the destination inbox before send returns.
  if (r != nullptr && r->deliver(p, /*fresh=*/false, nullptr)) return;
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++in_flight_;
    inboxes_[p.dst_node].push_back(std::move(p));
  }
  if (r != nullptr) r->daemon_bell().ring();
}

void InProcTransport::set_receiver(std::uint32_t node, Receiver* r) {
  std::lock_guard<std::mutex> lk(mu_);
  receivers_.at(node) = r;
}

std::size_t InProcTransport::attach_work(WorkCount* w) {
  std::lock_guard<std::mutex> lk(mu_);
  work_ = w;
  return in_flight_.load(std::memory_order_relaxed);
}

void InProcTransport::set_drop_filter(std::function<bool(const Packet&)> f) {
  std::lock_guard<std::mutex> lk(mu_);
  drop_ = std::move(f);
}

std::uint64_t InProcTransport::dropped() const {
  std::lock_guard<std::mutex> lk(mu_);
  return dropped_;
}

bool InProcTransport::recv(std::uint32_t node, Packet& out,
                           double /*now_us*/) {
  if (in_flight_.load(std::memory_order_acquire) == 0) return false;
  std::lock_guard<std::mutex> lk(mu_);
  auto& q = inboxes_.at(node);
  if (q.empty()) return false;
  out = std::move(q.front());
  q.pop_front();
  --in_flight_;
  return true;
}

std::size_t InProcTransport::in_flight() const {
  return in_flight_.load(std::memory_order_acquire);
}

LinkModel myrinet() { return LinkModel{10.0, 1000.0, 1.0}; }

LinkModel fast_ethernet() { return LinkModel{100.0, 100.0, 1.0}; }

void SimTransport::send(Packet p, double now_us) {
  if (p.dst_node >= inboxes_.size()) {  // a forged NetRef: no such node
    ++dropped_;
    return;
  }
  double arrival = now_us + model_.cost_us(p.bytes.size());
  if (extra_cost_) arrival += extra_cost_(p);
  bytes_ += p.bytes.size();
  ++packets_;
  ++in_flight_;
  auto& q = inboxes_.at(p.dst_node);
  Timed t{arrival, std::move(p)};
  // Insert keeping arrival order (FIFO per link is preserved because
  // cost is monotone in send time for a fixed pair, but packets from
  // different senders interleave by arrival).
  auto it = std::upper_bound(
      q.begin(), q.end(), t,
      [](const Timed& a, const Timed& b) { return a.arrival_us < b.arrival_us; });
  q.insert(it, std::move(t));
}

bool SimTransport::recv(std::uint32_t node, Packet& out, double now_us) {
  auto& q = inboxes_.at(node);
  if (q.empty() || q.front().arrival_us > now_us) return false;
  out = std::move(q.front().packet);
  q.pop_front();
  --in_flight_;
  return true;
}

const Packet* SimTransport::peek(std::uint32_t node,
                                 double& arrival_us) const {
  const auto& q = inboxes_.at(node);
  if (q.empty()) return nullptr;
  arrival_us = q.front().arrival_us;
  return &q.front().packet;
}

std::optional<double> SimTransport::next_arrival(std::uint32_t node) const {
  const auto& q = inboxes_.at(node);
  if (q.empty()) return std::nullopt;
  return q.front().arrival_us;
}

}  // namespace dityco::net
