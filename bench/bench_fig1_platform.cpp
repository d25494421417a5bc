// E1 (Figure 1): the hardware platform — a 4-node dual-processor PC
// cluster with a 1 Gb/s Myrinet switch and a 100 Mb/s Fast Ethernet
// uplink. This harness characterises our simulated substitute: per-link
// one-way cost across packet sizes for both models, and a 4-node
// all-pairs exchange (the switch's point-to-point concurrency: packets
// do not hop through intermediate nodes, so all-pairs time ~ one pair).
#include "bench_util.hpp"

using namespace dityco;
using namespace dityco::benchutil;

namespace {

/// A SHIPM frame of `size` bytes: the 5-byte header, then padding.
net::Packet mk(std::uint32_t src, std::uint32_t dst, std::size_t size) {
  Writer w;
  net::write_header(w, net::MsgType::kShipMsg, 0);
  auto bytes = w.take();
  bytes.resize(size);
  return net::Packet::parse(src, dst, std::move(bytes));
}

double all_pairs_makespan(const net::LinkModel& link, int nodes,
                          std::size_t size) {
  net::SimTransport t(static_cast<std::size_t>(nodes), link);
  for (int a = 0; a < nodes; ++a)
    for (int b = 0; b < nodes; ++b)
      if (a != b)
        t.send(mk(static_cast<std::uint32_t>(a),
                  static_cast<std::uint32_t>(b), size),
               0.0);
  double makespan = 0;
  for (int b = 0; b < nodes; ++b) {
    net::Packet p;
    double last = 0;
    while (auto arr = t.next_arrival(static_cast<std::uint32_t>(b))) {
      last = *arr;
      t.recv(static_cast<std::uint32_t>(b), p, *arr);
    }
    makespan = std::max(makespan, last);
  }
  return makespan;
}

}  // namespace

int main() {
  const struct {
    const char* name;
    net::LinkModel m;
  } links[] = {{"Myrinet (1 Gb/s switch)", net::myrinet()},
               {"FastEthernet (100 Mb/s)", net::fast_ethernet()}};

  header("E1a: link model calibration (one-way packet cost)",
         {"link", "latency us", "bandwidth Mb/s", "64 B", "1.5 KB",
          "64 KB"});
  for (const auto& l : links) {
    row({l.name, fmt(l.m.latency_us), fmt(l.m.bandwidth_mbps),
         fmt(l.m.cost_us(64)) + " us", fmt(l.m.cost_us(1500)) + " us",
         fmt(l.m.cost_us(65536)) + " us"});
  }

  header("E1b: 4-node all-pairs exchange makespan (switch concurrency)",
         {"link", "payload", "one pair us", "all pairs us",
          "slowdown"});
  for (const auto& l : links) {
    for (std::size_t size : {64u, 4096u}) {
      const double one = l.m.cost_us(size);
      const double all = all_pairs_makespan(l.m, 4, size);
      row({l.name, fmt_int(size) + " B", fmt(one), fmt(all),
           fmt(all / one)});
    }
  }
  std::printf(
      "\nshape check: the switch serves disjoint pairs concurrently, so\n"
      "the all-pairs makespan equals a single pair's cost (slowdown 1.0)\n"
      "— the property the paper's fig. 1 platform relies on.\n");
  return 0;
}
