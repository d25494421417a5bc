// E2 (Figure 2): the DiTyCO architecture — a static IP topology of
// nodes, each holding a dynamic pool of sites; message passing and code
// mobility happen at the *site* level and the site-to-site communication
// topology changes dynamically.
//
// Harness: fixed total site count (8), laid out as 1x8, 2x4, 4x2 and 8x1
// (nodes x sites/node). Every site runs an echo server and pings every
// other site. The same site-level traffic maps to very different
// node-level traffic: packets crossing nodes pay the link, packets
// within a node are handed from the sending site straight to the
// receiving site's inbox (shared memory, no daemon hop).
#include "bench_util.hpp"

using namespace dityco;
using namespace dityco::benchutil;

namespace {

struct Outcome {
  double vtime_us = 0;
  std::uint64_t transport_packets = 0;
  std::uint64_t local_deliveries = 0;
  bool ok = false;
};

Outcome run_topology(int nodes, int sites_per_node, int pings) {
  auto net = make_cluster(nodes, sites_per_node, sim_config(net::myrinet()));
  std::vector<std::string> names;
  for (int n = 0; n < nodes; ++n)
    for (int s = 0; s < sites_per_node; ++s)
      names.push_back("s" + std::to_string(n) + "_" + std::to_string(s));

  for (const auto& me : names) {
    std::string prog = echo_server_src() + " | 0";
    net.submit_source(me, prog);
    // One client loop per peer, all concurrent.
    for (const auto& peer : names) {
      if (peer == me) continue;
      net.submit_source(me, chained_rpc_client_src(peer, pings));
    }
  }
  auto res = net.run();
  Outcome o;
  o.ok = res.quiescent;
  o.vtime_us = res.virtual_time_us;
  o.transport_packets = res.packets;
  for (const auto& n : net.nodes()) o.local_deliveries += n->local_deliveries();
  return o;
}

}  // namespace

int main() {
  const int total_sites = 8;
  const int pings = 8;

  header("E2: 8 sites, all-pairs RPC, by node layout (Myrinet)",
         {"nodes x sites", "virtual us", "transport packets",
          "shared-memory deliveries", "quiescent"});
  for (int nodes : {1, 2, 4, 8}) {
    const int spn = total_sites / nodes;
    const Outcome o = run_topology(nodes, spn, pings);
    row({fmt_int(nodes) + " x " + fmt_int(spn), fmt(o.vtime_us),
         fmt_int(o.transport_packets), fmt_int(o.local_deliveries),
         o.ok ? "yes" : "NO"});
  }
  std::printf(
      "\nshape check: as sites concentrate onto fewer nodes, transport\n"
      "packets shift to shared-memory deliveries and the virtual time\n"
      "drops — fig. 2's two-level architecture is what makes the\n"
      "same-node optimisation possible.\n");
  return 0;
}
