// tycod — the DiTyCO node daemon as an OS process (paper, section 5:
// "each node runs a daemon, TyCOd, that holds the node's sites and
// exchanges messages with its peers").
//
// One tycod process hosts exactly one node (its sites come from the
// program file's `site name { P }` blocks) and speaks the daemon
// wire format to other tycod processes over TCP (docs/NETWORKING.md).
// By default the name service is one shard on node 0; every other node
// needs --join (or --peer 0=...) to reach it. With --ns-shards N the
// directory is spread over nodes 0..N-1 (docs/NAMESERVICE.md): each
// hosts a slice, each slice is replicated to a follower, and a
// confirmed-dead primary fails over without losing bindings.
//
// Usage:
//   tycod --node 0 --listen 127.0.0.1:7100 a.dtc
//   tycod --node 1 --join 127.0.0.1:7100 b.dtc
//
// Options:
//   --node N             this process's node id (default 0)
//   --listen HOST:PORT   bind address (default 127.0.0.1:0 = ephemeral;
//                        the bound port is printed as
//                        `tycod nodeN listening on HOST:PORT`)
//   --advertise HOST     reach-back host gossiped to peers (required for
//                        routability when binding a wildcard address;
//                        defaults to the listen host, wildcards falling
//                        back to 127.0.0.1)
//   --join HOST:PORT     address of node 0 (shorthand for --peer 0=...)
//   --peer N=HOST:PORT   static peer address (repeatable; others are
//                        learnt from gossip)
//   -e SRC               run SRC instead of a file
//   --typecheck          infer types; check remote signatures
//   --stats              print the metrics registry before exiting
//   --monitor PORT       start TyCOmon (0 = ephemeral)
//   --trace              enable causal event tracing (site, daemon and
//                        socket rings; serve via TyCOmon /trace — each
//                        document carries a wall-clock anchor so
//                        tycotop can stitch a fleet-wide timeline)
//   --trace-sample N     keep 1-in-N trace ids (default 1 = all)
//   --slo                enable the workload SLO plane (request ledger,
//                        per-stage latency histograms, burn-rate state;
//                        served at TyCOmon /slo). Implies --trace and a
//                        flight recorder, so objective-violating trace
//                        ids land in /flight
//   --slo-p99-us N       objective latency threshold in microseconds
//                        (default 5000 = 5ms)
//   --slo-budget F       error budget as a fraction (default 0.001)
//   --slo-windows S,L    short,long burn windows in seconds
//                        (default 30,300)
//   --heartbeat-ms N     heartbeat period (default 100)
//   --flush-bytes N      writev coalescing byte budget (default 256K)
//   --flush-frames N     writev coalescing frame budget (default 64;
//                        1 = one write per frame, coalescing off)
//   --phi T              failure-detector suspicion threshold (default 6)
//   --confirm-ms N       suspicion must persist this long before the
//                        peer is declared dead (default 500)
//   --no-detect          disable the failure detector entirely
//   --idle-exit-ms N     exit after N ms with no inbound work once the
//                        local program is quiescent (default 2000)
//   --serve-ms N         hard cap on total serve time (default 60000)
//   --timeout-ms N       per-run wall-clock cap (default 10000)
//   --ns-shards N        shard the name service N ways by name hash
//                        (default 1 = the whole directory on node 0;
//                        pass the same value to every daemon)
//   --ns-replicas N      followers per shard slice (default 1)
//   --ns-lease-ms N      lease-based client-side lookup caching with
//                        this TTL (default 0 = off); rebinds and
//                        evictions push kNsInvalidate to lease holders
//   --gc-resend-ms N     periodic cumulative-REL retransmission
//   --audit-ms N         continuous self-audit: every N ms of idle time
//                        run the GC credit audit (fleet-wide when
//                        --monitor is on), print a line whenever the
//                        verdict flips, and — with --gc-resend-ms —
//                        retransmit cumulative RELs so a dropped REL
//                        heals during the idle window too
//   --drop-rel N         fault injection: silently drop the first N
//                        outbound REL frames (exercises the audit
//                        plane and the resend path; tests/CI only)
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "compiler/parser.hpp"
#include "core/network.hpp"
#include "core/wire.hpp"

namespace {

int usage() {
  std::cerr <<
      "usage: tycod [options] program.dtc\n"
      "       tycod [options] -e 'site a { ... }'\n"
      "options: --node N  --listen HOST:PORT  --advertise HOST\n"
      "         --join HOST:PORT\n"
      "         --peer N=HOST:PORT (repeatable)  --typecheck  --stats\n"
      "         --monitor PORT  --trace  --trace-sample N\n"
      "         --slo  --slo-p99-us N  --slo-budget F  --slo-windows S,L\n"
      "         --heartbeat-ms N  --phi T  --confirm-ms N\n"
      "         --flush-bytes N  --flush-frames N\n"
      "         --no-detect  --idle-exit-ms N  --serve-ms N\n"
      "         --ns-shards N  --ns-replicas N  --ns-lease-ms N\n"
      "         --timeout-ms N  --gc-resend-ms N  --audit-ms N\n"
      "         --drop-rel N\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using Clock = std::chrono::steady_clock;
  std::string source, path;
  dityco::core::Network::Config cfg;
  cfg.mode = dityco::core::Network::Mode::kThreaded;
  cfg.transport = dityco::core::Network::TransportKind::kTcp;
  cfg.tcp.multiprocess = true;
  bool stats = false;
  bool monitor = false;
  bool trace = false;
  bool slo = false;
  dityco::obs::SloPlane::Config slo_cfg;
  long trace_sample = 1;
  int monitor_port = 0;
  long idle_exit_ms = 2000;
  long serve_ms = 60'000;
  long audit_ms = 0;
  long drop_rel = 0;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "-e" && i + 1 < argc) {
      source = argv[++i];
    } else if (arg == "--node" && i + 1 < argc) {
      cfg.tcp.self = static_cast<std::uint32_t>(std::atoi(argv[++i]));
    } else if (arg == "--listen" && i + 1 < argc) {
      const auto [host, port] = dityco::net::parse_hostport(argv[++i]);
      cfg.tcp.listen_host = host;
      cfg.tcp.listen_port = port;
    } else if (arg == "--advertise" && i + 1 < argc) {
      cfg.tcp.advertise_host = argv[++i];
    } else if (arg == "--join" && i + 1 < argc) {
      cfg.tcp.peers[0] = argv[++i];
    } else if (arg == "--peer" && i + 1 < argc) {
      const std::string spec = argv[++i];
      const auto eq = spec.find('=');
      if (eq == std::string::npos) return usage();
      cfg.tcp.peers[static_cast<std::uint32_t>(
          std::atoi(spec.substr(0, eq).c_str()))] = spec.substr(eq + 1);
    } else if (arg == "--typecheck") {
      cfg.typecheck = true;
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--monitor" && i + 1 < argc) {
      monitor = true;
      monitor_port = std::atoi(argv[++i]);
    } else if (arg == "--trace") {
      trace = true;
    } else if (arg == "--trace-sample" && i + 1 < argc) {
      trace = true;
      trace_sample = std::atol(argv[++i]);
    } else if (arg == "--slo") {
      slo = true;
    } else if (arg == "--slo-p99-us" && i + 1 < argc) {
      slo = true;
      slo_cfg.objective.threshold_ns =
          static_cast<std::uint64_t>(std::atof(argv[++i]) * 1000.0);
    } else if (arg == "--slo-budget" && i + 1 < argc) {
      slo = true;
      slo_cfg.objective.budget = std::atof(argv[++i]);
    } else if (arg == "--slo-windows" && i + 1 < argc) {
      slo = true;
      const std::string spec = argv[++i];
      const auto comma = spec.find(',');
      if (comma == std::string::npos) return usage();
      slo_cfg.objective.short_window_s = static_cast<std::uint32_t>(
          std::atol(spec.substr(0, comma).c_str()));
      slo_cfg.objective.long_window_s = static_cast<std::uint32_t>(
          std::atol(spec.substr(comma + 1).c_str()));
    } else if (arg == "--heartbeat-ms" && i + 1 < argc) {
      cfg.tcp.heartbeat_ms = std::atol(argv[++i]);
    } else if (arg == "--flush-bytes" && i + 1 < argc) {
      cfg.tcp.flush_bytes = static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (arg == "--flush-frames" && i + 1 < argc) {
      cfg.tcp.flush_frames = static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (arg == "--phi" && i + 1 < argc) {
      cfg.tcp.phi_threshold = std::atof(argv[++i]);
    } else if (arg == "--confirm-ms" && i + 1 < argc) {
      cfg.tcp.confirm_ms = std::atol(argv[++i]);
    } else if (arg == "--no-detect") {
      cfg.tcp.detect_failures = false;
    } else if (arg == "--idle-exit-ms" && i + 1 < argc) {
      idle_exit_ms = std::atol(argv[++i]);
    } else if (arg == "--serve-ms" && i + 1 < argc) {
      serve_ms = std::atol(argv[++i]);
    } else if (arg == "--timeout-ms" && i + 1 < argc) {
      cfg.timeout_ms = static_cast<std::uint64_t>(std::atol(argv[++i]));
    } else if (arg == "--ns-shards" && i + 1 < argc) {
      cfg.ns_shards = static_cast<std::uint32_t>(std::atol(argv[++i]));
    } else if (arg == "--ns-replicas" && i + 1 < argc) {
      cfg.ns_replicas = static_cast<std::uint32_t>(std::atol(argv[++i]));
    } else if (arg == "--ns-lease-ms" && i + 1 < argc) {
      cfg.ns_lease_ms = static_cast<std::uint64_t>(std::atol(argv[++i]));
    } else if (arg == "--gc-resend-ms" && i + 1 < argc) {
      cfg.gc_resend_ms = static_cast<std::uint64_t>(std::atol(argv[++i]));
    } else if (arg == "--audit-ms" && i + 1 < argc) {
      audit_ms = std::atol(argv[++i]);
    } else if (arg == "--drop-rel" && i + 1 < argc) {
      drop_rel = std::atol(argv[++i]);
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      path = arg;
    }
  }
  if (source.empty() && path.empty()) return usage();
  if (source.empty()) {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "tycod: cannot open " << path << "\n";
      return 1;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    source = ss.str();
  }

  try {
    auto programs = dityco::comp::parse_network(source);
    dityco::core::Network net(cfg);
    net.add_node();
    for (const auto& [site, prog] : programs) {
      net.add_site(0, site);
      net.submit(site, prog);
    }
    // Before the monitor and the transport bind: the rings must exist
    // when the first traced packet crosses the socket.
    if (trace)
      net.enable_tracing(1 << 14,
                         static_cast<std::uint64_t>(
                             trace_sample < 1 ? 1 : trace_sample));
    if (slo) {
      // Flight first so violating trace ids have somewhere to land
      // (/flight shows the offending timeline); then the plane itself,
      // which also implies tracing when --trace was not given.
      net.enable_flight();
      net.enable_slo(slo_cfg);
    }
    if (monitor) {
      const std::uint16_t mp = net.start_monitor(
          static_cast<std::uint16_t>(monitor_port));
      if (mp == 0) {
        std::cerr << "tycod: cannot start TyCOmon on port " << monitor_port
                  << "\n";
        return 1;
      }
      std::cout << "tycomon listening on http://127.0.0.1:" << mp
                << std::endl;
    }
    // Bind now (transport() is lazy) and advertise the port: scripts
    // parse this line to wire up --join/--peer for later processes.
    dityco::net::TcpTransport* tcp = net.tcp_transport();
    std::cout << "tycod node" << cfg.tcp.self << " listening on "
              << cfg.tcp.listen_host << ":" << tcp->port() << std::endl;
    if (drop_rel > 0) {
      // Fault injection: eat the first N outbound RELs before framing,
      // as if the wire lost them. The audit plane must flag the owner's
      // imbalance and the cumulative-REL resend must heal it.
      auto left = std::make_shared<std::atomic<long>>(drop_rel);
      tcp->set_drop_filter([left](const dityco::net::Packet& p) {
        if (p.hdr.type != dityco::net::MsgType::kRelease) return false;
        return left->fetch_sub(1, std::memory_order_relaxed) > 0;
      });
      std::cout << "tycod node" << cfg.tcp.self << " dropping first "
                << drop_rel << " REL frame(s)" << std::endl;
    }

    // Serve loop: drive the local program to quiescence, then stay up —
    // peers keep sending lookups, FETCHes and RELs — until the node has
    // been idle for idle_exit_ms (or the serve budget runs out).
    const auto hard_deadline = Clock::now() +
                               std::chrono::milliseconds(serve_ms);
    dityco::core::Network::Result res;
    std::uint64_t total_instructions = 0;
    // Continuous self-audit (--audit-ms): ticks only on the quiescence
    // path below — while a run is live the executor owns the sites and
    // /gc serves published snapshots instead. Healing runs on its own
    // timer (gc_resend_ms, mirroring the executor's in-run resend), so
    // an observed anomaly is counted strictly before it is repaired.
    auto next_audit = Clock::now() + std::chrono::milliseconds(audit_ms);
    auto next_heal = Clock::now() +
                     std::chrono::milliseconds(
                         static_cast<long>(cfg.gc_resend_ms));
    bool last_balanced = true;
    std::uint64_t audit_rounds = 0;
    for (;;) {
      res = net.run();
      total_instructions += res.instructions;
      if (res.budget_exhausted) break;
      const auto idle_deadline = Clock::now() +
                                 std::chrono::milliseconds(idle_exit_ms);
      bool more = false;
      while (Clock::now() < idle_deadline && Clock::now() < hard_deadline) {
        if (net.transport().in_flight() > 0) {
          more = true;
          break;
        }
        if (audit_ms > 0 && Clock::now() >= next_audit) {
          next_audit = Clock::now() + std::chrono::milliseconds(audit_ms);
          const auto rep = net.self_audit(/*include_fleet=*/true);
          ++audit_rounds;
          if (rep.balanced != last_balanced) {
            std::cout << "-- audit: "
                      << (rep.balanced ? "balanced" : "IMBALANCED")
                      << " entries=" << rep.entries
                      << " offenders=" << rep.offenders.size()
                      << " lag=" << rep.lag
                      << (rep.verifiable ? "" : " (unverifiable)")
                      << std::endl;
            last_balanced = rep.balanced;
          }
        }
        if (cfg.gc_resend_ms > 0 && Clock::now() >= next_heal) {
          // Between runs the executor's resend timer is not ticking;
          // the idle window retransmits cumulative RELs here instead.
          next_heal = Clock::now() +
                      std::chrono::milliseconds(
                          static_cast<long>(cfg.gc_resend_ms));
          net.heal_releases();
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      if (!more || Clock::now() >= hard_deadline) break;
    }

    // Final GC epoch. Cross-process convergence needs the peers' RELs,
    // which arrive on their own schedule: retry while export tables
    // still hold entries and the serve budget allows.
    auto gc = net.collect_garbage();
    for (int retry = 0; retry < 20 && gc.exports_live > 0 &&
                        Clock::now() < hard_deadline;
         ++retry) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      gc = net.collect_garbage();
    }

    for (const auto& [site, _] : programs)
      for (const auto& line : net.output(site))
        std::cout << "[" << site << "] " << line << "\n";
    for (const auto& err : net.all_errors())
      std::cerr << "error: " << err << "\n";

    std::uint64_t written_off = 0;
    std::size_t peers_down = 0;
    for (const auto& n : net.nodes())
      for (const auto& s : n->sites()) {
        written_off += s->machine().gc_stats().credit_written_off.value();
        peers_down = std::max(peers_down, s->dead_peers().size());
      }
    std::cout << "-- " << (res.quiescent ? "quiescent" : res.stalled
                               ? "STALLED (import waiting on a missing export)"
                               : "BUDGET EXHAUSTED")
              << ", " << total_instructions << " instructions\n";
    std::cout << "-- gc: rounds=" << gc.rounds
              << " exports_live=" << gc.exports_live
              << " netrefs_live=" << gc.netrefs_live
              << " credit_written_off=" << written_off
              << " peers_down=" << peers_down << "\n";
    if (audit_ms > 0) {
      // Exit-time verdict over the local tables only: the peers may
      // already be gone, so a fleet scrape here would just time out.
      const auto rep = net.self_audit(/*include_fleet=*/false);
      std::cout << "-- audit: rounds=" << (audit_rounds + 1) << " final="
                << (rep.balanced ? "balanced" : "IMBALANCED")
                << " entries=" << rep.entries << " outstanding="
                << rep.outstanding << "\n";
    }
    if (stats) std::cout << net.metrics().expose_text();
    std::cout.flush();
    return net.all_errors().empty() && gc.exports_live == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "tycod: " << e.what() << "\n";
    return 1;
  }
}
