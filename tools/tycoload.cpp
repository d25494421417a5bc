// tycoload -- open-loop fleet load generator for a tycod fleet.
//
// Drives a running fleet over the real wire protocol (no embedded VM):
// it imports exported names through the name service, then sustains a
// target request rate against them with one of three scenarios:
//
//   rpc     SHIPM request/reply against imported channels (the C6
//           import-storm shape: every request is a remote method
//           invocation that ships a reply channel along).
//   pubsub  SHIPM fan-in against room channels (one exported object
//           per room; the room object fans out server-side, and acks
//           the publisher on the shipped reply channel).
//   fetch   FETCH against imported classes (the C5 applet-marketplace
//           shape: every request pulls a code closure).
//   fetch-churn  name-service churn: every request registers a
//           short-lived name, measures the lookup that resolves it,
//           and unregisters it on completion — the directory
//           mutation-heavy shape the sharded NS is built for. Needs
//           no --import.
//
// The generator routes every name-service frame to the owning shard
// primary (the same rendezvous map as the daemons, docs/NAMESERVICE.md;
// with the default single shard, node 0); confirmed peer deaths
// advance the local shard map exactly like a daemon's.
//
// The generator is open-loop and coordinated-omission safe: requests
// fire on an intended-start schedule derived from --rate alone, and
// every latency is measured from the *intended* start, not the actual
// send, so a stalled fleet cannot pause the clock and flatter its own
// percentiles. Requests that cannot be sent (outstanding cap reached,
// no live target) or that time out are recorded at the timeout bound,
// so they count against the SLO instead of vanishing.
//
// --kill-node K --kill-pid P --at MS  SIGKILLs a daemon mid-run and
// keeps the load running, reporting latency through the failover
// window separately (completions whose intended start is at or after
// the kill instant).
//
// Shutdown is GC-clean: credit received with name-service imports is
// released back to the owning nodes (cumulative REL), so surviving
// daemons can exit with exports_live == 0.
#include <signal.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/nameservice.hpp"
#include "core/wire.hpp"
#include "net/tcp.hpp"
#include "ns/shard.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"

namespace {

using dityco::Reader;
using dityco::Writer;
using dityco::core::MsgType;
using dityco::core::NameService;
using dityco::net::Packet;
using dityco::net::TcpConfig;
using dityco::net::TcpTransport;
using dityco::obs::SloHistogram;
using dityco::obs::SloPlane;

// Wire value tags (core/wire.cpp marshal_value); tycoload builds SHIPM
// payloads by hand because it has no VM to marshal from.
constexpr std::uint8_t kTagInt = 1;
constexpr std::uint8_t kTagNetRef = 5;

void usage() {
  std::fprintf(
      stderr,
      "usage: tycoload --join HOST:PORT --import SITE:NAME [options]\n"
      "  --join HOST:PORT     node 0 of the fleet (name-service home)\n"
      "  --import SITE:NAME   imported target (repeatable; round-robin)\n"
      "  --scenario S         rpc | pubsub | fetch | fetch-churn\n"
      "                       (default rpc; fetch-churn needs no --import)\n"
      "  --ns-shards N        route NS frames by the N-way shard map\n"
      "                       (default 1 = everything to node 0)\n"
      "  --ns-replicas N      followers per shard (map geometry; default 1)\n"
      "  --rate R             intended requests/second  (default 1000)\n"
      "  --duration-ms D      load duration             (default 5000)\n"
      "  --clients N          outstanding-request cap   (default 256)\n"
      "  --timeout-ms T       per-request timeout       (default 2000)\n"
      "  --label L            SHIPM method label        (default val)\n"
      "  --self N             our node id               (default 900)\n"
      "  --kill-node K        node id reported for the mid-run kill\n"
      "  --kill-pid P         SIGKILL this pid at --at\n"
      "  --at MS              kill instant, ms after load start\n"
      "  --slo-p99-us N       SLO latency threshold     (default 5000)\n"
      "  --slo-budget F       SLO error budget          (default 0.001)\n"
      "  --slo-windows S,L    burn windows, seconds     (default 30,300)\n"
      "  --bench-json PATH    write a dityco-bench-v2 document\n"
      "  --json               print the report as JSON on stdout\n");
}

struct Options {
  std::string join;
  std::vector<std::string> imports;  // SITE:NAME
  std::string scenario = "rpc";
  std::string label = "val";
  double rate = 1000.0;
  std::uint64_t duration_ms = 5000;
  std::uint64_t clients = 256;
  std::uint64_t timeout_ms = 2000;
  std::uint32_t self = 900;
  std::uint32_t ns_shards = 1;
  std::uint32_t ns_replicas = 1;
  std::uint32_t kill_node = 0;
  long kill_pid = 0;
  std::uint64_t kill_at_ms = 0;
  bool have_kill = false;
  std::string bench_json;
  bool json = false;
  SloPlane::Config slo;
};

bool parse_args(int argc, char** argv, Options& o) {
  const auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc) return nullptr;
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = nullptr;
    if (a == "--join" && (v = need(i))) {
      o.join = v;
    } else if (a == "--import" && (v = need(i))) {
      o.imports.emplace_back(v);
    } else if (a == "--scenario" && (v = need(i))) {
      o.scenario = v;
    } else if (a == "--label" && (v = need(i))) {
      o.label = v;
    } else if (a == "--rate" && (v = need(i))) {
      o.rate = std::atof(v);
    } else if (a == "--duration-ms" && (v = need(i))) {
      o.duration_ms = std::strtoull(v, nullptr, 10);
    } else if (a == "--clients" && (v = need(i))) {
      o.clients = std::strtoull(v, nullptr, 10);
    } else if (a == "--timeout-ms" && (v = need(i))) {
      o.timeout_ms = std::strtoull(v, nullptr, 10);
    } else if (a == "--self" && (v = need(i))) {
      o.self = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (a == "--ns-shards" && (v = need(i))) {
      o.ns_shards = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (a == "--ns-replicas" && (v = need(i))) {
      o.ns_replicas = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (a == "--kill-node" && (v = need(i))) {
      o.kill_node = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
      o.have_kill = true;
    } else if (a == "--kill-pid" && (v = need(i))) {
      o.kill_pid = std::strtol(v, nullptr, 10);
    } else if (a == "--at" && (v = need(i))) {
      o.kill_at_ms = std::strtoull(v, nullptr, 10);
    } else if (a == "--slo-p99-us" && (v = need(i))) {
      o.slo.objective.threshold_ns = std::strtoull(v, nullptr, 10) * 1000ull;
    } else if (a == "--slo-budget" && (v = need(i))) {
      o.slo.objective.budget = std::atof(v);
    } else if (a == "--slo-windows" && (v = need(i))) {
      unsigned s = 0, l = 0;
      if (std::sscanf(v, "%u,%u", &s, &l) == 2 && s > 0 && l > 0) {
        o.slo.objective.short_window_s = s;
        o.slo.objective.long_window_s = l;
      }
    } else if (a == "--bench-json" && (v = need(i))) {
      o.bench_json = v;
    } else if (a == "--json") {
      o.json = true;
    } else if (a == "--help" || a == "-h") {
      usage();
      std::exit(0);
    } else {
      std::fprintf(stderr, "tycoload: bad argument '%s'\n", a.c_str());
      usage();
      return false;
    }
  }
  if (o.join.empty() || o.rate <= 0 ||
      (o.imports.empty() && o.scenario != "fetch-churn")) {
    usage();
    return false;
  }
  if (o.scenario != "rpc" && o.scenario != "pubsub" && o.scenario != "fetch" &&
      o.scenario != "fetch-churn") {
    std::fprintf(stderr, "tycoload: unknown scenario '%s'\n",
                 o.scenario.c_str());
    return false;
  }
  return true;
}

struct Import {
  std::string site;
  std::string name;
  dityco::vm::NetRef ref;
  std::uint64_t credit = 0;  // GC credit the NS reply handed us
  bool resolved = false;
  bool ok = false;
};

struct Pending {
  std::uint64_t intended_ns = 0;
  std::uint64_t tid = 0;
  std::uint32_t node = 0;  // serving node (for peer-down write-off)
};

std::uint64_t now_ns() { return dityco::obs::trace_now_ns(); }

// One section in the same shape bench_util.hpp emits, with the real
// histogram tail appended (samples come from per-request latencies, so
// p50 != p99 whenever the distribution has any spread).
std::string bench_section(const std::string& name,
                          const SloHistogram::Snapshot& s, double total_us) {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "    {\"name\": \"%s\", \"unit\": \"wall_us\", \"ops_per_run\": %llu,"
      " \"runs\": 1, \"total_us\": %.2f, \"msgs_per_sec\": %.1f,"
      " \"p50_us\": %.3f, \"p99_us\": %.3f, \"p999_us\": %.3f,"
      " \"max_us\": %.3f}",
      name.c_str(), static_cast<unsigned long long>(s.count), total_us,
      total_us > 0 ? static_cast<double>(s.count) / (total_us / 1e6) : 0.0,
      s.quantile_us(0.50), s.quantile_us(0.99), s.quantile_us(0.999),
      static_cast<double>(s.max_ns) / 1e3);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) return 2;

  const bool fetch = opt.scenario == "fetch";
  const bool churn = opt.scenario == "fetch-churn";
  const auto kind = fetch ? dityco::vm::NetRef::Kind::kClass
                          : dityco::vm::NetRef::Kind::kChan;
  const SloPlane::Op op =
      fetch || churn ? SloPlane::Op::kFetch : SloPlane::Op::kMsg;
  // Churned bindings are keyed under a synthetic per-generator site so
  // concurrent generators never collide in the directory.
  const std::string churn_site = "loadgen" + std::to_string(opt.self);

  TcpConfig cfg;
  cfg.self = opt.self;
  cfg.listen_host = "127.0.0.1";
  cfg.listen_port = 0;  // ephemeral; gossip teaches the fleet our address
  cfg.multiprocess = true;
  cfg.peers[0] = opt.join;
  std::unique_ptr<TcpTransport> tcp;
  try {
    tcp = std::make_unique<TcpTransport>(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tycoload: transport: %s\n", e.what());
    return 2;
  }
  // Confirmed peer deaths surface as synthetic kPeerDown frames in our
  // own inbox, exactly like a daemon's GC write-off path.
  tcp->set_death_frame(
      [](std::uint32_t dead) { return dityco::core::make_peer_down(dead); });

  // The generator computes the same rendezvous map as the daemons and
  // sends every NS frame to the owning shard primary.
  dityco::ns::ShardRouter router(opt.ns_shards, opt.ns_replicas);
  const auto ns_dst = [&](const std::string& site,
                          const std::string& name) -> std::uint32_t {
    return router.primary_of(site, name);
  };

  // -- import phase: resolve every SITE:NAME through the NS ----------
  std::vector<Import> imports;
  for (std::size_t i = 0; i < opt.imports.size(); ++i) {
    const auto& spec = opt.imports[i];
    const auto colon = spec.find(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "tycoload: bad --import '%s' (want SITE:NAME)\n",
                   spec.c_str());
      return 2;
    }
    Import imp;
    imp.site = spec.substr(0, colon);
    imp.name = spec.substr(colon + 1);
    imports.push_back(std::move(imp));
    tcp->send(Packet{opt.self,
                     ns_dst(imports.back().site, imports.back().name),
                     NameService::make_lookup(
                         imports.back().site, imports.back().name, kind,
                         opt.self, 0, /*token=*/i,
                         dityco::obs::next_trace_id(), true)},
              0.0);
  }
  {
    const std::uint64_t deadline = now_ns() + 10ull * 1000 * 1000 * 1000;
    std::size_t resolved = 0;
    Packet pkt;
    while (resolved < imports.size() && now_ns() < deadline) {
      if (!tcp->recv(opt.self, pkt, 0.0)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        continue;
      }
      Reader r(pkt.bytes);
      if (dityco::core::read_header(r).type != MsgType::kNsReply) continue;
      const std::uint64_t token = r.u64();
      const bool ok = r.boolean();
      if (token >= imports.size() || imports[token].resolved) continue;
      Import& imp = imports[token];
      imp.resolved = true;
      imp.ok = ok;
      if (ok) {
        imp.ref = dityco::core::read_netref(r);
        r.str();  // type signature (unused here)
        imp.credit = r.u64();
      }
      ++resolved;
    }
    for (const auto& imp : imports) {
      if (imp.resolved && imp.ok) continue;
      std::fprintf(stderr, "tycoload: import %s:%s %s\n", imp.site.c_str(),
                   imp.name.c_str(),
                   imp.resolved ? "not exported" : "timed out");
      return 2;
    }
  }
  std::fprintf(stderr, "tycoload: %zu import(s) resolved, scenario=%s\n",
               imports.size(), opt.scenario.c_str());

  // -- load phase ----------------------------------------------------
  SloPlane plane;
  plane.configure(opt.slo);
  SloHistogram hist_failover;  // completions intended at/after the kill

  const std::uint64_t interval_ns =
      static_cast<std::uint64_t>(1e9 / opt.rate);
  const std::uint64_t timeout_ns = opt.timeout_ms * 1000000ull;
  const std::uint64_t start = now_ns();
  const std::uint64_t end = start + opt.duration_ms * 1000000ull;
  const std::uint64_t kill_ns =
      opt.have_kill ? start + opt.kill_at_ms * 1000000ull : 0;

  std::unordered_map<std::uint64_t, Pending> pending;
  std::vector<bool> node_dead_seen(1, false);
  // A key with no live shard owner (kNoNode) counts as dead too.
  const auto node_dead = [&](std::uint32_t n) {
    return n == dityco::ns::ShardRouter::kNoNode ||
           (n < node_dead_seen.size() && node_dead_seen[n]);
  };
  const auto mark_dead = [&](std::uint32_t n) {
    if (n >= node_dead_seen.size()) node_dead_seen.resize(n + 1, false);
    node_dead_seen[n] = true;
    // Advance the shard map: the dead primary's keys fail over to its
    // follower, so churn traffic keeps resolving through the kill.
    router.note_dead(n);
  };

  std::uint64_t next_send = start;
  std::uint64_t next_req = 1;
  std::uint64_t next_sweep = start;
  std::size_t rr = 0;
  bool killed = false;
  std::uint64_t sent = 0, completed = 0, timeouts = 0, shed = 0,
                 peer_down_failed = 0, no_target = 0;

  // A request that never completes (timeout / dead peer / shed) is
  // recorded at the timeout bound: the open-loop ledger must charge
  // missing replies against the SLO rather than drop them.
  const auto fail = [&](std::uint64_t tid, std::uint64_t intended,
                        std::uint64_t now) {
    plane.record_value(op, timeout_ns, now, tid);
    if (kill_ns != 0 && intended >= kill_ns) hist_failover.record(timeout_ns);
  };

  const auto send_one = [&](std::uint64_t intended, std::uint64_t now) {
    if (churn) {
      // Register a short-lived weak binding (credit 0: the directory
      // never holds credit against the generator), then measure the
      // lookup that resolves it; the reply triggers the unregister.
      const std::uint64_t tid = dityco::obs::next_trace_id();
      const std::uint64_t req = next_req++;
      const std::string name = "churn" + std::to_string(req);
      const std::uint32_t dst = ns_dst(churn_site, name);
      if (node_dead(dst)) {
        ++no_target;
        fail(tid, intended, now);
        return;
      }
      if (pending.size() >= opt.clients) {
        ++shed;
        fail(tid, intended, now);
        return;
      }
      const dityco::vm::NetRef ref{dityco::vm::NetRef::Kind::kChan, opt.self,
                                   0, req};
      tcp->send(Packet{opt.self, dst,
                       NameService::make_export(0, churn_site, name, ref, "",
                                                tid, true, /*credit=*/0)},
                0.0);
      tcp->send(Packet{opt.self, dst,
                       NameService::make_lookup(
                           churn_site, name, dityco::vm::NetRef::Kind::kChan,
                           opt.self, 0, /*token=*/req, tid, true)},
                0.0);
      pending.emplace(req, Pending{intended, tid, dst});
      ++sent;
      return;
    }
    // Round-robin over live targets; a fleet with every target dead
    // still charges the request to the ledger.
    std::size_t probe = 0;
    while (probe < imports.size() &&
           node_dead(imports[rr % imports.size()].ref.node)) {
      ++rr;
      ++probe;
    }
    const std::uint64_t tid = dityco::obs::next_trace_id();
    if (probe == imports.size()) {
      ++no_target;
      fail(tid, intended, now);
      return;
    }
    if (pending.size() >= opt.clients) {
      ++shed;
      fail(tid, intended, now);
      return;
    }
    const Import& t = imports[rr++ % imports.size()];
    const std::uint64_t req = next_req++;
    Writer w;
    if (fetch) {
      dityco::core::write_header(w, MsgType::kFetchReq, t.ref.site, tid, true);
      w.u64(t.ref.heap_id);
      w.u32(opt.self);
      w.u32(0);
      w.u64(req);
    } else {
      // SHIPM with [int payload, reply channel]; the reply channel is a
      // weak netref (explicit zero credit) into our synthetic node, so
      // serving daemons never hold credit against us.
      dityco::core::write_header(w, MsgType::kShipMsg, t.ref.site, tid, true);
      w.u64(t.ref.heap_id);
      w.str(opt.label);
      w.u32(2);
      w.u8(kTagInt);
      w.i64(static_cast<std::int64_t>(req));
      w.u8(kTagNetRef);
      dityco::core::write_netref(
          w, dityco::vm::NetRef{dityco::vm::NetRef::Kind::kChan, opt.self, 0,
                                req});
      w.u64(0);
    }
    tcp->send(Packet{opt.self, t.ref.node, w.take()}, 0.0);
    pending.emplace(req, Pending{intended, tid, t.ref.node});
    ++sent;
  };

  const auto handle = [&](const Packet& pkt, std::uint64_t now) {
    Reader r(pkt.bytes);
    const MsgType type = dityco::core::read_header(r).type;
    if (type == MsgType::kPeerDown) {
      const std::uint32_t dead = dityco::core::read_peer_down(r);
      mark_dead(dead);
      std::fprintf(stderr, "tycoload: peer node%u confirmed dead\n", dead);
      for (auto it = pending.begin(); it != pending.end();) {
        if (it->second.node == dead) {
          ++peer_down_failed;
          fail(it->second.tid, it->second.intended_ns, now);
          it = pending.erase(it);
        } else {
          ++it;
        }
      }
      return;
    }
    std::uint64_t req = 0;
    if (churn && type == MsgType::kNsReply) {
      // The lookup reply closes a churned name's round trip; retire the
      // binding so the directory stays bounded under sustained load.
      req = r.u64();  // token == req
    } else if (type == MsgType::kShipMsg || type == MsgType::kFetchRep) {
      // Both reply shapes lead with the request key: SHIPM replies
      // target reply-channel heap_id == req, FETCH replies echo req_id.
      req = r.u64();
    } else {
      return;  // REL / credit traffic for our weak refs: nothing to do
    }
    const auto it = pending.find(req);
    if (it == pending.end()) return;  // late reply, already timed out
    if (churn && type == MsgType::kNsReply) {
      const std::string name = "churn" + std::to_string(req);
      const std::uint32_t dst = ns_dst(churn_site, name);
      if (!node_dead(dst))
        tcp->send(Packet{opt.self, dst,
                         NameService::make_unregister(churn_site, name)},
                  0.0);
    }
    const std::uint64_t lat = now - it->second.intended_ns;
    plane.record_value(op, lat, now, it->second.tid);
    if (kill_ns != 0 && it->second.intended_ns >= kill_ns)
      hist_failover.record(lat);
    ++completed;
    pending.erase(it);
  };

  Packet pkt;
  std::uint64_t now = start;
  while (now < end || (!pending.empty() && now < end + timeout_ns)) {
    bool idle = true;
    while (tcp->recv(opt.self, pkt, 0.0)) {
      now = now_ns();
      handle(pkt, now);
      idle = false;
    }
    now = now_ns();
    // Open-loop schedule: fire every intended start that has elapsed,
    // stamping each with its own intended instant even when the loop
    // fell behind (coordinated-omission safety).
    while (next_send <= now && next_send < end) {
      send_one(next_send, now);
      next_send += interval_ns;
      idle = false;
    }
    if (!killed && kill_ns != 0 && now >= kill_ns) {
      killed = true;
      if (opt.kill_pid > 0) {
        ::kill(static_cast<pid_t>(opt.kill_pid), SIGKILL);
        std::fprintf(stderr, "tycoload: killed node%u (pid %ld) at +%llums\n",
                     opt.kill_node, opt.kill_pid,
                     static_cast<unsigned long long>((now - start) / 1000000));
      }
    }
    if (now >= next_sweep) {
      next_sweep = now + 50ull * 1000 * 1000;
      for (auto it = pending.begin(); it != pending.end();) {
        if (now - it->second.intended_ns > timeout_ns) {
          ++timeouts;
          if (churn) {
            // Best-effort retirement: a lost reply must not leave the
            // orphan binding in the directory forever.
            const std::string name = "churn" + std::to_string(it->first);
            const std::uint32_t dst = ns_dst(churn_site, name);
            if (!node_dead(dst))
              tcp->send(Packet{opt.self, dst,
                               NameService::make_unregister(churn_site, name)},
                        0.0);
          }
          fail(it->second.tid, it->second.intended_ns, now);
          it = pending.erase(it);
        } else {
          ++it;
        }
      }
    }
    if (idle) std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const std::uint64_t finish = now_ns();

  // -- GC-clean shutdown: hand imported credit back to its owners ----
  for (const auto& imp : imports) {
    if (imp.credit == 0 || node_dead(imp.ref.node)) continue;
    tcp->send(Packet{opt.self, imp.ref.node,
                     dityco::core::make_release(imp.ref, opt.self, 0,
                                                imp.credit)},
              0.0);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  tcp->shutdown();

  // -- report --------------------------------------------------------
  const double total_us = static_cast<double>(finish - start) / 1e3;
  const SloHistogram::Snapshot e2e = plane.e2e_snapshot(op);
  const SloHistogram::Snapshot fo = hist_failover.snapshot();
  const SloPlane::BurnView burn = plane.burn(finish);
  const std::uint64_t failed = timeouts + shed + peer_down_failed + no_target;

  std::fprintf(stderr,
               "tycoload: sent=%llu completed=%llu timeouts=%llu shed=%llu "
               "peer_down=%llu no_target=%llu state=%s\n",
               static_cast<unsigned long long>(sent),
               static_cast<unsigned long long>(completed),
               static_cast<unsigned long long>(timeouts),
               static_cast<unsigned long long>(shed),
               static_cast<unsigned long long>(peer_down_failed),
               static_cast<unsigned long long>(no_target),
               dityco::obs::slo_state_name(burn.state));

  if (opt.json) {
    std::printf(
        "{\"schema\": \"tycoload-report-v1\", \"scenario\": \"%s\","
        " \"rate\": %.1f, \"duration_ms\": %llu, \"sent\": %llu,"
        " \"completed\": %llu, \"failed\": %llu, \"timeouts\": %llu,"
        " \"shed\": %llu, \"peer_down\": %llu, \"no_target\": %llu,"
        " \"state\": \"%s\", \"burn_short\": %.3f, \"burn_long\": %.3f,"
        " \"latency\": %s%s%s%s}\n",
        opt.scenario.c_str(), opt.rate,
        static_cast<unsigned long long>(opt.duration_ms),
        static_cast<unsigned long long>(sent),
        static_cast<unsigned long long>(completed),
        static_cast<unsigned long long>(failed),
        static_cast<unsigned long long>(timeouts),
        static_cast<unsigned long long>(shed),
        static_cast<unsigned long long>(peer_down_failed),
        static_cast<unsigned long long>(no_target),
        dityco::obs::slo_state_name(burn.state), burn.short_w.burn,
        burn.long_w.burn, e2e.json().c_str(),
        kill_ns != 0 ? ", \"failover\": " : "",
        kill_ns != 0 ? fo.json().c_str() : "", "");
  } else {
    std::printf("tycoload %s: %llu/%llu ok over %.1fs (%.0f req/s intended)\n",
                opt.scenario.c_str(),
                static_cast<unsigned long long>(completed),
                static_cast<unsigned long long>(sent), total_us / 1e6,
                opt.rate);
    std::printf("  e2e      p50=%.1fus p90=%.1fus p99=%.1fus p99.9=%.1fus "
                "max=%.1fus n=%llu\n",
                e2e.quantile_us(0.50), e2e.quantile_us(0.90),
                e2e.quantile_us(0.99), e2e.quantile_us(0.999),
                static_cast<double>(e2e.max_ns) / 1e3,
                static_cast<unsigned long long>(e2e.count));
    if (kill_ns != 0)
      std::printf("  failover p50=%.1fus p90=%.1fus p99=%.1fus p99.9=%.1fus "
                  "max=%.1fus n=%llu (intended >= kill +%llums)\n",
                  fo.quantile_us(0.50), fo.quantile_us(0.90),
                  fo.quantile_us(0.99), fo.quantile_us(0.999),
                  static_cast<double>(fo.max_ns) / 1e3,
                  static_cast<unsigned long long>(fo.count),
                  static_cast<unsigned long long>(opt.kill_at_ms));
    std::printf("  slo state=%s burn_short=%.2f burn_long=%.2f\n",
                dityco::obs::slo_state_name(burn.state), burn.short_w.burn,
                burn.long_w.burn);
  }

  if (!opt.bench_json.empty()) {
    std::ofstream out(opt.bench_json);
    if (!out) {
      std::fprintf(stderr, "tycoload: cannot write %s\n",
                   opt.bench_json.c_str());
    } else {
      out << "{\n  \"schema\": \"dityco-bench-v2\",\n"
          << "  \"schema_version\": 2,\n"
          << "  \"bench\": \"tycoload\",\n  \"sections\": [\n"
          << bench_section("tycoload_" + opt.scenario, e2e, total_us);
      if (kill_ns != 0)
        out << ",\n"
            << bench_section("tycoload_" + opt.scenario + "_failover", fo,
                             total_us);
      out << "\n  ]\n}\n";
    }
  }

  // Exit 0 only when the fleet actually served the load: something
  // completed and, absent a deliberate kill, nothing went unanswered.
  if (completed == 0) return 1;
  if (kill_ns == 0 && failed > 0) return 1;
  return 0;
}
