// tycotop — fleet-wide TyCOmon aggregator.
//
// Give it one monitor URL and it walks the cluster's own gossip
// (GET /peers carries every peer's TyCOmon port, learnt from the
// transport's hello/kPeers frames), scrapes every node it finds, and:
//
//   * default: prints a per-node summary table (transport address,
//     peer states, phi, RTT, queue depth) plus cross-process operation
//     latency percentiles computed from the stitched timeline — the
//     FETCH/SHIPO/SHIPM round trips that survive process boundaries;
//   * --trace FILE: writes one merged Perfetto document. Each node's
//     /trace carries a wall-clock anchor (otherData), so events from
//     different OS processes land on one axis and a FETCH's request and
//     serve sides connect with a flow arrow across processes;
//   * --metrics FILE: federated Prometheus text, node="N" label per
//     sample; --metrics-json FILE: the same as one JSON document.
//   * --slo: scrapes /slo from every node and stitches one fleet SLO
//     view — nodes ordered worst burn rate first, with burn-window
//     state, violation counts and a per-stage tail attribution table
//     (which pipeline stage — enqueue, remote, reply, execute — owns
//     the p99). Exit 0 when at least one node was scraped, 1 when the
//     fleet is unreachable or no node has the SLO plane enabled.
//   * --audit: scrapes /gc and /names from every node, joins the credit
//     ledgers and checks the GC conservation invariant fleet-wide
//     (DESIGN.md §GC invariants). Exit 0 when balanced, 1 when any
//     confirmed anomaly (lost REL, leak, over-release, orphan import,
//     NS mismatch) is found; --watch MS repeats forever. A fleet that
//     cannot be fully scraped (a node without --monitor, a stale
//     snapshot) is reported as unverifiable, not as imbalanced.
//   * --names: federates the fleet directory. The name service is NOT
//     assumed to live on node 0: every node's /names document is one
//     slice of the picture (one "shard<N>" slice per shard node — with
//     the default single shard, node 0 holds the whole table;
//     docs/NAMESERVICE.md)
//     and the view stitches them all — per-slice binding counts, the
//     shard map's epoch and dead set, and lease-cache hit rates.
//
// Usage:
//   tycotop http://127.0.0.1:7001
//   tycotop --trace fleet.json http://127.0.0.1:7001
//   tycotop --metrics - http://127.0.0.1:7001 http://10.0.0.2:7001
//   tycotop --audit http://127.0.0.1:7001
//   tycotop --audit --watch 1000 --json http://127.0.0.1:7001
//
// Extra seeds are only needed for partitioned fleets; one URL normally
// reaches everything.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/fleet.hpp"

namespace fleet = dityco::obs::fleet;

namespace {

int usage() {
  std::cerr << "usage: tycotop [--trace FILE] [--metrics FILE]\n"
               "               [--metrics-json FILE] [--json]\n"
               "               [--audit] [--slo] [--names] [--watch MS]\n"
               "               MONITOR_URL [MONITOR_URL...]\n"
               "FILE may be '-' for stdout.\n";
  return 2;
}

int state_rank(const std::string& s) {
  if (s == "page") return 2;
  if (s == "warn") return 1;
  return 0;
}

/// One node's /slo document, reduced to the fleet view.
struct SloRow {
  std::uint32_t node = 0;
  std::string state = "off";
  double burn_short = 0, burn_long = 0;
  std::uint64_t violations = 0, completed = 0, executed = 0, inflight = 0;
  std::uint64_t transitions = 0;
  // stage -> (count, p50_us, p99_us, p999_us, max_us)
  struct Stage {
    std::uint64_t count = 0;
    double p50 = 0, p99 = 0, p999 = 0, max = 0;
  };
  std::map<std::string, Stage> stages;
  std::string dominant;  // stage with the largest p99 (tail owner)
  bool scraped = false;
};

SloRow parse_slo(std::uint32_t node, const std::string& body) {
  SloRow row;
  row.node = node;
  fleet::Json doc;
  if (body.empty() || !fleet::parse_json(body, doc) ||
      doc.find("state") == nullptr)
    return row;  // node up but SLO plane off ("{}") or unreachable
  row.scraped = true;
  row.state = doc.str_or("state", "ok");
  if (const fleet::Json* burn = doc.find("burn")) {
    if (const fleet::Json* w = burn->find("short"))
      row.burn_short = w->num_or("rate", 0);
    if (const fleet::Json* w = burn->find("long"))
      row.burn_long = w->num_or("rate", 0);
  }
  if (const fleet::Json* req = doc.find("requests")) {
    row.violations = req->u64_or("violations", 0);
    row.completed = req->u64_or("completed", 0);
    row.executed = req->u64_or("executed", 0);
    row.inflight = req->u64_or("inflight", 0);
    row.transitions = req->u64_or("state_transitions", 0);
  }
  if (const fleet::Json* stages = doc.find("stages")) {
    double worst = -1;
    for (const auto& [name, h] : stages->fields) {
      SloRow::Stage s;
      s.count = h.u64_or("count", 0);
      s.p50 = h.num_or("p50_us", 0);
      s.p99 = h.num_or("p99_us", 0);
      s.p999 = h.num_or("p999_us", 0);
      s.max = h.num_or("max_us", 0);
      if (s.count > 0 && s.p99 > worst) {
        worst = s.p99;
        row.dominant = name;
      }
      row.stages.emplace(name, s);
    }
  }
  return row;
}

bool write_out(const std::string& path, const std::string& body) {
  if (path == "-") {
    std::cout << body;
    return true;
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::cerr << "tycotop: cannot write " << path << "\n";
    return false;
  }
  out << body;
  return true;
}

double pctl(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  return v[std::min(idx, v.size() - 1)];
}

/// Operation kind of a stitched event, for the latency rollup.
const char* op_kind(dityco::obs::EventType t) {
  using T = dityco::obs::EventType;
  switch (t) {
    case T::kFetchReq: case T::kFetchHit: case T::kFetchServed:
    case T::kFetchReply: return "FETCH";
    case T::kShipObjOut: case T::kShipObjIn: return "SHIPO";
    case T::kShipMsgOut: case T::kShipMsgIn: return "SHIPM";
    case T::kNsExport: case T::kNsLookup: case T::kNsReply: return "NS";
    default: return nullptr;
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path, metrics_path, metrics_json_path;
  bool as_json = false;
  bool do_audit = false;
  bool do_slo = false;
  bool do_names = false;
  long watch_ms = 0;
  std::vector<std::string> seeds;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg == "--metrics" && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (arg == "--metrics-json" && i + 1 < argc) {
      metrics_json_path = argv[++i];
    } else if (arg == "--json") {
      as_json = true;
    } else if (arg == "--audit") {
      do_audit = true;
    } else if (arg == "--slo") {
      do_slo = true;
    } else if (arg == "--names") {
      do_names = true;
    } else if (arg == "--watch" && i + 1 < argc) {
      do_audit = true;
      watch_ms = std::atol(argv[++i]);
    } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
      return usage();
    } else {
      seeds.push_back(arg);
    }
  }
  if (seeds.empty()) return usage();

  // Discovery: walk /peers from every seed, dedup by node id. Peers that
  // run without a TyCOmon are collected separately — they cannot be
  // scraped but still count toward the audit's expected fleet.
  std::map<std::uint32_t, fleet::NodeEndpoint> nodes;
  std::set<std::uint32_t> unmonitored;
  for (const std::string& seed : seeds) {
    std::vector<std::uint32_t> unm;
    for (const fleet::NodeEndpoint& ep : fleet::discover(seed, &unm))
      nodes.emplace(ep.node, ep);
    unmonitored.insert(unm.begin(), unm.end());
  }
  for (const auto& [node, ep] : nodes) unmonitored.erase(node);
  if (nodes.empty()) {
    std::cerr << "tycotop: no reachable monitors (seed down, or started "
                 "without --monitor?)\n";
    return 1;
  }

  if (do_names) {
    // Fleet directory view. Every node's /names is scraped — the
    // directory is not assumed to live on node 0: each shard node
    // yields one "shard<N>" slice, and the federation is the union. The same per-slice join the credit audit uses.
    struct Slice {
      std::uint32_t node = 0;
      std::string scope;
      std::uint64_t home = 0, ids = 0, credit_rows = 0, waiters = 0,
                    parked = 0;
      bool stale = false;
    };
    std::vector<Slice> slices;
    std::string shard_line, cache_lines, names_nodes_json;
    for (const auto& [node, ep] : nodes) {
      const std::string body = fleet::http_get(ep.host, ep.monitor, "/names");
      fleet::Json doc;
      if (body.empty() || !fleet::parse_json(body, doc)) continue;
      if (as_json) {
        if (!names_nodes_json.empty()) names_nodes_json += ",";
        names_nodes_json +=
            "{\"node\":" + std::to_string(node) + ",\"names\":" + body + "}";
      }
      if (const fleet::Json* svcs = doc.find("services")) {
        for (const fleet::Json& svc : svcs->items) {
          Slice s;
          s.node = node;
          s.scope = svc.str_or("scope", "?");
          s.home = svc.u64_or("home_node", 0);
          s.parked = svc.u64_or("parked", 0);
          if (const fleet::Json* st = svc.find("stale");
              st && st->kind == fleet::Json::Kind::kBool && st->boolean)
            s.stale = true;
          if (const fleet::Json* ids = svc.find("ids")) {
            s.ids = ids->items.size();
            for (const fleet::Json& row : ids->items) {
              if (const fleet::Json* gc = row.find("gc");
                  gc && gc->kind == fleet::Json::Kind::kBool && gc->boolean)
                ++s.credit_rows;
              s.waiters += row.u64_or("waiters", 0);
            }
          }
          slices.push_back(std::move(s));
        }
      }
      if (const fleet::Json* sh = doc.find("sharding");
          sh && shard_line.empty()) {
        shard_line = "sharding: shards=" + std::to_string(sh->u64_or(
                         "shards", 0)) +
                     " replicas=" + std::to_string(sh->u64_or("replicas", 0)) +
                     " epoch=" + std::to_string(sh->u64_or("epoch", 0)) +
                     " dead=[";
        if (const fleet::Json* dead = sh->find("dead")) {
          bool first = true;
          for (const fleet::Json& d : dead->items) {
            if (!first) shard_line += ",";
            first = false;
            shard_line += std::to_string(d.u64());
          }
        }
        shard_line += "]";
      }
      if (const fleet::Json* caches = doc.find("caches")) {
        for (const fleet::Json& c : caches->items) {
          char buf[192];
          std::snprintf(buf, sizeof buf,
                        "  cache node%llu: entries=%llu hits=%llu "
                        "misses=%llu invalidations=%llu stale_served=%llu\n",
                        static_cast<unsigned long long>(c.u64_or("node", 0)),
                        static_cast<unsigned long long>(c.u64_or("entries", 0)),
                        static_cast<unsigned long long>(c.u64_or("hits", 0)),
                        static_cast<unsigned long long>(c.u64_or("misses", 0)),
                        static_cast<unsigned long long>(
                            c.u64_or("invalidations", 0)),
                        static_cast<unsigned long long>(
                            c.u64_or("stale_served", 0)));
          cache_lines += buf;
        }
      }
    }
    if (as_json) {
      std::cout << "{\"schema\":\"tycotop-names-v1\",\"nodes\":["
                << names_nodes_json << "]}\n";
      return slices.empty() ? 1 : 0;
    }
    std::printf("fleet directory: %zu slice(s) from %zu node(s)\n",
                slices.size(), nodes.size());
    std::printf("%-10s %-6s %6s %8s %8s %7s\n", "scope", "node", "ids",
                "credit", "waiters", "parked");
    for (const Slice& s : slices)
      std::printf("%-10s %-6u %6llu %8llu %8llu %7llu%s\n", s.scope.c_str(),
                  s.node, static_cast<unsigned long long>(s.ids),
                  static_cast<unsigned long long>(s.credit_rows),
                  static_cast<unsigned long long>(s.waiters),
                  static_cast<unsigned long long>(s.parked),
                  s.stale ? "  (stale)" : "");
    if (!shard_line.empty()) std::printf("%s\n", shard_line.c_str());
    if (!cache_lines.empty()) std::printf("%s", cache_lines.c_str());
    return slices.empty() ? 1 : 0;
  }

  if (do_slo) {
    // Fleet SLO view: every node's /slo, worst burn rate first. A node
    // whose plane is off serves "{}" and shows as state=off.
    std::vector<SloRow> rows;
    for (const auto& [node, ep] : nodes)
      rows.push_back(
          parse_slo(node, fleet::http_get(ep.host, ep.monitor, "/slo")));
    std::sort(rows.begin(), rows.end(), [](const SloRow& a, const SloRow& b) {
      const int ra = state_rank(a.state), rb = state_rank(b.state);
      if (ra != rb) return ra > rb;
      const double ba = std::max(a.burn_short, a.burn_long);
      const double bb = std::max(b.burn_short, b.burn_long);
      if (ba != bb) return ba > bb;
      return a.node < b.node;
    });
    const std::size_t scraped = static_cast<std::size_t>(
        std::count_if(rows.begin(), rows.end(),
                      [](const SloRow& r) { return r.scraped; }));
    if (as_json) {
      std::string out = "{\"schema\":\"tycotop-slo-v1\",\"nodes\":[";
      bool first = true;
      for (const SloRow& r : rows) {
        if (!first) out += ",";
        first = false;
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "{\"node\":%u,\"state\":\"%s\",\"burn_short\":%.3f,"
                      "\"burn_long\":%.3f,\"violations\":%llu,"
                      "\"completed\":%llu,\"executed\":%llu,\"inflight\":%llu,"
                      "\"state_transitions\":%llu,\"dominant_stage\":\"%s\","
                      "\"stages\":{",
                      r.node, r.state.c_str(), r.burn_short, r.burn_long,
                      static_cast<unsigned long long>(r.violations),
                      static_cast<unsigned long long>(r.completed),
                      static_cast<unsigned long long>(r.executed),
                      static_cast<unsigned long long>(r.inflight),
                      static_cast<unsigned long long>(r.transitions),
                      r.dominant.c_str());
        out += buf;
        bool firsts = true;
        for (const auto& [name, s] : r.stages) {
          if (!firsts) out += ",";
          firsts = false;
          std::snprintf(buf, sizeof buf,
                        "\"%s\":{\"count\":%llu,\"p50_us\":%.1f,"
                        "\"p99_us\":%.1f,\"p999_us\":%.1f,\"max_us\":%.1f}",
                        name.c_str(),
                        static_cast<unsigned long long>(s.count), s.p50,
                        s.p99, s.p999, s.max);
          out += buf;
        }
        out += "}}";
      }
      out += "]}\n";
      std::cout << out;
    } else {
      std::printf("fleet SLO: %zu node(s), %zu with the plane enabled; "
                  "worst burn first\n",
                  rows.size(), scraped);
      std::printf("%-6s %-5s %10s %10s %8s %10s %10s %9s  %s\n", "node",
                  "state", "burn_30s", "burn_long", "viol", "completed",
                  "executed", "inflight", "tail owner");
      for (const SloRow& r : rows)
        std::printf("%-6u %-5s %10.2f %10.2f %8llu %10llu %10llu %9llu  %s\n",
                    r.node, r.state.c_str(), r.burn_short, r.burn_long,
                    static_cast<unsigned long long>(r.violations),
                    static_cast<unsigned long long>(r.completed),
                    static_cast<unsigned long long>(r.executed),
                    static_cast<unsigned long long>(r.inflight),
                    r.dominant.empty() ? "-" : r.dominant.c_str());
      for (const SloRow& r : rows) {
        if (!r.scraped) continue;
        std::printf("node %u stage tails (us):\n", r.node);
        std::printf("  %-8s %10s %10s %10s %10s %10s\n", "stage", "count",
                    "p50", "p99", "p99.9", "max");
        for (const auto& [name, s] : r.stages) {
          if (s.count == 0) continue;
          std::printf("  %-8s %10llu %10.1f %10.1f %10.1f %10.1f%s\n",
                      name.c_str(), static_cast<unsigned long long>(s.count),
                      s.p50, s.p99, s.p999, s.max,
                      name == r.dominant ? "  <- p99 owner" : "");
        }
      }
    }
    return scraped > 0 ? 0 : 1;
  }

  if (do_audit) {
    for (;;) {
      std::vector<fleet::Json> gc_docs, names_docs;
      for (const auto& [node, ep] : nodes) {
        fleet::Json doc;
        std::string body = fleet::http_get(ep.host, ep.monitor, "/gc");
        if (!body.empty() && fleet::parse_json(body, doc))
          gc_docs.push_back(std::move(doc));
        body = fleet::http_get(ep.host, ep.monitor, "/names");
        if (!body.empty() && fleet::parse_json(body, doc))
          names_docs.push_back(std::move(doc));
      }
      std::vector<std::uint32_t> expected;
      for (const auto& [node, ep] : nodes) expected.push_back(node);
      expected.insert(expected.end(), unmonitored.begin(),
                      unmonitored.end());
      const fleet::AuditReport rep =
          fleet::audit(gc_docs, names_docs, expected);
      if (as_json) {
        std::cout << rep.to_json() << "\n";
      } else {
        std::cout << rep.to_text();
        for (std::uint32_t n : unmonitored)
          std::cout << "  note: node " << n
                    << " runs without --monitor (not scraped)\n";
      }
      std::cout.flush();
      if (watch_ms <= 0) return rep.balanced ? 0 : 1;
      std::this_thread::sleep_for(std::chrono::milliseconds(watch_ms));
      // Re-discover between rounds: nodes join, exit, or gain monitors.
      nodes.clear();
      unmonitored.clear();
      for (const std::string& seed : seeds) {
        std::vector<std::uint32_t> unm;
        for (const fleet::NodeEndpoint& ep : fleet::discover(seed, &unm))
          nodes.emplace(ep.node, ep);
        unmonitored.insert(unm.begin(), unm.end());
      }
      for (const auto& [node, ep] : nodes) unmonitored.erase(node);
      if (nodes.empty()) {
        std::cerr << "tycotop: fleet lost (no reachable monitors)\n";
        return 1;
      }
    }
  }

  const bool want_summary =
      trace_path.empty() && metrics_path.empty() && metrics_json_path.empty();
  const bool want_trace = !trace_path.empty() || want_summary;

  std::vector<std::string> trace_docs;
  std::vector<std::pair<std::uint32_t, std::string>> metric_texts;
  std::vector<std::pair<std::uint32_t, std::string>> metric_docs;
  std::map<std::uint32_t, std::string> peer_docs;
  for (const auto& [node, ep] : nodes) {
    if (want_trace) {
      std::string doc = fleet::http_get(ep.host, ep.monitor, "/trace");
      if (!doc.empty()) trace_docs.push_back(std::move(doc));
    }
    if (!metrics_path.empty())
      metric_texts.emplace_back(node,
                                fleet::http_get(ep.host, ep.monitor,
                                                "/metrics"));
    if (!metrics_json_path.empty())
      metric_docs.emplace_back(node,
                               fleet::http_get(ep.host, ep.monitor,
                                               "/metrics.json"));
    if (want_summary)
      peer_docs[node] = fleet::http_get(ep.host, ep.monitor, "/peers");
  }

  fleet::MergedTrace merged;
  if (want_trace) merged = fleet::merge_traces(trace_docs);
  if (!trace_path.empty() && !write_out(trace_path, merged.json)) return 1;
  if (!metrics_path.empty() &&
      !write_out(metrics_path, fleet::federate_metrics(metric_texts)))
    return 1;
  if (!metrics_json_path.empty() &&
      !write_out(metrics_json_path,
                 fleet::federate_metrics_json(metric_docs)))
    return 1;
  if (!want_summary) return 0;

  // Cross-process operation latency: per trace id, the lifespan from its
  // first to its last stitched event; kept only when the id actually
  // crossed a process boundary (events on >= 2 pids).
  struct Span {
    std::uint64_t lo = 0, hi = 0;  // ns
    std::uint32_t first_node = 0;
    bool crossed = false, init = false;
    const char* kind = nullptr;
  };
  std::map<std::uint64_t, Span> spans;
  for (const dityco::obs::TraceEvent& e : merged.events) {
    if (e.trace_id == 0) continue;
    Span& s = spans[e.trace_id];
    if (!s.init) {
      s.init = true;
      s.lo = s.hi = e.ts_ns;
      s.first_node = e.node;
    } else {
      s.lo = std::min(s.lo, e.ts_ns);
      s.hi = std::max(s.hi, e.ts_ns);
      if (e.node != s.first_node) s.crossed = true;
    }
    if (const char* k = op_kind(e.type)) s.kind = k;
  }
  std::map<std::string, std::vector<double>> lat;
  for (const auto& [id, s] : spans)
    if (s.crossed && s.kind)
      lat[s.kind].push_back(static_cast<double>(s.hi - s.lo) / 1000.0);

  if (as_json) {
    std::string out = "{\"nodes\":[";
    bool first = true;
    for (const auto& [node, ep] : nodes) {
      if (!first) out += ",";
      first = false;
      out += "{\"node\":" + std::to_string(node) + ",\"monitor\":\"" +
             ep.host + ":" + std::to_string(ep.monitor) + "\",\"peers\":" +
             (peer_docs[node].empty() ? "null" : peer_docs[node]) + "}";
    }
    out += "],\"cross_process_ops\":{";
    bool firstk = true;
    for (auto& [kind, v] : lat) {
      if (!firstk) out += ",";
      firstk = false;
      char buf[128];
      std::snprintf(buf, sizeof buf,
                    "\"%s\":{\"count\":%zu,\"p50_us\":%.1f,\"p99_us\":%.1f}",
                    kind.c_str(), v.size(), pctl(v, 0.50), pctl(v, 0.99));
      out += buf;
    }
    out += "}}\n";
    std::cout << out;
    return 0;
  }

  std::printf("fleet: %zu node(s), %zu trace doc(s) (%zu anchored)\n",
              nodes.size(), merged.nodes, merged.anchored);
  std::printf("%-6s %-22s %-22s %s\n", "node", "monitor", "transport",
              "peers (state phi rtt_us queue)");
  for (const auto& [node, ep] : nodes) {
    std::string peers_col;
    fleet::Json doc;
    if (!peer_docs[node].empty() && fleet::parse_json(peer_docs[node], doc)) {
      if (const fleet::Json* peers = doc.find("peers")) {
        for (const fleet::Json& p : peers->items) {
          char cell[128];
          std::snprintf(cell, sizeof cell, "%s%llu:%s phi=%.2f rtt=%llu q=%llu",
                        peers_col.empty() ? "" : "  ",
                        static_cast<unsigned long long>(p.u64_or("node", 0)),
                        p.str_or("state", "?").c_str(), p.num_or("phi", 0),
                        static_cast<unsigned long long>(p.u64_or("rtt_us", 0)),
                        static_cast<unsigned long long>(
                            p.u64_or("queue_bytes", 0)));
          peers_col += cell;
        }
      }
    }
    std::printf("%-6u %-22s %-22s %s\n", node,
                (ep.host + ":" + std::to_string(ep.monitor)).c_str(),
                ep.hostport.c_str(), peers_col.c_str());
  }
  if (!lat.empty()) {
    std::printf("cross-process operations (stitched trace):\n");
    std::printf("%-8s %8s %12s %12s\n", "op", "count", "p50_us", "p99_us");
    for (auto& [kind, v] : lat)
      std::printf("%-8s %8zu %12.1f %12.1f\n", kind.c_str(), v.size(),
                  pctl(v, 0.50), pctl(v, 0.99));
  } else {
    std::printf("cross-process operations: none stitched (enable --trace "
                "on the daemons)\n");
  }
  return 0;
}
