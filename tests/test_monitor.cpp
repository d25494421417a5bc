// TyCOmon: the per-network monitoring daemon. Covers the HTTP server in
// isolation (routing, 404/405, keep-alive, pipelining, the worker pool,
// lifecycle) and the Network-level endpoints — including concurrent
// persistent-connection scrapers raced against a threaded run, which is
// the whole point of the live telemetry plane (TSan-checked in CI).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/network.hpp"
#include "net/tcp.hpp"
#include "obs/fleet.hpp"
#include "obs/http.hpp"
#include "obs/trace.hpp"

namespace dityco {
namespace {

/// Minimal loopback HTTP client: send `request` verbatim, read to EOF.
std::string http_request(std::uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return {};
  }
  std::size_t off = 0;
  while (off < request.size()) {
    const ssize_t n = ::send(fd, request.data() + off, request.size() - off, 0);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

std::string http_get(std::uint16_t port, const std::string& path) {
  return http_request(port, "GET " + path + " HTTP/1.0\r\n\r\n");
}

/// Body of an HTTP response (everything after the blank line).
std::string body_of(const std::string& response) {
  const auto pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? std::string() : response.substr(pos + 4);
}

/// Persistent-connection client: request every path down ONE HTTP/1.1
/// keep-alive connection (pipelined when asked: all requests written
/// before any response is read) and return the response bodies, framed
/// by Content-Length. An empty result slot means the server hung up.
std::vector<std::string> http_keepalive(std::uint16_t port,
                                        const std::vector<std::string>& paths,
                                        bool pipeline = false) {
  std::vector<std::string> out(paths.size());
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return out;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return out;
  }
  auto send_req = [fd](const std::string& path) {
    const std::string req = "GET " + path + " HTTP/1.1\r\nHost: t\r\n\r\n";
    std::size_t off = 0;
    while (off < req.size()) {
      const ssize_t n = ::send(fd, req.data() + off, req.size() - off, 0);
      if (n <= 0) return;
      off += static_cast<std::size_t>(n);
    }
  };
  std::string buf;
  char chunk[4096];
  auto read_response = [&]() -> std::string {
    std::size_t head_end;
    while ((head_end = buf.find("\r\n\r\n")) == std::string::npos) {
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n <= 0) return {};
      buf.append(chunk, static_cast<std::size_t>(n));
    }
    const std::string head = buf.substr(0, head_end + 4);
    std::size_t len = 0;
    const auto cl = head.find("Content-Length:");
    if (cl != std::string::npos)
      len = std::strtoul(head.c_str() + cl + 15, nullptr, 10);
    while (buf.size() < head_end + 4 + len) {
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n <= 0) return {};
      buf.append(chunk, static_cast<std::size_t>(n));
    }
    std::string body = buf.substr(head_end + 4, len);
    buf.erase(0, head_end + 4 + len);
    return body;
  };
  if (pipeline) {
    for (const auto& p : paths) send_req(p);
    for (std::size_t i = 0; i < paths.size(); ++i) out[i] = read_response();
  } else {
    for (std::size_t i = 0; i < paths.size(); ++i) {
      send_req(paths[i]);
      out[i] = read_response();
    }
  }
  ::close(fd);
  return out;
}

// ---------------------------------------------------------------------
// MonitorServer in isolation
// ---------------------------------------------------------------------

TEST(MonitorServer, ServesRoutesAndRejectsUnknownOnes) {
  obs::MonitorServer srv;
  srv.route("/ping", [] {
    obs::MonitorServer::Response r;
    r.body = "pong";
    return r;
  });
  srv.route("/teapot", [] {
    obs::MonitorServer::Response r;
    r.status = 404;
    r.body = "short and stout";
    return r;
  });
  const std::uint16_t port = srv.start(0);
  ASSERT_NE(port, 0u) << "ephemeral bind must succeed";
  EXPECT_TRUE(srv.running());
  EXPECT_EQ(srv.port(), port);

  const std::string ok = http_get(port, "/ping");
  EXPECT_NE(ok.find("HTTP/1.1 200"), std::string::npos) << ok;
  EXPECT_EQ(body_of(ok), "pong");
  EXPECT_NE(ok.find("Content-Length: 4"), std::string::npos);

  // Query strings are stripped before routing.
  EXPECT_EQ(body_of(http_get(port, "/ping?x=1")), "pong");

  // A handler controls its own status line.
  EXPECT_NE(http_get(port, "/teapot").find("HTTP/1.1 404"),
            std::string::npos);

  // Unknown path: 404 listing the routes that do exist.
  const std::string miss = http_get(port, "/nope");
  EXPECT_NE(miss.find("HTTP/1.1 404"), std::string::npos);
  EXPECT_NE(miss.find("/ping"), std::string::npos);

  // Non-GET: 405.
  EXPECT_NE(http_request(port, "POST /ping HTTP/1.0\r\n\r\n")
                .find("HTTP/1.1 405"),
            std::string::npos);

  EXPECT_GE(srv.requests(), 5u);
  srv.stop();
  EXPECT_FALSE(srv.running());
  srv.stop();  // idempotent
}

TEST(MonitorServer, HandlesSequentialClients) {
  obs::MonitorServer srv;
  int hits = 0;
  srv.route("/n", [&hits] {
    obs::MonitorServer::Response r;
    r.body = std::to_string(++hits);
    return r;
  });
  const std::uint16_t port = srv.start(0);
  ASSERT_NE(port, 0u);
  for (int i = 1; i <= 5; ++i)
    EXPECT_EQ(body_of(http_get(port, "/n")), std::to_string(i));
  srv.stop();
}

TEST(MonitorServer, KeepAliveReusesOneConnection) {
  obs::MonitorServer srv;
  int hits = 0;
  srv.route("/n", [&hits] {
    obs::MonitorServer::Response r;
    r.body = std::to_string(++hits);
    return r;
  });
  const std::uint16_t port = srv.start(0);
  ASSERT_NE(port, 0u);
  const auto bodies = http_keepalive(port, {"/n", "/n", "/n"});
  EXPECT_EQ(bodies, (std::vector<std::string>{"1", "2", "3"}));
  // Three requests, one TCP connection: that is what keep-alive buys.
  EXPECT_EQ(srv.connections(), 1u);
  EXPECT_EQ(srv.requests(), 3u);
  srv.stop();
}

TEST(MonitorServer, PipelinedRequestsAnswerInOrder) {
  obs::MonitorServer srv;
  int hits = 0;
  srv.route("/n", [&hits] {
    obs::MonitorServer::Response r;
    r.body = std::to_string(++hits);
    return r;
  });
  const std::uint16_t port = srv.start(0);
  ASSERT_NE(port, 0u);
  const auto bodies = http_keepalive(port, {"/n", "/n"}, /*pipeline=*/true);
  EXPECT_EQ(bodies, (std::vector<std::string>{"1", "2"}));
  EXPECT_EQ(srv.connections(), 1u);
  srv.stop();
}

TEST(MonitorServer, Http10ClosesUnlessAskedToStay) {
  obs::MonitorServer srv;
  srv.route("/p", [] {
    obs::MonitorServer::Response r;
    r.body = "pong";
    return r;
  });
  const std::uint16_t port = srv.start(0);
  ASSERT_NE(port, 0u);
  // Plain HTTP/1.0: exactly one response, then EOF (http_request reads
  // to EOF, so a non-closing server would stall it into the timeout).
  const std::string one = http_request(port, "GET /p HTTP/1.0\r\n\r\n");
  EXPECT_NE(one.find("Connection: close"), std::string::npos) << one;
  EXPECT_EQ(body_of(one), "pong");
  // HTTP/1.1 + Connection: close is honoured too.
  const std::string bye = http_request(
      port, "GET /p HTTP/1.1\r\nConnection: close\r\n\r\n");
  EXPECT_NE(bye.find("Connection: close"), std::string::npos) << bye;
  srv.stop();
}

TEST(MonitorServer, SlowScraperDoesNotBlockOthers) {
  obs::MonitorServer srv;
  srv.route("/slow", [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    obs::MonitorServer::Response r;
    r.body = "slow";
    return r;
  });
  srv.route("/fast", [] {
    obs::MonitorServer::Response r;
    r.body = "fast";
    return r;
  });
  const std::uint16_t port = srv.start(0);
  ASSERT_NE(port, 0u);
  std::thread slow([&] { EXPECT_EQ(body_of(http_get(port, "/slow")), "slow"); });
  // Give the slow request time to reach its handler and park a worker.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(body_of(http_get(port, "/fast")), "fast");
  const auto fast_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  slow.join();
  // The pool (default 4 workers) must answer /fast while /slow is still
  // sleeping; a single-threaded server would serialise them.
  EXPECT_LT(fast_ms, 300) << "a slow scraper blocked the fast one";
  srv.stop();
}

// ---------------------------------------------------------------------
// Network endpoints
// ---------------------------------------------------------------------

core::Network rpc_net(core::Network::Config cfg, int calls) {
  core::Network net(cfg);
  net.add_node();
  net.add_site(0, "server");
  net.add_node();
  net.add_site(1, "client");
  net.submit_source("server",
                    "export new svc in "
                    "def Serve(self) = self?{ val(x, r) = (r![x + 1] | "
                    "Serve[self]) } in Serve[svc]");
  net.submit_source("client",
                    "import svc from server in "
                    "def Loop(i, acc) = if i == 0 then print[\"done\", acc] "
                    "else let v = svc![acc] in Loop[i - 1, v] "
                    "in Loop[" + std::to_string(calls) + ", 0]");
  return net;
}

TEST(Monitor, EndpointsAnswerAtRest) {
  auto net = rpc_net({}, 4);
  net.enable_tracing(1 << 12);
  // Promote everything (slow_us well under any real latency) so /flight
  // has content; profile at a tight period so /profile has samples.
  obs::FlightPolicy fp;
  fp.slow_us = 0.001;
  net.enable_flight(fp);
  net.enable_profiling(16);
  const std::uint16_t port = net.start_monitor(0);
  ASSERT_NE(port, 0u);
  EXPECT_EQ(net.monitor_port(), port);
  ASSERT_TRUE(net.run().quiescent);

  const std::string metrics = http_get(port, "/metrics");
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("site_msgs_shipped{site=\"client\"}"),
            std::string::npos);
  // At rest the scrape includes the non-live-safe collectors too.
  EXPECT_NE(metrics.find("vm_runnable"), std::string::npos) << metrics;

  const std::string json = body_of(http_get(port, "/metrics.json"));
  EXPECT_NE(json.find("\"counters\""), std::string::npos);

  const std::string health = body_of(http_get(port, "/healthz"));
  EXPECT_NE(health.find("\"outcome\":\"quiescent\""), std::string::npos)
      << health;
  EXPECT_NE(health.find("\"running\":false"), std::string::npos);
  EXPECT_NE(health.find("\"name\":\"client\""), std::string::npos);

  const std::string trace = body_of(http_get(port, "/trace"));
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);

  const std::string flight = body_of(http_get(port, "/flight"));
  EXPECT_NE(flight.find("\"traceEvents\""), std::string::npos);
  // Every mobility completion in this run beat the threshold, so the
  // flight buffer cannot be empty: at least one SHIPM hop survived.
  EXPECT_NE(flight.find("SHIPM"), std::string::npos) << flight;

  const std::string profile = body_of(http_get(port, "/profile"));
  EXPECT_NE(profile.find(';'), std::string::npos) << profile;
  // Folded stacks name the user-level definition, not just opcodes.
  EXPECT_NE(profile.find("Loop"), std::string::npos) << profile;

  net.stop_monitor();
  EXPECT_EQ(net.monitor_port(), 0u);
}

// The SLO plane behind /slo (and tycosh :slo): the ledger tracks every
// RPC's departure and completion, the document carries real e2e
// percentiles, and a sub-threshold run stays in the ok state with the
// violating-trace path never firing.
TEST(Monitor, SloEndpointServesLedgerAndBurnState) {
  auto net = rpc_net({}, 8);
  net.enable_flight();
  net.enable_slo();
  ASSERT_TRUE(net.slo_enabled());
  const std::uint16_t port = net.start_monitor(0);
  ASSERT_NE(port, 0u);
  ASSERT_TRUE(net.run().quiescent);

  const std::string doc = body_of(http_get(port, "/slo"));
  EXPECT_NE(doc.find("\"schema\":\"dityco-slo-v1\""), std::string::npos)
      << doc;
  EXPECT_NE(doc.find("\"state\":\"ok\""), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"burn\""), std::string::npos);
  EXPECT_NE(doc.find("\"stages\""), std::string::npos);
  // 8 calls + the initial import round-trip all completed through the
  // ledger; nothing is left in flight and nothing violated a 5ms
  // objective on loopback.
  const auto& plane = net.slo();
  EXPECT_GE(plane.completed(), 8u);
  EXPECT_EQ(plane.inflight(), 0u);
  EXPECT_EQ(plane.violations(), 0u);
  EXPECT_GE(plane.e2e_snapshot(obs::SloPlane::Op::kMsg).count, 8u);

  // The metrics exposition carries the plane's counters and gauges.
  const std::string metrics = http_get(port, "/metrics");
  EXPECT_NE(metrics.find("slo_requests_completed"), std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("slo_state 0"), std::string::npos) << metrics;
  net.stop_monitor();
}

// A hostile objective (0ns threshold) must drive the burn-rate state
// machine to page and promote the offending trace ids into /flight —
// the alert path the slo smoke exercises across real processes.
TEST(Monitor, SloViolationsPageAndLandInFlight) {
  auto net = rpc_net({}, 8);
  net.enable_flight();
  obs::SloPlane::Config cfg;
  cfg.objective.threshold_ns = 0;  // every completion violates
  cfg.objective.short_window_s = 5;
  cfg.objective.long_window_s = 10;
  net.enable_slo(cfg);
  ASSERT_TRUE(net.run().quiescent);

  const auto& plane = net.slo();
  EXPECT_GE(plane.violations(), 8u);
  EXPECT_EQ(plane.state(), obs::SloState::kPage);
  EXPECT_GE(plane.transitions_total(), 1u);
  const std::string doc = net.slo_json();
  EXPECT_NE(doc.find("\"state\":\"page\""), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"transitions\":[{"), std::string::npos) << doc;
  // The flight recorder holds the promoted slow traces.
  const std::string flight = net.flight_json();
  EXPECT_NE(flight.find("SHIPM"), std::string::npos) << flight;
}

TEST(Monitor, HealthJsonTracksRunState) {
  auto net = rpc_net({}, 2);
  const std::string before = net.health_json();
  EXPECT_NE(before.find("\"outcome\":\"never_ran\""), std::string::npos)
      << before;
  ASSERT_TRUE(net.run().quiescent);
  const std::string after = net.health_json();
  EXPECT_NE(after.find("\"outcome\":\"quiescent\""), std::string::npos);
  EXPECT_NE(after.find("\"mode\":\"sequential\""), std::string::npos)
      << after;
}

TEST(Monitor, ScrapeRacesThreadedRun) {
  core::Network::Config cfg;
  cfg.mode = core::Network::Mode::kThreaded;
  auto net = rpc_net(cfg, 2000);
  net.enable_tracing(1 << 12);
  obs::FlightPolicy fp;
  fp.slow_pctl = 0.99;
  net.enable_flight(fp);
  net.enable_profiling(64);
  const std::uint16_t port = net.start_monitor(0);
  ASSERT_NE(port, 0u);

  core::Network::Result res;
  std::thread runner([&] { res = net.run(); });
  // Two concurrent persistent-connection scrapers hammer every endpoint
  // while the two executor threads and the daemon pumps are live; the
  // live scrape path must stay off their plain fields and the profiler/
  // flight reads off the executors' single-writer cells (TSan enforces
  // this in CI).
  auto scrape = [port] {
    for (int i = 0; i < 10; ++i) {
      const auto bodies = http_keepalive(
          port, {"/metrics", "/metrics.json", "/healthz", "/trace",
                 "/flight", "/profile"});
      for (const auto& b : bodies) EXPECT_FALSE(b.empty());
    }
  };
  std::thread scraper1(scrape), scraper2(scrape);
  scraper1.join();
  scraper2.join();
  runner.join();
  EXPECT_TRUE(res.quiescent);

  // Post-run the counters have converged to the final values.
  const std::string metrics = http_get(port, "/metrics");
  EXPECT_NE(metrics.find("site_msgs_shipped{site=\"client\"}"),
            std::string::npos);
  const std::string health = body_of(http_get(port, "/healthz"));
  EXPECT_NE(health.find("\"outcome\":\"quiescent\""), std::string::npos);
}

TEST(Monitor, StartTwiceKeepsFirstServer) {
  auto net = rpc_net({}, 1);
  const std::uint16_t a = net.start_monitor(0);
  ASSERT_NE(a, 0u);
  const std::uint16_t b = net.start_monitor(0);
  EXPECT_EQ(a, b) << "second start_monitor returns the live server's port";
}

// ---------------------------------------------------------------------
// /peers, gossiped monitor ports and fleet-wide federation
// ---------------------------------------------------------------------

/// A one-node multiprocess Network (the tycod shape) with tracing and
/// TyCOmon up, its TCP transport bound. Port 0 = ephemeral listen.
struct FleetNode {
  explicit FleetNode(std::uint32_t self, const std::string& join = "") {
    core::Network::Config cfg;
    cfg.mode = core::Network::Mode::kThreaded;
    cfg.transport = core::Network::TransportKind::kTcp;
    cfg.tcp.multiprocess = true;
    cfg.tcp.self = self;
    if (!join.empty()) cfg.tcp.peers[0] = join;
    net = std::make_unique<core::Network>(cfg);
    net->add_node();
    net->enable_tracing(1 << 12);
    monitor = net->start_monitor(0);
    tcp = net->tcp_transport();
  }
  std::unique_ptr<core::Network> net;
  std::uint16_t monitor = 0;
  net::TcpTransport* tcp = nullptr;
};

bool wait_for(const std::function<bool()>& pred, int ms = 5000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

TEST(Fleet, PeersEndpointGossipsMonitorPortsAndHealthzShowsTransport) {
  // Two tycod-shaped networks in one process, joined over real loopback
  // sockets. The hello/kPeers frames carry each side's TyCOmon port, so
  // either monitor's /peers names the other's.
  FleetNode n0(0);
  ASSERT_NE(n0.monitor, 0u);
  FleetNode n1(1, "127.0.0.1:" + std::to_string(n0.tcp->port()));
  ASSERT_NE(n1.monitor, 0u);

  // Node 0 learns node 1's monitor port from its hello.
  ASSERT_TRUE(wait_for([&] {
    const std::string body = body_of(http_get(n0.monitor, "/peers"));
    return body.find("\"monitor\":" + std::to_string(n1.monitor)) !=
           std::string::npos;
  })) << body_of(http_get(n0.monitor, "/peers"));

  const std::string peers0 = body_of(http_get(n0.monitor, "/peers"));
  EXPECT_NE(peers0.find("\"self\":{\"node\":0"), std::string::npos) << peers0;
  EXPECT_NE(peers0.find("\"node\":1"), std::string::npos);
  EXPECT_NE(peers0.find("\"state\":\"connected\""), std::string::npos)
      << peers0;
  EXPECT_NE(peers0.find("\"phi\":"), std::string::npos);
  EXPECT_NE(peers0.find("\"queue_bytes\":"), std::string::npos);
  EXPECT_NE(peers0.find("\"reconnects\":"), std::string::npos);

  // /healthz gained the per-peer transport block.
  const std::string health = body_of(http_get(n0.monitor, "/healthz"));
  EXPECT_NE(health.find("\"peers\":["), std::string::npos) << health;
  EXPECT_NE(health.find("\"last_heard_age_ms\":"), std::string::npos);

  // discover() walks the gossip from one seed URL to the whole fleet.
  const auto eps = obs::fleet::discover(
      "http://127.0.0.1:" + std::to_string(n0.monitor));
  ASSERT_EQ(eps.size(), 2u) << "seed + gossiped peer";
  EXPECT_EQ(eps[0].node, 0u);
  EXPECT_EQ(eps[1].node, 1u);
  EXPECT_EQ(eps[1].monitor, n1.monitor);
}

TEST(Fleet, FederatedScrapeMergesTracesAndLabelsMetrics) {
  namespace fleet = obs::fleet;
  FleetNode n0(0);
  FleetNode n1(1, "127.0.0.1:" + std::to_string(n0.tcp->port()));
  ASSERT_TRUE(wait_for([&] { return n1.tcp->stats().connects.load() > 0; }));

  // One traced daemon packet crosses the socket: v2 header, sampled bit
  // set, a fresh id. The send span lands in n1's transport ring; the
  // recv span lands in n0's when the packet is popped.
  const std::uint64_t id = obs::next_trace_id();
  net::Packet p;
  p.src_node = 1;
  p.dst_node = 0;
  p.bytes.push_back(0x01 | 0x80 | 0x40);
  p.bytes.resize(13);
  std::memcpy(p.bytes.data() + 5, &id, sizeof id);
  n1.tcp->send(std::move(p), 0);
  net::Packet got;
  ASSERT_TRUE(wait_for([&] { return n0.tcp->recv(0, got, 0); }));

  // Scrape both /trace docs and stitch them: the merged timeline must
  // hold both processes and connect the send and recv spans of `id`
  // with one cross-process flow.
  const std::string doc0 = body_of(http_get(n0.monitor, "/trace"));
  const std::string doc1 = body_of(http_get(n1.monitor, "/trace"));
  const fleet::MergedTrace merged = fleet::merge_traces({doc0, doc1});
  EXPECT_EQ(merged.nodes, 2u);
  EXPECT_EQ(merged.anchored, 2u);
  std::set<std::uint32_t> pids;
  for (const auto& e : merged.events)
    if (e.trace_id == id) pids.insert(e.pid);
  EXPECT_EQ(pids, (std::set<std::uint32_t>{0u, 1u})) << merged.json;
  // The regenerated flow chain for the id is in the merged document.
  EXPECT_NE(merged.json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(merged.json.find("\"ph\":\"f\""), std::string::npos);

  // Federated Prometheus view: every sample line gains a node label.
  const std::string fed = fleet::federate_metrics(
      {{0, body_of(http_get(n0.monitor, "/metrics"))},
       {1, body_of(http_get(n1.monitor, "/metrics"))}});
  EXPECT_NE(fed.find("node=\"0\""), std::string::npos);
  EXPECT_NE(fed.find("node=\"1\""), std::string::npos);
  // The transport's path telemetry is in there, per node and per peer.
  EXPECT_NE(fed.find("tcp_peer_phi_milli"), std::string::npos) << fed;
  const std::string fedj = fleet::federate_metrics_json(
      {{0, body_of(http_get(n0.monitor, "/metrics.json"))},
       {1, body_of(http_get(n1.monitor, "/metrics.json"))}});
  EXPECT_NE(fedj.find("\"nodes\":["), std::string::npos);
  EXPECT_NE(fedj.find("\"counters\""), std::string::npos);
}

// ---------------------------------------------------------------------
// /gc, /names and the credit audit plane
// ---------------------------------------------------------------------

TEST(Monitor, GcAndNamesEndpointsAnswerAtRest) {
  namespace fleet = obs::fleet;
  auto net = rpc_net({}, 3);
  const std::uint16_t port = net.start_monitor(0);
  ASSERT_NE(port, 0u);
  ASSERT_TRUE(net.run().quiescent);

  // /gc: at rest the snapshot is rebuilt fresh and every export entry's
  // ledger adds up (minted = returned + released + outstanding).
  const std::string gc_body = body_of(http_get(port, "/gc"));
  fleet::Json gc;
  ASSERT_TRUE(fleet::parse_json(gc_body, gc)) << gc_body;
  ASSERT_NE(gc.find("running"), nullptr);
  EXPECT_FALSE(gc.find("running")->boolean);
  EXPECT_TRUE(gc.find("fresh")->boolean);
  const fleet::Json* sites = gc.find("sites");
  ASSERT_NE(sites, nullptr);
  ASSERT_EQ(sites->items.size(), 2u) << gc_body;
  bool saw_entry = false;
  for (const fleet::Json& site : sites->items) {
    const fleet::Json* exports = site.find("exports");
    ASSERT_NE(exports, nullptr) << gc_body;
    for (const fleet::Json& e : exports->items) {
      saw_entry = true;
      EXPECT_EQ(e.u64_or("minted", 0),
                e.u64_or("returned", 0) + e.u64_or("released", 0) +
                    e.u64_or("outstanding", 0))
          << gc_body;
    }
  }
  EXPECT_TRUE(saw_entry) << "the exported service left no ledger: "
                         << gc_body;

  // /names: the single shard lists both registered sites and the
  // exported id with its retained credit share.
  const std::string names_body = body_of(http_get(port, "/names"));
  fleet::Json names;
  ASSERT_TRUE(fleet::parse_json(names_body, names)) << names_body;
  const fleet::Json* services = names.find("services");
  ASSERT_NE(services, nullptr);
  ASSERT_EQ(services->items.size(), 1u) << names_body;
  const fleet::Json& svc = services->items[0];
  EXPECT_EQ(svc.str_or("scope"), "shard0");
  EXPECT_EQ(svc.find("sites")->items.size(), 2u) << names_body;
  bool saw_id = false;
  for (const fleet::Json& id : svc.find("ids")->items)
    if (id.str_or("name") == "svc") {
      saw_id = true;
      EXPECT_EQ(id.u64_or("owner_node", 99), 0u);
      EXPECT_TRUE(id.find("gc")->boolean) << names_body;
    }
  EXPECT_TRUE(saw_id) << names_body;

  // The two documents join into a balanced audit: every minted credit
  // is covered by import balances plus name-service credit.
  const fleet::AuditReport rep = fleet::audit({gc}, {names}, {0, 1});
  EXPECT_TRUE(rep.balanced) << rep.to_text();
  EXPECT_TRUE(rep.verifiable) << rep.to_text();
  EXPECT_GE(rep.entries, 1u);
  EXPECT_EQ(rep.lag, 0u);
}

TEST(Monitor, GcAndNamesScrapesRaceThreadedRun) {
  // Concurrent persistent-connection /gc + /names scrapes while the
  // executor threads run: the endpoints must serve published snapshots
  // (or stale markers) without touching live site state — TSan enforces
  // the discipline in CI.
  namespace fleet = obs::fleet;
  core::Network::Config cfg;
  cfg.mode = core::Network::Mode::kThreaded;
  auto net = rpc_net(cfg, 2000);
  const std::uint16_t port = net.start_monitor(0);
  ASSERT_NE(port, 0u);

  core::Network::Result res;
  std::thread runner([&] { res = net.run(); });
  auto scrape = [port] {
    for (int i = 0; i < 10; ++i) {
      const auto bodies =
          http_keepalive(port, {"/gc", "/names", "/gc", "/names"});
      for (const auto& b : bodies) {
        EXPECT_FALSE(b.empty());
        fleet::Json doc;
        EXPECT_TRUE(fleet::parse_json(b, doc)) << b;
      }
    }
  };
  std::thread scraper1(scrape), scraper2(scrape);
  scraper1.join();
  scraper2.join();
  runner.join();
  EXPECT_TRUE(res.quiescent);
  // With the monitor serving, the run path published snapshots.
  for (const char* name : {"server", "client"})
    EXPECT_NE(net.find_site(name)->gc_snapshot(), nullptr) << name;

  // Post-run the fresh at-rest documents audit clean.
  fleet::Json gc, names;
  ASSERT_TRUE(fleet::parse_json(body_of(http_get(port, "/gc")), gc));
  ASSERT_TRUE(fleet::parse_json(body_of(http_get(port, "/names")), names));
  const fleet::AuditReport rep = fleet::audit({gc}, {names}, {0, 1});
  EXPECT_TRUE(rep.balanced) << rep.to_text();
}

TEST(Monitor, NoMonitorMeansNoRunPathSnapshots) {
  // Nothing serves /gc, so neither the executors nor the quiescence GC
  // passes build a credit snapshot; an at-rest /gc still builds fresh.
  namespace fleet = obs::fleet;
  core::Network::Config cfg;
  cfg.mode = core::Network::Mode::kThreaded;
  auto net = rpc_net(cfg, 50);
  ASSERT_TRUE(net.run().quiescent);
  for (const char* name : {"server", "client"})
    EXPECT_EQ(net.find_site(name)->gc_snapshot(), nullptr) << name;

  fleet::Json gc;
  ASSERT_TRUE(fleet::parse_json(net.gc_json(), gc));
  EXPECT_TRUE(gc.find("fresh")->boolean);
  const fleet::Json* sites = gc.find("sites");
  ASSERT_NE(sites, nullptr);
  ASSERT_EQ(sites->items.size(), 2u);
  for (const fleet::Json& site : sites->items) {
    EXPECT_FALSE(site.find("stale")->boolean);
    EXPECT_NE(site.find("exports"), nullptr);
  }
}

TEST(Fleet, IdleTcpMeshAuditsToZeroImbalance) {
  // Two nodes over the loopback-socket mesh run an RPC exchange and go
  // idle; the network's own self-audit must find every minted credit
  // accounted for — zero lag, zero residual — and bump the audit
  // counter it exports.
  core::Network::Config cfg;
  cfg.mode = core::Network::Mode::kThreaded;
  cfg.transport = core::Network::TransportKind::kTcp;
  auto net = rpc_net(cfg, 4);
  ASSERT_TRUE(net.run().quiescent);

  const auto rep = net.self_audit();
  EXPECT_TRUE(rep.balanced) << rep.to_text();
  EXPECT_TRUE(rep.verifiable) << rep.to_text();
  EXPECT_GE(rep.entries, 1u);
  EXPECT_EQ(rep.lag, 0u);
  EXPECT_EQ(rep.outstanding, rep.held) << rep.to_text();
  EXPECT_TRUE(rep.offenders.empty());
  EXPECT_TRUE(rep.orphan_imports.empty());
  EXPECT_TRUE(rep.ns_mismatches.empty());
  EXPECT_NE(net.metrics().expose_text().find("gc_audits 1"),
            std::string::npos);
}

}  // namespace
}  // namespace dityco
