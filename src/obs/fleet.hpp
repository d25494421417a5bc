// Fleet-wide observability: discover every TyCOmon in a DiTyCO cluster
// from one seed, scrape them all, and stitch the results together.
//
// Discovery rides the transport's own gossip: every node's TyCOmon
// serves GET /peers — its node id, advertised address and monitor port
// plus the same for every peer it knows (monitor ports travel in the
// kHello/kPeers frames, net/tcp.hpp). discover() walks that graph
// transitively, so one `--join`-style seed URL reaches the whole fleet.
//
// Trace stitching is the hard part: TraceRing timestamps are
// steady_clock, which is meaningless across OS processes. Each node's
// /trace document therefore carries a clock anchor in "otherData"
// (obs::ExportMeta): the steady-clock and wall-clock readings taken at
// the same instant, plus the base subtracted from every ts. merge()
// rebases every event onto the shared wall clock
//   wall_us(ev) = wall_now_us - (steady_now_ns - ts_base_ns)/1000 + ts
// drops each node's local flow arrows, and regenerates s/t/f flow
// chains globally — an id that appears on two nodes (a FETCH's request
// and serve sides) becomes one arrow crossing process boundaries.
//
// Everything here is dependency-free (a hand-rolled blocking HTTP GET
// and a small recursive-descent JSON reader) and synchronous: callers
// are tools (tycotop, tycosh :fleet) and tests, not hot paths.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace dityco::obs::fleet {

// -- tiny JSON reader ---------------------------------------------------

/// A parsed JSON value. Numbers keep their raw spelling so 64-bit
/// nanosecond anchors survive the trip (doubles alone would round).
struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  std::string raw;  // number spelling, or string value
  std::vector<Json> items;
  std::vector<std::pair<std::string, Json>> fields;

  double num() const;
  std::uint64_t u64() const;
  /// Object member lookup; nullptr when absent or not an object.
  const Json* find(const std::string& key) const;
  /// Convenience: find(key)->num() with a default.
  double num_or(const std::string& key, double def) const;
  std::uint64_t u64_or(const std::string& key, std::uint64_t def) const;
  std::string str_or(const std::string& key,
                     const std::string& def = "") const;
};

/// Parse a complete JSON document. Returns false (out untouched beyond
/// partial state) on malformed input.
bool parse_json(const std::string& text, Json& out);

// -- HTTP ---------------------------------------------------------------

/// Blocking GET http://host:port/path (HTTP/1.0, read to EOF). Returns
/// the response body, or empty on connect/read/status failure.
std::string http_get(const std::string& host, std::uint16_t port,
                     const std::string& path, int timeout_ms = 5000);

/// Split "http://host:port[/...]" or bare "host:port" into host + port;
/// returns false on malformed input.
bool parse_url(const std::string& url, std::string& host,
               std::uint16_t& port);

// -- discovery ------------------------------------------------------------

/// One node's monitor endpoint, as discovered via /peers.
struct NodeEndpoint {
  std::uint32_t node = 0;
  std::string host;            // monitor host (from the transport address)
  std::uint16_t monitor = 0;   // TyCOmon port
  std::string hostport;        // transport address ("" for the seed self)
};

/// Walk /peers transitively from a seed monitor URL until no new
/// monitors appear. Unreachable peers are skipped; the seed itself is
/// always first when reachable. Returns empty on a dead seed.
///
/// A peer that gossips monitor port 0 runs without a TyCOmon (tycod
/// --monitor off) — it cannot be scraped but it IS part of the fleet:
/// it is skipped, never an error, and with `unmonitored` non-null its
/// node id is reported so aggregators (tycotop, the audit plane) can
/// mark the fleet view incomplete instead of silently under-counting.
std::vector<NodeEndpoint> discover(const std::string& seed_url,
                                   std::vector<std::uint32_t>* unmonitored =
                                       nullptr);

// -- stitching ------------------------------------------------------------

/// One event of the merged fleet timeline (exposed so tools can compute
/// cross-process operation latency without re-parsing the JSON).
struct FleetEvent {
  std::string ph;        // B E i b e
  std::string name;
  std::string cat;
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
  double ts_us = 0;      // rebased onto the fleet-wide axis
  std::uint64_t trace_id = 0;
  std::uint64_t arg = 0;
};

struct MergedTrace {
  std::string json;               // one Chrome trace-event document
  std::vector<FleetEvent> events; // every event, rebased, in doc order
  std::size_t nodes = 0;          // documents merged
  std::size_t anchored = 0;       // documents that carried a clock anchor
};

/// Merge per-node /trace documents (see file header). Documents without
/// an anchor keep their local time base (offset 0) — fine for a single
/// process, skewed across several.
MergedTrace merge_traces(const std::vector<std::string>& docs);

/// Federate Prometheus text expositions: inject a node="N" label into
/// every sample line and concatenate. Input: (node id, /metrics body).
std::string federate_metrics(
    const std::vector<std::pair<std::uint32_t, std::string>>& texts);

/// Federate JSON expositions: {"nodes":[{"node":N,"metrics":<doc>}...]}.
/// Bodies are embedded verbatim (they are already JSON).
std::string federate_metrics_json(
    const std::vector<std::pair<std::uint32_t, std::string>>& docs);

// -- credit audit ---------------------------------------------------------
//
// Joins per-node /gc and /names documents by (owner node, owner site,
// kind, heap id) and checks the conservation invariant of the
// credit-based GC (DESIGN.md §GC invariants): for every export entry,
//
//   minted = returned + released_applied + Σ held + lag + in-flight
//
// where `held` sums remote netref balances plus name-service credit,
// and `lag` is Σ max(0, declared_releaser_cum - applied_slot) — credit a
// releaser has cumulatively RELed that the owner has not yet applied (a
// dropped REL, healed by gc_resend_ms). On a settled fleet — no node
// running and no frame queued in any transport (/gc "running",
// "in_flight") — in-flight is zero, so residual = outstanding - held -
// lag must be zero too; while frames may be in flight a positive
// residual is unverifiable, not a leak.

/// One out-of-balance export entry, worst first in AuditReport.
struct AuditOffender {
  std::uint32_t owner_node = 0, owner_site = 0;
  int kind = 0;                  // 0 chan, 1 class
  std::uint64_t heap_id = 0;
  std::string ns_name;           // "site/name" when NS-bound, else ""
  std::uint64_t minted = 0, outstanding = 0, held = 0, lag = 0;
  std::int64_t residual = 0;     // outstanding - held - lag
  double age_ms = 0;             // since the entry's ledger last moved
  std::uint64_t trace = 0;       // trace id of the minting operation
  std::string why;               // "rel_lost" | "leak" | "over_release"
};

struct AuditReport {
  bool balanced = true;      // no confirmed anomaly of any class
  bool verifiable = true;    // every referenced node was scraped, fresh
  std::size_t nodes = 0;     // /gc documents joined
  std::size_t sites = 0;     // site snapshots joined (stale ones excluded)
  std::size_t entries = 0;   // export entries audited
  std::uint64_t outstanding = 0, held = 0, lag = 0;
  std::vector<AuditOffender> offenders;
  /// Imports holding credit for an export the (scraped) owner no longer
  /// has — over-released or corrupted ledgers.
  std::vector<std::string> orphan_imports;
  /// Name-service credit for an export the (scraped) owner no longer
  /// has, or an NS ledger that disagrees with the origin's export table.
  std::vector<std::string> ns_mismatches;
  /// Expected-but-missing node ids, plus stale site snapshots; anything
  /// here clears `verifiable`.
  std::vector<std::string> gaps;
  std::string to_json() const;
  std::string to_text() const;
};

/// Audit parsed /gc and /names documents. `expected_nodes` lists every
/// node id the fleet should contain (discovery view); nodes referenced
/// by any ledger but absent from the scrape make the report
/// unverifiable rather than imbalanced. Anomalies that depend only on
/// scraped data (REL lag, over-release, orphans) are confirmed
/// regardless of gaps.
AuditReport audit(const std::vector<Json>& gc_docs,
                  const std::vector<Json>& names_docs,
                  const std::vector<std::uint32_t>& expected_nodes = {});

}  // namespace dityco::obs::fleet
