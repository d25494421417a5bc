// The Network Name Service (paper, section 5 "NETWORKS").
//
// Two tables, exactly as in the paper:
//   SiteTable: SiteName -> (SiteId, IpAddress)         [here: (node, site)]
//   IdTable:   SiteName x IdName -> HeapId             [plus kind + type]
// The service is reachable only through daemon packets. Every node's
// TyCOd hosts one instance, a *slice*: the shard map (ns/shard.hpp)
// decides which slice owns each IdTable key, and every slice's SiteTable
// lists every site. With one shard (the default) node 0's slice owns
// every key: the paper's centralised service. More shards are the
// distribution the paper lists as future work (docs/NAMESERVICE.md).
//
// Imports of identifiers that have not been exported yet are *parked*
// here and answered as soon as the export arrives — this is what makes
// `import` a blocking construct without busy-waiting.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "support/bytes.hpp"
#include "vm/value.hpp"

namespace dityco::core {

class NameService {
 public:
  struct SiteInfo {
    std::uint32_t node = 0;
    std::uint32_t site = 0;
  };

  // SoloCounter: the service runs on one thread (a node daemon or the
  // sequential driver) but TyCOmon scrapes these live from its own.
  struct Stats {
    obs::SoloCounter exports;
    obs::SoloCounter lookups;
    obs::SoloCounter replies;
    obs::SoloCounter parked_total;
    obs::SoloCounter unregisters;  // IdTable bindings dropped
    obs::SoloCounter releases;     // REL frames sent for held credit
    obs::SoloCounter credit_moves; // CREDIT-MOVED notices sent to owners
    obs::SoloCounter evictions;    // entries dropped for dead nodes
    obs::SoloCounter invalidations; // NS-INVALIDATE frames pushed to leasers
  };

  explicit NameService(std::uint32_t home_node = 0) : home_node_(home_node) {}

  std::uint32_t home_node() const { return home_node_; }

  // -- SiteTable (populated at site creation; "all sites know its
  //    location in advance") --
  void register_site(const std::string& name, std::uint32_t node,
                     std::uint32_t site);
  std::optional<SiteInfo> lookup_site(const std::string& name) const;

  // -- IdTable, via packets --

  /// Handle a kNsExport payload (Reader positioned after the header).
  /// Replies triggered by this export carry the *waiter's* lookup trace
  /// id (and its sampling decision), not the export's. With
  /// `keep_credit` false (a follower's copy of a shard primary's entry)
  /// the carried credit is ignored — the primary holds those units.
  void handle_export(Reader& r, std::vector<net::Packet>& replies,
                     bool keep_credit = true);
  /// Handle a kNsLookup payload; replies immediately if the identifier is
  /// known, parks the request otherwise. An immediate or deferred reply
  /// carries `trace_id` (with its `sampled` bit), closing the lookup's
  /// causal chain.
  void handle_lookup(Reader& r, std::vector<net::Packet>& replies,
                     std::uint64_t trace_id = 0, bool sampled = true);

  /// Handle a kNsUnregister payload: drop the binding and REL any credit
  /// the service still holds for it back to the owner.
  void handle_unregister(Reader& r, std::vector<net::Packet>& replies);

  /// Direct registration (used by tests and the TyCOsh bootstrap). With
  /// credit > 0 the service becomes a credit holder for the entry;
  /// overwriting a credit-bearing binding releases its balance.
  void register_id(const std::string& site, const std::string& name,
                   const vm::NetRef& ref, const std::string& type_sig,
                   std::vector<net::Packet>& replies,
                   std::uint64_t credit = 0);

  std::optional<vm::NetRef> lookup_id(const std::string& site,
                                      const std::string& name) const;

  std::size_t parked() const;
  /// IdTable size (leak checks: zero after the final GC epoch).
  std::size_t id_count() const { return ids_.size(); }

  /// Failure cleanup: drop every registration owned by a dead node —
  /// its SiteTable rows, IdTable bindings whose referent lived there
  /// (held credit is written off by the owner's survivors, not RELed:
  /// the owner no longer exists to receive one), and parked lookups
  /// from it. With `out` set, lease invalidations for the dropped
  /// bindings are pushed there. Returns entries dropped.
  std::size_t evict_node(std::uint32_t node,
                         std::vector<net::Packet>* out = nullptr);
  const Stats& stats() const { return stats_; }

  /// With lease tracking on, replies record which nodes hold a lease on
  /// each binding, and rebind / unregister / evict push kNsInvalidate
  /// frames to them.
  void set_lease_tracking(bool on) { lease_tracking_ = on; }

  /// Everything a shard primary needs to re-replicate its slice of the
  /// directory after a failover (the copies travel as weak kNsExport
  /// frames — the credit stays on this instance).
  struct HandoffRecord {
    std::string site, name;
    vm::NetRef ref;
    std::string type_sig;
  };
  std::vector<HandoffRecord> handoff_records() const;

  /// Publish this service's counters into `registry` under `ns_*` names,
  /// labelled {ns="<label>"} (the Network uses "shard<node id>").
  void register_metrics(obs::Registry& registry, const std::string& label);

  /// Consistent copy of both tables with ownership and credit — the
  /// name-service half of the audit plane (TyCOmon /names).
  struct Snapshot {
    struct SiteRow {
      std::string name;
      std::uint32_t node = 0, site = 0;
    };
    struct IdRow {
      std::string site, name;
      vm::NetRef ref;
      std::string type_sig;
      std::uint64_t credit = 0;  // GC credit the service holds
      bool gc = false;
      std::size_t waiters = 0;   // parked lookups for this key
    };
    struct Rel {
      vm::NetRef ref;
      std::uint64_t cum = 0;     // service-side cumulative REL ledger
    };
    std::uint32_t home_node = 0;
    std::vector<SiteRow> sites;
    std::vector<IdRow> ids;
    std::vector<Rel> releases;
    std::size_t parked = 0;
  };
  /// Build a fresh snapshot. Owner thread only (the daemon routing NS
  /// packets), or any thread while the network is at rest.
  Snapshot snapshot() const;
  /// Owner thread: publish a snapshot for concurrent readers. Cheap when
  /// nothing changed since the last publish (a dirty counter gates the
  /// rebuild), so the daemon can call it on every idle transition.
  void publish_snapshot();
  /// Last published snapshot (any thread; null until first publish).
  std::shared_ptr<const Snapshot> last_snapshot() const;

  // -- payload builders (used by sites) --
  static std::vector<std::uint8_t> make_export(
      const std::string& site, const std::string& name, const vm::NetRef& ref,
      const std::string& type_sig, std::uint64_t trace_id = 0,
      bool sampled = true, std::uint64_t credit = 0);
  static std::vector<std::uint8_t> make_unregister(const std::string& site,
                                                   const std::string& name);
  static std::vector<std::uint8_t> make_lookup(
      const std::string& site, const std::string& name, vm::NetRef::Kind kind,
      std::uint32_t req_node, std::uint32_t req_site, std::uint64_t token,
      std::uint64_t trace_id = 0, bool sampled = true);

 private:
  struct Entry {
    vm::NetRef ref;
    std::string type_sig;
    std::uint64_t credit = 0;  // GC credit the service holds for the ref
    bool gc = false;           // binding participates in distributed GC
    // Nodes that imported this binding while lease caching was on; the
    // push set for invalidations (cleared once pushed).
    std::vector<std::uint32_t> lease_holders;
  };
  struct Waiter {
    std::uint32_t node = 0;
    std::uint32_t site = 0;
    std::uint64_t token = 0;
    vm::NetRef::Kind kind = vm::NetRef::Kind::kChan;
    std::uint64_t trace_id = 0;  // causal id of the originating lookup
    bool sampled = true;         // its sampling decision, for the reply
  };
  using Key = std::pair<std::string, std::string>;

  void reply_to(const Waiter& w, Entry& e, bool ok,
                std::vector<net::Packet>& replies);
  /// REL the entry's remaining held credit back to its owner.
  void release_entry(const Entry& e, std::vector<net::Packet>& out);
  /// Push kNsInvalidate to every lease holder of `e` and clear the set.
  void push_invalidations(const Key& key, Entry& e,
                          std::vector<net::Packet>& out);

  std::uint32_t home_node_;
  bool lease_tracking_ = false;
  std::map<std::string, SiteInfo> sites_;
  std::map<Key, Entry> ids_;
  std::map<Key, std::vector<Waiter>> waiting_;
  // Cumulative released credit per reference (the service's REL ledger;
  // never pruned — cumulative totals must only grow).
  std::map<vm::NetRef, std::uint64_t> released_cum_;
  Stats stats_;
  // parked() walks waiting_, which races with the daemon; this mirror
  // gauge is what a live scrape reads instead.
  std::atomic<std::int64_t> parked_now_{0};
  obs::Registry::Registration metrics_reg_;
  // Table-mutation count (owner thread) vs. the count at the last
  // publish: publish_snapshot() rebuilds only when they differ.
  std::uint64_t mutations_ = 0;
  std::uint64_t published_mutations_ = ~0ull;
  mutable std::mutex snap_mu_;
  std::shared_ptr<const Snapshot> snap_;
};

}  // namespace dityco::core
