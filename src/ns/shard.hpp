// Shard map for the decentralized name service.
//
// The directory key space — (exporting site, identifier) string pairs —
// is partitioned across the first `shards` node ids by rendezvous
// (highest-random-weight) hashing over the *live* membership: every
// node computes weight(key, node) for each live member and the maximum
// wins. HRW gives the property the failover protocol leans on: when a
// node dies, only the keys it owned move (its primaries promote to
// their old replicas, its replica slots slide to the next weight), and
// no key ever migrates between two surviving nodes.
//
// The membership view is `{0..shards-1}` minus a grow-only dead set, so
// the map is a pure function of the dead set: two nodes with the same
// dead set compute identical owners, and the set (gossiped as an
// additive trailing block on kPeers frames) converges monotonically.
// The epoch is simply the dead-set size. With one shard (the default)
// every key lives on node 0 — the paper's centralised name service.
//
// `note_dead` records a *locally confirmed* death (phi-accrual verdict
// delivered as a kPeerDown frame); `merge_dead` records *advisory*
// deaths learned from gossip. Both update the map — only confirmation
// may additionally drive GC credit write-off, which is the caller's
// business, never this class's.
#pragma once

#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <vector>

namespace dityco::ns {

class ShardRouter {
 public:
  /// Sentinel for "no such owner" (e.g. no live replica candidate).
  static constexpr std::uint32_t kNoNode = 0xffffffffu;

  explicit ShardRouter(std::uint32_t shards, std::uint32_t replicas = 1);

  /// Stable FNV-1a hash of the directory key (site, name).
  static std::uint64_t key_hash(const std::string& site,
                                const std::string& name);

  struct Owners {
    std::uint32_t primary = kNoNode;
    std::uint32_t replica = kNoNode;
  };
  /// Primary and first replica for a key under the current view.
  Owners owners_of(const std::string& site, const std::string& name) const;
  std::uint32_t primary_of(const std::string& site,
                           const std::string& name) const;
  std::uint32_t replica_of(const std::string& site,
                           const std::string& name) const;

  /// Locally confirmed death. Returns true when the node was newly
  /// marked (the map changed; owners must re-replicate).
  bool note_dead(std::uint32_t node);
  /// Advisory deaths from gossip; returns true when any was new. Never
  /// a trigger for credit write-off — only for map convergence.
  bool merge_dead(const std::vector<std::uint32_t>& nodes);

  /// Raise the shard count to `shards` (never lowers it). An in-process
  /// network calls this as it adds nodes, so the map only names nodes
  /// that exist; it must happen before any directory traffic.
  void grow(std::uint32_t shards);

  bool is_dead(std::uint32_t node) const;
  /// Map epoch: the dead-set size (monotone, view-comparable).
  std::uint32_t epoch() const;
  /// Bumped on every map change; pollers compare to skip rework.
  std::uint64_t generation() const;
  std::uint32_t shards() const;
  std::uint32_t replicas() const { return replicas_; }
  std::vector<std::uint32_t> dead() const;

 private:
  Owners owners_locked(std::uint64_t h) const;

  std::uint32_t shards_;
  const std::uint32_t replicas_;
  mutable std::mutex mu_;
  std::set<std::uint32_t> dead_;
  std::uint64_t generation_ = 0;
};

}  // namespace dityco::ns
