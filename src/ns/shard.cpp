#include "ns/shard.hpp"

namespace dityco::ns {

namespace {

/// splitmix64 finalizer: decorrelates (key, node) pairs so HRW weights
/// are independent per node.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

ShardRouter::ShardRouter(std::uint32_t shards, std::uint32_t replicas)
    : shards_(shards == 0 ? 1 : shards), replicas_(replicas) {}

std::uint64_t ShardRouter::key_hash(const std::string& site,
                                    const std::string& name) {
  // FNV-1a over "site\0name": stable across processes and runs (never
  // std::hash, whose value is implementation-defined).
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto feed = [&h](const std::string& s) {
    for (const unsigned char c : s) {
      h ^= c;
      h *= 0x100000001b3ull;
    }
    h ^= 0;
    h *= 0x100000001b3ull;
  };
  feed(site);
  feed(name);
  return h;
}

ShardRouter::Owners ShardRouter::owners_locked(std::uint64_t h) const {
  Owners out;
  std::uint64_t best_w = 0, second_w = 0;
  for (std::uint32_t node = 0; node < shards_; ++node) {
    if (dead_.count(node) != 0) continue;
    const std::uint64_t w = mix(h ^ mix(node));
    if (out.primary == kNoNode || w > best_w) {
      second_w = best_w;
      out.replica = out.primary;
      best_w = w;
      out.primary = node;
    } else if (out.replica == kNoNode || w > second_w) {
      second_w = w;
      out.replica = node;
    }
  }
  if (replicas_ == 0) out.replica = kNoNode;
  return out;
}

ShardRouter::Owners ShardRouter::owners_of(const std::string& site,
                                           const std::string& name) const {
  const std::uint64_t h = key_hash(site, name);
  std::lock_guard<std::mutex> lk(mu_);
  return owners_locked(h);
}

std::uint32_t ShardRouter::primary_of(const std::string& site,
                                      const std::string& name) const {
  return owners_of(site, name).primary;
}

std::uint32_t ShardRouter::replica_of(const std::string& site,
                                      const std::string& name) const {
  return owners_of(site, name).replica;
}

bool ShardRouter::note_dead(std::uint32_t node) {
  std::lock_guard<std::mutex> lk(mu_);
  if (!dead_.insert(node).second) return false;
  ++generation_;
  return true;
}

bool ShardRouter::merge_dead(const std::vector<std::uint32_t>& nodes) {
  std::lock_guard<std::mutex> lk(mu_);
  bool changed = false;
  for (const std::uint32_t n : nodes)
    if (dead_.insert(n).second) changed = true;
  if (changed) ++generation_;
  return changed;
}

void ShardRouter::grow(std::uint32_t shards) {
  std::lock_guard<std::mutex> lk(mu_);
  if (shards > shards_) shards_ = shards;
}

std::uint32_t ShardRouter::shards() const {
  std::lock_guard<std::mutex> lk(mu_);
  return shards_;
}

bool ShardRouter::is_dead(std::uint32_t node) const {
  std::lock_guard<std::mutex> lk(mu_);
  return dead_.count(node) != 0;
}

std::uint32_t ShardRouter::epoch() const {
  std::lock_guard<std::mutex> lk(mu_);
  return static_cast<std::uint32_t>(dead_.size());
}

std::uint64_t ShardRouter::generation() const {
  std::lock_guard<std::mutex> lk(mu_);
  return generation_;
}

std::vector<std::uint32_t> ShardRouter::dead() const {
  std::lock_guard<std::mutex> lk(mu_);
  return std::vector<std::uint32_t>(dead_.begin(), dead_.end());
}

}  // namespace dityco::ns
