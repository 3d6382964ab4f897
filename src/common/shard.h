// User → shard ownership hash for the sharded serving layer (DESIGN.md §14).
//
// Every layer that partitions per-user state — the router, the engine's DML
// ownership filter, and the executors' serving filter — must agree on the
// owner of a user id, so the mapping lives here and nowhere else. The hash
// is a splitmix64-style finalizer: raw external ids are often dense and
// sequential, and `id % shards` would put every load-ordered run of users on
// the same shard; mixing first keeps the partition uniform for any id
// distribution while staying deterministic across processes and platforms.
#pragma once

#include <cstdint>

namespace recdb {

/// Hard cap on the shard count: ShardedRecDBOptions::num_shards and the
/// engine's shard_count option it sets. Exists so option validation can
/// reject nonsense with a clear error instead of clamping silently.
constexpr uint32_t kMaxShardCount = 64;

/// splitmix64 finalizer (Steele et al.) — avalanche-mixes all 64 bits.
inline uint64_t MixUserId(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// The shard that owns `user_id` (and all of its per-user state) when the
/// key space is partitioned `shard_count` ways.
inline uint32_t ShardOfUser(int64_t user_id, uint32_t shard_count) {
  if (shard_count <= 1) return 0;
  return static_cast<uint32_t>(MixUserId(static_cast<uint64_t>(user_id)) %
                               shard_count);
}

}  // namespace recdb
