// Copyright (c) the XKeyword authors.
//
// Cache-conscious hash table for joins: flat open addressing (linear probe,
// power-of-two slot array) with precomputed 64-bit hashes, keys packed into
// one flat ObjectId arena, and duplicate rows chained through a node arena in
// insertion order. Replaces unordered_map<Tuple, vector<RowId>> — no
// pointer-chased buckets, no per-key vector allocation, and probing a missing
// key touches at most a handful of contiguous slots.

#ifndef XK_EXEC_JOIN_HASH_TABLE_H_
#define XK_EXEC_JOIN_HASH_TABLE_H_

#include <cstdint>
#include <vector>

#include "storage/tuple.h"

namespace xk::exec {

/// The join-key hash: storage::HashIds (FNV-1a 64) over the key's ids, then
/// the SplitMix64 finalizer — the power-of-two slot mask uses only low bits,
/// and sequential ids need the avalanche.
uint64_t JoinKeyHash(storage::TupleView key);

class JoinHashTable {
 public:
  /// End-of-chain / not-found sentinel for node handles.
  static constexpr uint32_t kNil = UINT32_MAX;

  /// `key_width` is the number of ObjectIds per key (>= 1).
  explicit JoinHashTable(int key_width);

  /// Pre-sizes the slot array and arenas for `expected_rows` insertions so
  /// the build loop never rehashes mid-stream.
  void Reserve(size_t expected_rows);

  /// Appends `row` under `key` (key_width ids). Duplicate keys chain in
  /// insertion order, so per-key match enumeration is deterministic.
  void Insert(const storage::ObjectId* key, uint32_t row);

  /// Head of the match chain for `key`, or kNil. Never allocates.
  uint32_t Lookup(const storage::ObjectId* key) const;

  /// Chain walking: the build row of a node, and the next node (kNil at end).
  uint32_t MatchRow(uint32_t node) const { return node_row_[node]; }
  uint32_t NextMatch(uint32_t node) const { return node_next_[node]; }

  size_t num_keys() const { return num_keys_; }
  size_t num_rows() const { return node_row_.size(); }
  size_t MemoryBytes() const;

 private:
  uint64_t HashKey(const storage::ObjectId* key) const {
    return JoinKeyHash(
        storage::TupleView(key, static_cast<size_t>(key_width_)));
  }
  bool KeyEquals(uint64_t slot, const storage::ObjectId* key) const;
  void Rehash(size_t new_slot_count);

  int key_width_;
  uint64_t mask_ = 0;  // slot count - 1
  size_t num_keys_ = 0;
  // Slots, struct-of-arrays; slot_head_[i] == kNil marks an empty slot.
  std::vector<uint64_t> slot_hash_;
  std::vector<uint32_t> slot_head_;
  std::vector<uint32_t> slot_tail_;
  std::vector<uint32_t> slot_keypos_;  // key start / key_width in keys_
  std::vector<storage::ObjectId> keys_;  // key_width_ ids per distinct key
  // Duplicate-row chain nodes, struct-of-arrays.
  std::vector<uint32_t> node_row_;
  std::vector<uint32_t> node_next_;
};

}  // namespace xk::exec

#endif  // XK_EXEC_JOIN_HASH_TABLE_H_
