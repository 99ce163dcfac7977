#include "exec/join_hash_table.h"

#include "common/logging.h"

namespace xk::exec {

uint64_t JoinKeyHash(storage::TupleView key) {
  uint64_t h = storage::HashIds(key);
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

JoinHashTable::JoinHashTable(int key_width) : key_width_(key_width) {
  XK_CHECK_GE(key_width_, 1);
  slot_hash_.assign(16, 0);
  slot_head_.assign(16, kNil);
  slot_tail_.assign(16, kNil);
  slot_keypos_.assign(16, 0);
  mask_ = 15;
}

bool JoinHashTable::KeyEquals(uint64_t slot,
                              const storage::ObjectId* key) const {
  const storage::ObjectId* stored =
      keys_.data() + static_cast<size_t>(slot_keypos_[slot]) * key_width_;
  for (int i = 0; i < key_width_; ++i) {
    if (stored[i] != key[i]) return false;
  }
  return true;
}

void JoinHashTable::Reserve(size_t expected_rows) {
  node_row_.reserve(expected_rows);
  node_next_.reserve(expected_rows);
  keys_.reserve(expected_rows * static_cast<size_t>(key_width_));
  size_t want = 16;
  // Slots for the worst case of all-distinct keys at < 0.7 load.
  while (want * 7 < expected_rows * 10) want <<= 1;
  if (want > slot_hash_.size()) Rehash(want);
}

void JoinHashTable::Rehash(size_t new_slot_count) {
  std::vector<uint64_t> old_hash = std::move(slot_hash_);
  std::vector<uint32_t> old_head = std::move(slot_head_);
  std::vector<uint32_t> old_tail = std::move(slot_tail_);
  std::vector<uint32_t> old_keypos = std::move(slot_keypos_);
  slot_hash_.assign(new_slot_count, 0);
  slot_head_.assign(new_slot_count, kNil);
  slot_tail_.assign(new_slot_count, kNil);
  slot_keypos_.assign(new_slot_count, 0);
  mask_ = new_slot_count - 1;
  for (size_t s = 0; s < old_head.size(); ++s) {
    if (old_head[s] == kNil) continue;
    uint64_t i = old_hash[s] & mask_;
    while (slot_head_[i] != kNil) i = (i + 1) & mask_;
    slot_hash_[i] = old_hash[s];
    slot_head_[i] = old_head[s];
    slot_tail_[i] = old_tail[s];
    slot_keypos_[i] = old_keypos[s];
  }
}

void JoinHashTable::Insert(const storage::ObjectId* key, uint32_t row) {
  if ((num_keys_ + 1) * 10 >= slot_hash_.size() * 7) {
    Rehash(slot_hash_.size() * 2);
  }
  const uint64_t hash = HashKey(key);
  uint64_t i = hash & mask_;
  while (true) {
    if (slot_head_[i] == kNil) {
      slot_hash_[i] = hash;
      slot_keypos_[i] = static_cast<uint32_t>(num_keys_);
      keys_.insert(keys_.end(), key, key + key_width_);
      const uint32_t node = static_cast<uint32_t>(node_row_.size());
      slot_head_[i] = slot_tail_[i] = node;
      node_row_.push_back(row);
      node_next_.push_back(kNil);
      ++num_keys_;
      return;
    }
    if (slot_hash_[i] == hash && KeyEquals(i, key)) {
      const uint32_t node = static_cast<uint32_t>(node_row_.size());
      node_row_.push_back(row);
      node_next_.push_back(kNil);
      node_next_[slot_tail_[i]] = node;
      slot_tail_[i] = node;
      return;
    }
    i = (i + 1) & mask_;
  }
}

uint32_t JoinHashTable::Lookup(const storage::ObjectId* key) const {
  const uint64_t hash = HashKey(key);
  uint64_t i = hash & mask_;
  while (true) {
    if (slot_head_[i] == kNil) return kNil;
    if (slot_hash_[i] == hash && KeyEquals(i, key)) return slot_head_[i];
    i = (i + 1) & mask_;
  }
}

size_t JoinHashTable::MemoryBytes() const {
  return slot_hash_.capacity() * sizeof(uint64_t) +
         (slot_head_.capacity() + slot_tail_.capacity() +
          slot_keypos_.capacity()) *
             sizeof(uint32_t) +
         keys_.capacity() * sizeof(storage::ObjectId) +
         (node_row_.capacity() + node_next_.capacity()) * sizeof(uint32_t);
}

}  // namespace xk::exec
