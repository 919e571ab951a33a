// Deterministic open-addressing hash map over a dense entry array.
//
// std::unordered_map on the allocator hot path costs one heap allocation
// per node and an implementation-defined (libstdc++- and seed-dependent)
// iteration order — the latter is exactly what the determinism lint's
// `unordered-iter` rule exists to catch. FlatMap replaces it with
//
//  * a dense `std::vector<Entry>` holding the entries in **insertion
//    order** (iteration is deterministic by construction: it depends only
//    on the call sequence, never on hash values or load factors), and
//  * a power-of-two linear-probing slot index (load factor <= 1/2, cached
//    per-entry hashes) that makes find/insert O(1) with contiguous probes.
//    Each hash goes through the splitmix64 finalizer first: libstdc++'s
//    std::hash of an integer is the identity, and `hash & mask` would put
//    a run of consecutive keys (sequence numbers, dense account ids) into
//    one probe cluster that every absent-key lookup landing in it walks.
//
// Copying a FlatMap is three vector copies (memcpy for trivially copyable
// K/V).
// Erase is swap-with-last on the dense array plus backward-shift deletion
// in the slot index, so the container never tombstones; note that erase
// therefore *permutes* iteration order deterministically (the last entry
// takes the erased slot), which every user of this map tolerates by
// construction (they either never erase, or never iterate, or sort).
//
// The surface mimics std::unordered_map (find/emplace/erase/operator[]/
// count/begin/end) so swapping a hot-path map is a type change, not a
// rewrite.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace txallo::common {

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class FlatMap {
 public:
  struct Entry {
    Key first;
    Value second;
  };
  using iterator = Entry*;
  using const_iterator = const Entry*;

  FlatMap() = default;

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  iterator begin() { return entries_.data(); }
  iterator end() { return entries_.data() + entries_.size(); }
  const_iterator begin() const { return entries_.data(); }
  const_iterator end() const { return entries_.data() + entries_.size(); }

  void clear() {
    entries_.clear();
    hashes_.clear();
    slots_.clear();
  }

  /// Pre-sizes for `n` entries (one rehash now instead of log n later).
  void reserve(size_t n) {
    entries_.reserve(n);
    hashes_.reserve(n);
    if (n * 2 > slots_.size()) Rehash(SlotCountFor(n));
  }

  const_iterator find(const Key& key) const {
    const size_t slot = FindSlot(key, HashOf(key));
    if (slot == kNoSlot || slots_[slot] == kEmpty) return end();
    return &entries_[slots_[slot]];
  }
  iterator find(const Key& key) {
    const size_t slot = FindSlot(key, HashOf(key));
    if (slot == kNoSlot || slots_[slot] == kEmpty) return end();
    return &entries_[slots_[slot]];
  }

  size_t count(const Key& key) const { return find(key) == end() ? 0 : 1; }
  bool contains(const Key& key) const { return find(key) != end(); }

  /// Inserts (key, value) when absent; returns {entry, inserted}.
  template <typename K, typename V>
  std::pair<iterator, bool> emplace(K&& key, V&& value) {
    GrowIfNeeded();
    const size_t hash = HashOf(key);
    const size_t slot = FindSlot(key, hash);
    if (slots_[slot] != kEmpty) return {&entries_[slots_[slot]], false};
    slots_[slot] = static_cast<uint32_t>(entries_.size());
    entries_.push_back(Entry{Key(std::forward<K>(key)),
                             Value(std::forward<V>(value))});
    hashes_.push_back(hash);
    return {&entries_.back(), true};
  }

  Value& operator[](const Key& key) {
    return emplace(key, Value{}).first->second;
  }

  /// Erases by key; returns the number of entries removed (0 or 1).
  size_t erase(const Key& key) {
    const size_t slot = FindSlot(key, HashOf(key));
    if (slot == kNoSlot || slots_[slot] == kEmpty) return 0;
    EraseSlot(slot);
    return 1;
  }

  /// Erases by iterator (must point into this map).
  void erase(const_iterator it) {
    assert(it >= begin() && it < end());
    const size_t index = static_cast<size_t>(it - begin());
    const size_t slot = FindSlot(entries_[index].first, hashes_[index]);
    assert(slot != kNoSlot && slots_[slot] != kEmpty);
    EraseSlot(slot);
  }

  /// Bytes a copy of this map duplicates (entry array + hash cache + slot
  /// index).
  size_t MemoryBytes() const {
    return entries_.size() * sizeof(Entry) +
           hashes_.size() * sizeof(size_t) +
           slots_.size() * sizeof(uint32_t);
  }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;
  static constexpr size_t kNoSlot = SIZE_MAX;

  // The cached hash: Hash{} through the splitmix64 finalizer.
  static size_t HashOf(const Key& key) {
    uint64_t x = Hash{}(key);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<size_t>(x ^ (x >> 31));
  }

  static size_t SlotCountFor(size_t n) {
    size_t cap = 16;
    while (cap < n * 2) cap *= 2;
    return cap;
  }

  // The slot holding `key`, or the empty slot where it would insert.
  // kNoSlot when the table has no slots yet.
  size_t FindSlot(const Key& key, size_t hash) const {
    if (slots_.empty()) return kNoSlot;
    const size_t mask = slots_.size() - 1;
    size_t slot = hash & mask;
    while (true) {
      const uint32_t index = slots_[slot];
      if (index == kEmpty) return slot;
      if (hashes_[index] == hash && entries_[index].first == key) return slot;
      slot = (slot + 1) & mask;
    }
  }

  void GrowIfNeeded() {
    if ((entries_.size() + 1) * 2 > slots_.size()) {
      Rehash(SlotCountFor(entries_.size() + 1));
    }
  }

  void Rehash(size_t slot_count) {
    slots_.assign(slot_count, kEmpty);
    const size_t mask = slot_count - 1;
    for (size_t i = 0; i < entries_.size(); ++i) {
      size_t slot = hashes_[i] & mask;
      while (slots_[slot] != kEmpty) slot = (slot + 1) & mask;
      slots_[slot] = static_cast<uint32_t>(i);
    }
  }

  void EraseSlot(size_t slot) {
    const size_t index = slots_[slot];
    const size_t last = entries_.size() - 1;
    if (index != last) {
      // Swap-remove on the dense array; repoint the moved entry's slot.
      size_t moved_slot = FindSlot(entries_[last].first, hashes_[last]);
      entries_[index] = std::move(entries_[last]);
      hashes_[index] = hashes_[last];
      slots_[moved_slot] = static_cast<uint32_t>(index);
    }
    entries_.pop_back();
    hashes_.pop_back();

    // Backward-shift deletion keeps probe chains contiguous without
    // tombstones: pull every displaced follower toward the hole.
    const size_t mask = slots_.size() - 1;
    size_t hole = slot;
    size_t pos = slot;
    while (true) {
      pos = (pos + 1) & mask;
      const uint32_t follower = slots_[pos];
      if (follower == kEmpty) break;
      const size_t ideal = hashes_[follower] & mask;
      if (((pos - ideal) & mask) >= ((pos - hole) & mask)) {
        slots_[hole] = follower;
        hole = pos;
      }
    }
    slots_[hole] = kEmpty;
  }

  std::vector<Entry> entries_;  // Insertion order; iteration order.
  std::vector<size_t> hashes_;  // Cached HashOf(entries_[i].first).
  std::vector<uint32_t> slots_;  // Power-of-two linear-probing index.
};

}  // namespace txallo::common
