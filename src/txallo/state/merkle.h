// Incremental Merkle trie over 32-bit account ids (txallo::state).
//
// Shape follows speedex's trie/merkle_trie.h in spirit, sized for this
// repository: a fixed-depth 16-ary trie — 8 nibbles of the key, most
// significant first — whose leaves hold caller-supplied digests (the shard
// DB hashes (account, balance, sequence)). Interior hashes cover a child
// bitmap plus the present children's digests in index order, so the root is
// a pure function of the key->digest mapping: insertion order, thread
// count and hash-table seeds cannot perturb it.
//
// Updates mark only the root-to-leaf path dirty; Root() rehashes dirty
// nodes lazily. A root read after m of n keys changed therefore costs
// O(m · depth) hashes, not O(n). The shard DB goes one step further and
// defers the Update/Remove calls themselves (and the leaf digests) to the
// root read, so commits between two reads cost no hashing at all.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "txallo/common/sha256.h"

namespace txallo::state {

class MerkleTrie {
 public:
  MerkleTrie();

  /// Inserts or overwrites the digest at `key`.
  void Update(uint32_t key, const Sha256Digest& leaf);

  /// Removes `key`; returns false when absent.
  bool Remove(uint32_t key);

  /// Root digest over the current mapping. All-zero when empty. Recomputes
  /// only paths dirtied since the last call.
  const Sha256Digest& Root();

  /// Number of keys present.
  size_t size() const { return size_; }

 private:
  static constexpr int kFanout = 16;
  static constexpr int kDepth = 8;  // 32-bit keys, 4 bits per level.

  struct Node {
    std::array<std::unique_ptr<Node>, kFanout> children;
    Sha256Digest hash{};
    bool dirty = true;
  };

  static uint32_t NibbleAt(uint32_t key, int depth) {
    return (key >> (4 * (kDepth - 1 - depth))) & 0xF;
  }
  // Returns true when the subtree became empty and should be pruned.
  bool RemoveRec(Node* node, uint32_t key, int depth, bool* removed);
  void Rehash(Node* node);

  std::unique_ptr<Node> root_;
  Sha256Digest empty_root_{};
  size_t size_ = 0;
};

}  // namespace txallo::state
