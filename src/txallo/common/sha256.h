// From-scratch SHA-256 (FIPS 180-4). Used for two things in this repository:
//  1. the hash-based baseline allocation (SHA256(address) mod k, as in
//     Chainspace / Monoxide, paper §II-C), and
//  2. the deterministic node iteration order of G-/A-TxAllo (paper §V-B:
//     "The hash value of the accounts can determine the order of node
//     sequence in real-world applications").
//
// The block function is chosen once per process: on x86-64 CPUs with the
// SHA extensions (SHA-NI, checked with __builtin_cpu_supports) it runs on
// the SHA256RNDS2/MSG1/MSG2 instructions; everywhere else, and on builds for
// other architectures, it is the portable FIPS 180-4 loop. Both produce the
// same digests (tests/common/sha256_test.cc runs them side by side).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace txallo {

/// A 256-bit digest.
using Sha256Digest = std::array<uint8_t, 32>;

/// Compresses `count` consecutive 64-byte blocks into `state`.
using Sha256BlockFunction = void (*)(uint32_t state[8], const uint8_t* blocks,
                                     size_t count);

/// The portable block function, for every CPU.
void Sha256PortableBlocks(uint32_t state[8], const uint8_t* blocks,
                          size_t count);

/// The block function Sha256 uses by default: SHA-NI when this CPU has it,
/// the portable one otherwise.
Sha256BlockFunction Sha256DispatchedBlocks();

/// Incremental SHA-256 hasher.
///
/// Usage:
///   Sha256 h;
///   h.Update(data, len);
///   Sha256Digest d = h.Finish();
class Sha256 {
 public:
  explicit Sha256(Sha256BlockFunction blocks = Sha256DispatchedBlocks())
      : blocks_(blocks) {
    Reset();
  }

  /// Re-initializes the hasher to the empty-message state.
  void Reset();

  /// Absorbs `len` bytes at `data`.
  void Update(const void* data, size_t len);

  /// Finalizes and returns the digest. The hasher must be Reset() before
  /// further use.
  Sha256Digest Finish();

  /// One-shot convenience over a byte string.
  static Sha256Digest Hash(std::string_view data);

  /// First 8 bytes of SHA256(data) as a big-endian uint64. Convenient for
  /// "mod k" style bucket assignment and deterministic ordering keys.
  static uint64_t Hash64(std::string_view data);

  /// Hash64 over the little-endian byte representation of a uint64 key.
  static uint64_t Hash64(uint64_t key);

 private:
  Sha256BlockFunction blocks_;
  uint32_t state_[8];
  uint64_t bit_count_;
  uint8_t buffer_[64];
  size_t buffer_len_;
};

/// Lowercase hex encoding of a digest.
std::string DigestToHex(const Sha256Digest& digest);

}  // namespace txallo
