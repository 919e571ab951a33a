#include "txallo/common/sha256.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "txallo/common/rng.h"

namespace txallo {
namespace {

// NIST FIPS 180-4 test vectors.
TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(DigestToHex(Sha256::Hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(DigestToHex(Sha256::Hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(DigestToHex(Sha256::Hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  std::string a_million(1'000'000, 'a');
  EXPECT_EQ(DigestToHex(Sha256::Hash(a_million)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

// Known answers around the padding boundaries: a 55-byte message is the
// longest whose 0x80 and length fit in its own block; 56..63 spill the
// length into a second block; 64 and 119/120 repeat that one block later.
// Expected values from Python's hashlib.sha256(b"a" * n).
TEST(Sha256Test, PaddingBoundaries) {
  const std::pair<size_t, const char*> kCases[] = {
      {55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"},
      {56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"},
      {63, "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34"},
      {64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"},
      {119,
       "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb"},
      {120,
       "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c"},
  };
  for (const auto& [n, hex] : kCases) {
    EXPECT_EQ(DigestToHex(Sha256::Hash(std::string(n, 'a'))), hex)
        << n << " bytes";
  }
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const std::string msg =
      "the quick brown fox jumps over the lazy dog multiple times to span "
      "several SHA-256 blocks and exercise the buffered update path";
  Sha256 h;
  for (char c : msg) h.Update(&c, 1);
  EXPECT_EQ(DigestToHex(h.Finish()), DigestToHex(Sha256::Hash(msg)));
}

TEST(Sha256Test, ChunkedUpdateAcrossBlockBoundary) {
  std::string msg(200, 'x');
  Sha256 h;
  h.Update(msg.data(), 63);
  h.Update(msg.data() + 63, 2);  // Straddles the 64-byte boundary.
  h.Update(msg.data() + 65, msg.size() - 65);
  EXPECT_EQ(DigestToHex(h.Finish()), DigestToHex(Sha256::Hash(msg)));
}

TEST(Sha256Test, Hash64IsDigestPrefix) {
  Sha256Digest d = Sha256::Hash("abc");
  uint64_t expected = 0;
  for (int i = 0; i < 8; ++i) expected = (expected << 8) | d[i];
  EXPECT_EQ(Sha256::Hash64("abc"), expected);
}

TEST(Sha256Test, Hash64OverUint64IsStable) {
  // Regression pin: deterministic ordering keys must never change across
  // refactors, or every "deterministic" allocation changes with them.
  EXPECT_EQ(Sha256::Hash64(uint64_t{0}), Sha256::Hash64(uint64_t{0}));
  EXPECT_NE(Sha256::Hash64(uint64_t{0}), Sha256::Hash64(uint64_t{1}));
  // hashlib.sha256(bytes(8)) and hashlib.sha256(b"acct-0"), first 8 bytes.
  EXPECT_EQ(Sha256::Hash64(uint64_t{0}), 0xaf5570f5a1810b7aULL);
  EXPECT_EQ(Sha256::Hash64("acct-0"), 0xec6c60ceeae2f01fULL);
}

// The portable block function and the dispatched one (SHA-NI where this
// CPU has it; the portable one again where it does not, so nothing here is
// skipped on any host).
std::vector<std::pair<const char*, Sha256BlockFunction>> BlockFunctions() {
  return {{"portable", &Sha256PortableBlocks},
          {"dispatched", Sha256DispatchedBlocks()}};
}

Sha256Digest HashWith(Sha256BlockFunction blocks, std::string_view data) {
  Sha256 h(blocks);
  h.Update(data.data(), data.size());
  return h.Finish();
}

TEST(Sha256Test, BothBlockFunctionsMatchTheKnownAnswers) {
  const std::pair<std::string, const char*> kCases[] = {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc",
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {std::string(1'000'000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
      {std::string(55, 'a'),
       "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"},
      {std::string(56, 'a'),
       "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"},
      {std::string(63, 'a'),
       "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34"},
      {std::string(64, 'a'),
       "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"},
      {std::string(119, 'a'),
       "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb"},
      {std::string(120, 'a'),
       "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c"},
  };
  for (const auto& [name, blocks] : BlockFunctions()) {
    SCOPED_TRACE(name);
    for (const auto& [message, hex] : kCases) {
      EXPECT_EQ(DigestToHex(HashWith(blocks, message)), hex)
          << message.size() << " bytes";
    }
  }
}

TEST(Sha256Test, DispatchedMatchesPortableOnRandomMessages) {
  Rng rng(2024);
  std::string message;
  for (int i = 0; i < 10'000; ++i) {
    message.resize(rng.NextBounded(301));  // 0 .. 300 bytes.
    for (char& c : message) c = static_cast<char>(rng.NextBounded(256));
    const Sha256Digest portable = HashWith(&Sha256PortableBlocks, message);
    ASSERT_EQ(HashWith(Sha256DispatchedBlocks(), message), portable)
        << message.size() << " bytes, message " << i;
    // Split updates take the buffered and the multi-block paths.
    const size_t split = rng.NextBounded(message.size() + 1);
    Sha256 h;
    h.Update(message.data(), split);
    h.Update(message.data() + split, message.size() - split);
    ASSERT_EQ(h.Finish(), portable) << "split at " << split;
    // Hash64's one-block shortcut (<= 55 bytes) and its general path.
    uint64_t prefix = 0;
    for (int b = 0; b < 8; ++b) prefix = (prefix << 8) | portable[b];
    ASSERT_EQ(Sha256::Hash64(message), prefix) << message.size() << " bytes";
  }
}

TEST(Sha256Test, ResetAllowsReuse) {
  Sha256 h;
  h.Update("abc", 3);
  (void)h.Finish();
  h.Reset();
  h.Update("abc", 3);
  EXPECT_EQ(DigestToHex(h.Finish()), DigestToHex(Sha256::Hash("abc")));
}

TEST(Sha256Test, BucketsSpreadRoughlyUniformly) {
  // SHA256(address) mod k should spread accounts near-uniformly: the whole
  // premise of the hash-based baseline.
  constexpr int kShards = 16;
  constexpr int kAccounts = 16'000;
  int counts[kShards] = {0};
  for (int i = 0; i < kAccounts; ++i) {
    ++counts[Sha256::Hash64("acct-" + std::to_string(i)) % kShards];
  }
  for (int s = 0; s < kShards; ++s) {
    EXPECT_GT(counts[s], kAccounts / kShards / 2);
    EXPECT_LT(counts[s], kAccounts / kShards * 2);
  }
}

}  // namespace
}  // namespace txallo
