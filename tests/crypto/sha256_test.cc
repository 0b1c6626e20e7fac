/** @file SHA-256 known-answer and streaming tests (FIPS 180-4). */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "crypto/bytes.hh"
#include "crypto/sha256.hh"
#include "sim/random.hh"

namespace hypertee
{
namespace
{

std::string
hashHex(const std::string &msg)
{
    return toHex(Sha256::digest(bytesFromString(msg)));
}

TEST(Sha256, EmptyMessage)
{
    EXPECT_EQ(hashHex(""),
              "e3b0c44298fc1c149afbf4c8996fb924"
              "27ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc)
{
    EXPECT_EQ(hashHex("abc"),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage)
{
    EXPECT_EQ(hashHex("abcdbcdecdefdefgefghfghighijhijk"
                      "ijkljklmklmnlmnomnopnopq"),
              "248d6a61d20638b8e5c026930c3e6039"
              "a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs)
{
    Sha256 h;
    Bytes chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i)
        h.update(chunk);
    auto d = h.finish();
    EXPECT_EQ(toHex(d.data(), d.size()),
              "cdc76e5c9914fb9281a1c7e284d73e67"
              "f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingMatchesOneShot)
{
    Bytes msg = bytesFromString("The quick brown fox jumps over the lazy "
                                "dog and keeps going for a while longer");
    Bytes one_shot = Sha256::digest(msg);

    // Feed in awkward chunk sizes that straddle block boundaries.
    for (std::size_t chunk : {1u, 3u, 17u, 63u, 64u, 65u}) {
        Sha256 h;
        std::size_t off = 0;
        while (off < msg.size()) {
            std::size_t n = std::min(chunk, msg.size() - off);
            h.update(msg.data() + off, n);
            off += n;
        }
        auto d = h.finish();
        EXPECT_EQ(Bytes(d.begin(), d.end()), one_shot)
            << "chunk size " << chunk;
    }
}

TEST(Sha256, DistinctMessagesDistinctDigests)
{
    EXPECT_NE(hashHex("message-a"), hashHex("message-b"));
    // A trailing NUL byte must change the digest.
    Bytes with_nul = {'a', '\0'};
    EXPECT_NE(hashHex("a"), toHex(Sha256::digest(with_nul)));
}

TEST(Sha256, LengthPaddingBoundaries)
{
    // Each length exercises a padding path: room for the length in
    // the last block (55), a second padding block (56, 63, 119, 120),
    // an empty tail (0, 64), and an EADD record plus page (4096+16).
    const std::vector<std::pair<std::size_t, std::string>> pinned = {
        {0, "e3b0c44298fc1c149afbf4c8996fb924"
            "27ae41e4649b934ca495991b7852b855"},
        {55, "d5e285683cd4efc02d021a5c62014694"
             "958901005d6f71e89e0989fac77e4072"},
        {56, "04c26261370ee7541549d16dee320c72"
             "3e3fd14671e66a099afe0a377c16888e"},
        {63, "75220b47218278e656f2013bb8f0c455"
             "a25eaf01e86c64924e9d48d89776d6f2"},
        {64, "7ce100971f64e7001e8fe5a51973ecdf"
             "e1ced42befe7ee8d5fd6219506b5393c"},
        {119, "000b48d4edf0fa7bee3c6236ecd2785b"
              "aa5db4eeb8bb54341b029e0d9fa5fb0c"},
        {120, "13f05a0b594787f5ecd315edc96141bd"
              "3243203d1b7d4f0836f37308b276ba98"},
        {4096 + 16, "3bef097b5beb0f471302b1f6803f217c"
                    "0459f9a7dde0221df0fe4c4ef0d04d95"},
    };
    for (const auto &[n, hex] : pinned) {
        Bytes a(n, 'x');
        EXPECT_EQ(toHex(Sha256::digest(a)), hex) << "length " << n;
        if (n == 0)
            continue;
        Bytes b = a;
        b[n - 1] = 'y';
        EXPECT_NE(toHex(Sha256::digest(b)), hex) << "length " << n;
    }

    // The EADD shape: a 16-byte record, then the page, leaving every
    // later block 16 bytes into the caller's buffer.
    Bytes record(16, 'x'), page(4096, 'x');
    Sha256 h;
    h.update(record);
    h.update(page);
    auto d = h.finish();
    EXPECT_EQ(toHex(d.data(), d.size()), pinned.back().second);
}

using sha256_detail::Compressor;

/**
 * Digest of @p msg through one compressor, padded here rather than by
 * Sha256::finish so the compressors are checked on their own.
 */
std::string
compressorHex(Compressor compress, const Bytes &msg)
{
    std::uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                              0xa54ff53a, 0x510e527f, 0x9b05688c,
                              0x1f83d9ab, 0x5be0cd19};
    Bytes padded = msg;
    padded.push_back(0x80);
    while (padded.size() % Sha256::blockSize != Sha256::blockSize - 8)
        padded.push_back(0);
    const std::uint64_t bits = std::uint64_t(msg.size()) * 8;
    for (int i = 7; i >= 0; --i)
        padded.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
    compress(state, padded.data(), padded.size() / Sha256::blockSize);

    Bytes out;
    for (std::uint32_t w : state)
        for (int i = 3; i >= 0; --i)
            out.push_back(static_cast<std::uint8_t>(w >> (8 * i)));
    return toHex(out);
}

/** FIPS 180-4 examples, including the 1,000,000-byte one. */
void
checkFipsVectors(Compressor compress)
{
    EXPECT_EQ(compressorHex(compress, Bytes{}),
              "e3b0c44298fc1c149afbf4c8996fb924"
              "27ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(compressorHex(compress, bytesFromString("abc")),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");
    EXPECT_EQ(compressorHex(compress,
                            bytesFromString("abcdbcdecdefdefgefghfghighij"
                                            "hijkijkljklmklmnlmnomnopnopq")),
              "248d6a61d20638b8e5c026930c3e6039"
              "a33ce45964ff2167f6ecedd419db06c1");
    EXPECT_EQ(compressorHex(compress, Bytes(1000000, 'a')),
              "cdc76e5c9914fb9281a1c7e284d73e67"
              "f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Compressor, PortableFipsVectors)
{
    checkFipsVectors(sha256_detail::compressPortable);
}

TEST(Sha256Compressor, HardwareFipsVectors)
{
    Compressor hw = sha256_detail::hardwareCompressor();
    if (hw == nullptr)
        GTEST_SKIP() << "host has no SHA extensions";
    checkFipsVectors(hw);
}

TEST(Sha256Compressor, HardwareMatchesPortableBlockByBlock)
{
    Compressor hw = sha256_detail::hardwareCompressor();
    if (hw == nullptr)
        GTEST_SKIP() << "host has no SHA extensions";
    Random rng(180);
    for (std::size_t n = 1; n <= 40; ++n) {
        Bytes blocks(n * Sha256::blockSize);
        for (auto &b : blocks)
            b = static_cast<std::uint8_t>(rng.next());
        std::uint32_t a[8], b[8];
        for (int i = 0; i < 8; ++i)
            a[i] = b[i] = static_cast<std::uint32_t>(rng.next());
        sha256_detail::compressPortable(a, blocks.data(), n);
        hw(b, blocks.data(), n);
        EXPECT_EQ(std::memcmp(a, b, sizeof a), 0) << n << " blocks";
    }
}

/** @p len seeded bytes. */
Bytes
randomBytes(Random &rng, std::size_t len)
{
    Bytes out(len);
    for (auto &b : out)
        b = static_cast<std::uint8_t>(rng.next());
    return out;
}

TEST(Sha256, StreamedMatchesOneShotAndPortable)
{
    // Seeded lengths up to 9000 bytes, each hashed from an unaligned
    // address (offsets 1-15) and streamed in seeded chunk sizes: the
    // streamed digest must equal the one-shot digest, and both the
    // digest the portable compressor gives.
    Random rng(4231);
    for (int i = 0; i < 2000; ++i) {
        const std::size_t len = rng.below(9001);
        const std::size_t off = 1 + static_cast<std::size_t>(i) % 15;
        Bytes buf = randomBytes(rng, off + len);
        const std::uint8_t *msg = buf.data() + off;

        Bytes one_shot = Sha256::digest(msg, len);
        ASSERT_EQ(toHex(one_shot),
                  compressorHex(sha256_detail::compressPortable,
                                Bytes(msg, msg + len)))
            << "length " << len;

        Sha256 h;
        for (std::size_t pos = 0; pos < len;) {
            std::size_t n = std::min<std::size_t>(
                len - pos, static_cast<std::size_t>(rng.below(200)));
            h.update(msg + pos, n);
            pos += n;
        }
        auto d = h.finish();
        ASSERT_EQ(Bytes(d.begin(), d.end()), one_shot) << "length " << len;
    }
}

TEST(Sha256, EverySplitOfTheFirst200Bytes)
{
    Random rng(5869);
    for (std::size_t len : {200u, 1000u, 4112u}) {
        Bytes msg = randomBytes(rng, len);
        Bytes one_shot = Sha256::digest(msg);
        for (std::size_t split = 0; split <= 200; ++split) {
            Sha256 h;
            h.update(msg.data(), split);
            h.update(msg.data() + split, len - split);
            auto d = h.finish();
            ASSERT_EQ(Bytes(d.begin(), d.end()), one_shot)
                << "length " << len << " split " << split;
        }
    }
}

} // namespace
} // namespace hypertee
