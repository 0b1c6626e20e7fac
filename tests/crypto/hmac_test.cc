/** @file HMAC-SHA256 (RFC 4231) and HKDF (RFC 5869) tests. */

#include <gtest/gtest.h>

#include "crypto/bytes.hh"
#include "crypto/hmac.hh"

namespace hypertee
{
namespace
{

TEST(HmacSha256, Rfc4231Case1)
{
    Bytes key(20, 0x0b);
    Bytes msg = bytesFromString("Hi There");
    EXPECT_EQ(toHex(hmacSha256(key, msg)),
              "b0344c61d8db38535ca8afceaf0bf12b"
              "881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2)
{
    Bytes key = bytesFromString("Jefe");
    Bytes msg = bytesFromString("what do ya want for nothing?");
    EXPECT_EQ(toHex(hmacSha256(key, msg)),
              "5bdcc146bf60754e6a042426089575c7"
              "5a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, LongKeyIsHashedFirst)
{
    Bytes long_key(131, 0xaa); // exceeds the 64-byte block size
    Bytes msg = bytesFromString("Test Using Larger Than Block-Size Key - "
                                "Hash Key First");
    EXPECT_EQ(toHex(hmacSha256(long_key, msg)),
              "60e431591ee0b67f0d8a26aacbf5b77f"
              "8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacSha256, KeyAndMessageSensitivity)
{
    Bytes key1(32, 1), key2(32, 2);
    Bytes msg1 = bytesFromString("m1"), msg2 = bytesFromString("m2");
    EXPECT_NE(hmacSha256(key1, msg1), hmacSha256(key2, msg1));
    EXPECT_NE(hmacSha256(key1, msg1), hmacSha256(key1, msg2));
    EXPECT_EQ(hmacSha256(key1, msg1), hmacSha256(key1, msg1));
}

TEST(Hkdf, Rfc5869Case1)
{
    Bytes ikm(22, 0x0b);
    Bytes salt = fromHex("000102030405060708090a0b0c");
    Bytes info = fromHex("f0f1f2f3f4f5f6f7f8f9");
    Bytes okm = hkdf(ikm, salt, info, 42);
    EXPECT_EQ(toHex(okm),
              "3cb25f25faacd57a90434f64d0362f2a"
              "2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
              "34007208d5b887185865");
}

TEST(Hkdf, EmptySaltUsesZeros)
{
    Bytes ikm(22, 0x0b);
    Bytes okm = hkdf(ikm, Bytes{}, Bytes{}, 32);
    EXPECT_EQ(okm.size(), 32u);
    // Deterministic.
    EXPECT_EQ(okm, hkdf(ikm, Bytes{}, Bytes{}, 32));
}

TEST(Hkdf, InfoSeparatesDerivedKeys)
{
    Bytes ikm(32, 0x42);
    Bytes salt = bytesFromString("hypertee");
    Bytes k1 = hkdf(ikm, salt, bytesFromString("attestation-key"), 32);
    Bytes k2 = hkdf(ikm, salt, bytesFromString("sealing-key"), 32);
    EXPECT_NE(k1, k2);
}

TEST(Hkdf, ExpandProducesRequestedLength)
{
    Bytes prk = hkdfExtract(bytesFromString("salt"),
                            bytesFromString("ikm"));
    for (std::size_t len : {1u, 31u, 32u, 33u, 64u, 100u}) {
        EXPECT_EQ(hkdfExpand(prk, Bytes{}, len).size(), len);
    }
}

TEST(Hkdf, LongerOutputExtendsShorterOutput)
{
    Bytes prk = hkdfExtract(bytesFromString("s"), bytesFromString("k"));
    Bytes short_okm = hkdfExpand(prk, Bytes{}, 16);
    Bytes long_okm = hkdfExpand(prk, Bytes{}, 48);
    EXPECT_TRUE(std::equal(short_okm.begin(), short_okm.end(),
                           long_okm.begin()));
}

Bytes
byteRange(int from, int to)
{
    Bytes out;
    for (int b = from; b < to; ++b)
        out.push_back(static_cast<std::uint8_t>(b));
    return out;
}

/**
 * The keyed-state path against RFC 4231 cases 1-4, 6 and 7, with the
 * message whole and split into parts, twice per key: reusing the
 * precomputed states must not disturb them.
 */
TEST(HmacSha256, PrecomputedStatesMatchRfc4231)
{
    struct Case
    {
        Bytes key;
        Bytes msg;
        const char *tag;
    };
    const Case cases[] = {
        {Bytes(20, 0x0b), bytesFromString("Hi There"),
         "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
        {bytesFromString("Jefe"),
         bytesFromString("what do ya want for nothing?"),
         "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
        {Bytes(20, 0xaa), Bytes(50, 0xdd),
         "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
        {byteRange(1, 26), Bytes(50, 0xcd),
         "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"},
        {Bytes(131, 0xaa),
         bytesFromString("Test Using Larger Than Block-Size Key - Hash Key "
                         "First"),
         "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
        {Bytes(131, 0xaa),
         bytesFromString("This is a test using a larger than block-size key "
                         "and a larger than block-size data. The key needs "
                         "to be hashed before being used by the HMAC "
                         "algorithm."),
         "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"},
    };
    for (const Case &c : cases) {
        const HmacSha256 keyed(c.key);
        for (int round = 0; round < 2; ++round) {
            HmacSha256::Tag whole = keyed.tag({c.msg});
            EXPECT_EQ(toHex(whole.data(), whole.size()), c.tag);
            const std::span<const std::uint8_t> m(c.msg);
            const std::size_t cut = m.size() / 3;
            HmacSha256::Tag split =
                keyed.tag({m.first(cut), {}, m.subspan(cut)});
            EXPECT_EQ(split, whole);
        }
        EXPECT_EQ(toHex(hmacSha256(c.key, c.msg)), c.tag);
    }
}

/** HKDF-Expand from a keyed PRK against RFC 5869 cases 1-3. */
TEST(Hkdf, KeyedPrkMatchesRfc5869)
{
    struct Case
    {
        Bytes ikm, salt, info;
        std::size_t len;
        const char *prk;
        const char *okm;
    };
    const Case cases[] = {
        {Bytes(22, 0x0b), byteRange(0, 13), byteRange(0xf0, 0xfa), 42,
         "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5",
         "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
         "34007208d5b887185865"},
        {byteRange(0, 0x50), byteRange(0x60, 0xb0), byteRange(0xb0, 0x100),
         82,
         "06a6b88c5853361a06104c9ceb35b45cef760014904671014a193f40c15fc244",
         "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c"
         "59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71"
         "cc30c58179ec3e87c14c01d5c1f3434f1d87"},
        {Bytes(22, 0x0b), Bytes{}, Bytes{}, 42,
         "19ef24a32c717b167f33a91d6f648bdf96596776afdb6377ac434c1c293ccb04",
         "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
         "9d201395faa4b61a96c8"},
    };
    for (const Case &c : cases) {
        const Bytes prk = hkdfExtract(c.salt, c.ikm);
        EXPECT_EQ(toHex(prk), c.prk);
        const HmacSha256 keyed(prk);
        EXPECT_EQ(toHex(hkdfExpand(keyed, c.info, c.len)), c.okm);
        EXPECT_EQ(toHex(hkdfExpand(keyed, c.info, c.len)), c.okm);
        EXPECT_EQ(toHex(hkdf(c.ikm, c.salt, c.info, c.len)), c.okm);
    }
}

} // namespace
} // namespace hypertee
