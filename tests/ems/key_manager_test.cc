/** @file Key hierarchy tests (Section VI). */

#include <gtest/gtest.h>

#include "crypto/ed25519.hh"
#include "ems/key_manager.hh"

namespace hypertee
{
namespace
{

EFuse
testFuse(std::uint8_t seed)
{
    EFuse f;
    f.endorsementSeed = Bytes(32, seed);
    f.sealedKey = Bytes(32, static_cast<std::uint8_t>(seed + 1));
    return f;
}

TEST(KeyManager, EkSignaturesVerifyAgainstEkPublic)
{
    KeyManager km(testFuse(1));
    Bytes msg = bytesFromString("platform-measurement");
    Bytes sig = km.signWithEk(msg);
    EXPECT_TRUE(ed25519Verify(km.endorsementPublicKey(), msg, sig));
}

TEST(KeyManager, AkDerivationIsSaltDependent)
{
    KeyManager km(testFuse(1));
    Ed25519Key ak_a = km.attestationKey(bytesFromString("salt-a"));
    Ed25519Key ak_b = km.attestationKey(bytesFromString("salt-b"));
    EXPECT_NE(km.attestationPublicKey(ak_a), km.attestationPublicKey(ak_b));

    Bytes msg = bytesFromString("quote");
    Bytes sig = km.signWithAk(ak_a, msg);
    EXPECT_TRUE(ed25519Verify(km.attestationPublicKey(ak_a), msg, sig));
    EXPECT_FALSE(ed25519Verify(km.attestationPublicKey(ak_b), msg, sig));
}

TEST(KeyManager, DerivedKeysAreDomainSeparated)
{
    KeyManager km(testFuse(1));
    Bytes meas = Bytes(32, 0x42);
    Bytes mem = km.memoryKey(meas);
    Bytes sealing = km.sealingKey(meas);
    Bytes report = km.reportKey(meas);
    EXPECT_EQ(mem.size(), 16u);
    EXPECT_EQ(sealing.size(), 32u);
    EXPECT_NE(Bytes(sealing.begin(), sealing.begin() + 16), mem);
    EXPECT_NE(sealing, report);
}

TEST(KeyManager, KdfLabelsPairwiseDistinct)
{
    // Same SK, same context bytes: only the KDF label differs, so
    // every pair of derived keys must still be distinct. Compare on
    // a common 16-byte prefix so the 16- and 32-byte outputs are
    // directly comparable.
    KeyManager km(testFuse(1));
    Bytes ctx(32, 0x42);
    auto prefix16 = [](const Bytes &k) {
        return Bytes(k.begin(), k.begin() + 16);
    };
    std::vector<Bytes> keys = {
        prefix16(km.memoryKey(ctx)),
        prefix16(km.sealingKey(ctx)),
        prefix16(km.reportKey(ctx)),
        prefix16(km.attestationKeySeed(ctx)),
    };
    for (std::size_t i = 0; i < keys.size(); ++i)
        for (std::size_t j = i + 1; j < keys.size(); ++j)
            EXPECT_NE(keys[i], keys[j]) << i << " vs " << j;
}

TEST(KeyManager, KeysAreMeasurementBound)
{
    KeyManager km(testFuse(1));
    EXPECT_NE(km.sealingKey(Bytes(32, 1)), km.sealingKey(Bytes(32, 2)));
    EXPECT_NE(km.memoryKey(Bytes(32, 1)), km.memoryKey(Bytes(32, 2)));
}

TEST(KeyManager, KeysAreDeviceBound)
{
    KeyManager km1(testFuse(1)), km2(testFuse(9));
    Bytes meas(32, 0x55);
    EXPECT_NE(km1.sealingKey(meas), km2.sealingKey(meas));
    EXPECT_NE(km1.endorsementPublicKey(), km2.endorsementPublicKey());
}

TEST(KeyManager, SharedMemoryKeyBindsSenderAndShm)
{
    KeyManager km(testFuse(1));
    EXPECT_NE(km.sharedMemoryKey(1, 1), km.sharedMemoryKey(1, 2));
    EXPECT_NE(km.sharedMemoryKey(1, 1), km.sharedMemoryKey(2, 1));
    EXPECT_EQ(km.sharedMemoryKey(3, 7), km.sharedMemoryKey(3, 7));
}

/**
 * Every derivation is pinned to the bytes it produced before the PRK
 * was cached: caching is a host-speed change, never a key change.
 */
TEST(KeyManager, DerivedKeysArePinned)
{
    KeyManager km(testFuse(1));
    const Bytes meas(32, 0x42);
    EXPECT_EQ(toHex(km.memoryKey(meas)), "579eac3d18b4d9b8182def819ea71d9c");
    EXPECT_EQ(toHex(km.memoryKey(Bytes{1, 0, 0, 0})),
              "3dd2cb90e7585f00bf74d3ddc10c9a51");
    EXPECT_EQ(toHex(km.sealingKey(meas)),
              "0dd8154f0aca27982e87191f30c61b61"
              "4c8ae37a5dab4f2b103b1bb904b20a4b");
    EXPECT_EQ(toHex(km.sealingKey(Bytes(100, 0x5a))),
              "fbf1a7e5ed99f5771a766f85a733de78"
              "48f6233369bfebaaee17b6a10bece9f5");
    EXPECT_EQ(toHex(km.reportKey(meas)),
              "0b37e0dd16219823b586068adab0ace4"
              "a3c38210dc70d307528875dd1f7a3815");
    EXPECT_EQ(toHex(km.attestationKeySeed(bytesFromString("salt-a"))),
              "a50033f206df30188ccdd6fcf693a241"
              "10ed8b0f96e7a1c3cd42bd0d0654a918");
    EXPECT_EQ(toHex(km.sharedMemoryKey(7, 11)),
              "9e0fe56d02e7b70a55df24c16238cd41");
    // A copy derives the same keys.
    KeyManager copy = km;
    EXPECT_EQ(copy.memoryKey(meas), km.memoryKey(meas));
}

TEST(KeyManagerDeath, RejectsShortFuseKeys)
{
    EFuse bad;
    bad.endorsementSeed = Bytes(16, 1);
    bad.sealedKey = Bytes(32, 2);
    EXPECT_DEATH(
        {
            KeyManager km(bad);
            (void)km;
        },
        "32 bytes");
}

} // namespace
} // namespace hypertee
