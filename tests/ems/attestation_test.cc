/** @file Attestation protocol and sealing tests (Section VI). */

#include <gtest/gtest.h>

#include "ems/attestation.hh"

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

struct AttestFixture : ::testing::Test
{
    KeyManager km{testFuse(3)};
    Bytes platformMeas = Bytes(32, 0xaa);
    Bytes enclaveMeas = Bytes(32, 0xbb);
    Bytes salt = bytesFromString("ak-salt");
    Bytes dhPub = Bytes(32, 0x11);
    Bytes nonce = Bytes(16, 0x77);

    AttestationQuote
    quote()
    {
        return buildQuote(km, platformMeas, enclaveMeas, salt, dhPub,
                          nonce);
    }
};

TEST_F(AttestFixture, ValidQuoteVerifies)
{
    EXPECT_TRUE(verifyQuote(quote(), km.endorsementPublicKey(),
                            enclaveMeas, nonce));
}

TEST_F(AttestFixture, SerializationRoundTrips)
{
    AttestationQuote q = quote();
    Bytes wire = q.serialize();
    AttestationQuote back;
    ASSERT_TRUE(AttestationQuote::deserialize(wire, back));
    EXPECT_EQ(back.enclaveMeasurement, q.enclaveMeasurement);
    EXPECT_EQ(back.platformSig, q.platformSig);
    EXPECT_TRUE(verifyQuote(back, km.endorsementPublicKey(), enclaveMeas,
                            nonce));
}

TEST_F(AttestFixture, TruncatedWireFormatRejected)
{
    Bytes wire = quote().serialize();
    AttestationQuote back;
    for (std::size_t cut : {1u, 10u, 50u}) {
        Bytes shortened(wire.begin(), wire.end() - cut);
        EXPECT_FALSE(AttestationQuote::deserialize(shortened, back));
    }
    wire.push_back(0);
    EXPECT_FALSE(AttestationQuote::deserialize(wire, back))
        << "trailing bytes rejected";
}

TEST_F(AttestFixture, WrongEkRejected)
{
    KeyManager other(testFuse(9));
    EXPECT_FALSE(verifyQuote(quote(), other.endorsementPublicKey(),
                             enclaveMeas, nonce));
}

TEST_F(AttestFixture, TamperedMeasurementRejected)
{
    // Attacker swaps in a different enclave measurement: the AK
    // signature no longer covers it.
    AttestationQuote q = quote();
    q.enclaveMeasurement = Bytes(32, 0xcc);
    EXPECT_FALSE(verifyQuote(q, km.endorsementPublicKey(),
                             q.enclaveMeasurement, nonce));
}

TEST_F(AttestFixture, MeasurementMismatchRejected)
{
    EXPECT_FALSE(verifyQuote(quote(), km.endorsementPublicKey(),
                             Bytes(32, 0xdd), nonce));
}

TEST_F(AttestFixture, ReplayedNonceRejected)
{
    EXPECT_FALSE(verifyQuote(quote(), km.endorsementPublicKey(),
                             enclaveMeas, Bytes(16, 0x88)));
}

TEST_F(AttestFixture, SwappedAkRejected)
{
    // Attacker substitutes their own AK public key: the EK chain
    // signature breaks.
    AttestationQuote q = quote();
    KeyManager other(testFuse(9));
    q.akPublicKey = other.attestationPublicKey(other.attestationKey(salt));
    EXPECT_FALSE(verifyQuote(q, km.endorsementPublicKey(), enclaveMeas,
                             nonce));
}

TEST_F(AttestFixture, AkPublicKeyUnderDifferentSaltRejected)
{
    // Same device, but the AK public key was derived under another
    // salt: AK = KDF(SK, salt), so the enclave signature no longer
    // matches and the EK certificate chain breaks too.
    AttestationQuote q = quote();
    q.akPublicKey = km.attestationPublicKey(
        km.attestationKey(bytesFromString("other-salt")));
    EXPECT_FALSE(verifyQuote(q, km.endorsementPublicKey(), enclaveMeas,
                             nonce));
}

TEST_F(AttestFixture, EnclaveSigUnderDifferentSaltRejected)
{
    // The enclave body is re-signed with an AK derived under a
    // different salt while the quoted AK public key is unchanged:
    // the signature must not verify.
    AttestationQuote q = quote();
    Bytes body = q.enclaveMeasurement;
    body.insert(body.end(), q.dhPublic.begin(), q.dhPublic.end());
    body.insert(body.end(), q.verifierNonce.begin(),
                q.verifierNonce.end());
    q.enclaveSig =
        km.signWithAk(km.attestationKey(bytesFromString("other-salt")), body);
    EXPECT_FALSE(verifyQuote(q, km.endorsementPublicKey(), enclaveMeas,
                             nonce));
}

TEST(LocalAttestation, ReportRoundTrip)
{
    KeyManager km(testFuse(5));
    Bytes challenger(32, 1), verifier(32, 2);
    Bytes cert = localReportCertificate(km, challenger, verifier);
    EXPECT_TRUE(verifyLocalReport(km, challenger, verifier, cert));
}

TEST(LocalAttestation, CertBoundToBothMeasurements)
{
    KeyManager km(testFuse(5));
    Bytes challenger(32, 1), verifier(32, 2);
    Bytes cert = localReportCertificate(km, challenger, verifier);
    EXPECT_FALSE(verifyLocalReport(km, Bytes(32, 3), verifier, cert));
    EXPECT_FALSE(verifyLocalReport(km, challenger, Bytes(32, 3), cert));
}

TEST(LocalAttestation, CertBoundToDevice)
{
    KeyManager km1(testFuse(5)), km2(testFuse(6));
    Bytes challenger(32, 1), verifier(32, 2);
    Bytes cert = localReportCertificate(km1, challenger, verifier);
    EXPECT_FALSE(verifyLocalReport(km2, challenger, verifier, cert))
        << "local attestation only works on the same platform";
}

TEST(Sealing, RoundTrip)
{
    KeyManager km(testFuse(7));
    Bytes meas(32, 0x10);
    Bytes secret = bytesFromString("model weights");
    SealedBlob blob = seal(km, meas, secret, 42);
    EXPECT_NE(blob.ciphertext, secret);
    Bytes out;
    ASSERT_TRUE(unseal(km, meas, blob, out));
    EXPECT_EQ(out, secret);
}

TEST(Sealing, TamperDetected)
{
    KeyManager km(testFuse(7));
    Bytes meas(32, 0x10);
    SealedBlob blob = seal(km, meas, bytesFromString("data"), 1);
    blob.ciphertext[0] ^= 1;
    Bytes out;
    EXPECT_FALSE(unseal(km, meas, blob, out));
    EXPECT_TRUE(out.empty());
}

TEST(Sealing, BoundToMeasurement)
{
    // A different (modified) enclave cannot unseal.
    KeyManager km(testFuse(7));
    SealedBlob blob = seal(km, Bytes(32, 1), bytesFromString("data"), 1);
    Bytes out;
    EXPECT_FALSE(unseal(km, Bytes(32, 2), blob, out));
}

TEST(Sealing, SerializationRoundTrips)
{
    KeyManager km(testFuse(7));
    SealedBlob blob = seal(km, Bytes(32, 1), bytesFromString("x"), 5);
    Bytes wire = blob.serialize();
    SealedBlob back;
    ASSERT_TRUE(SealedBlob::deserialize(wire, back));
    Bytes out;
    EXPECT_TRUE(unseal(km, Bytes(32, 1), back, out));
}

} // namespace
} // namespace hypertee
