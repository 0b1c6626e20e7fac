#include "ems/attestation.hh"

#include "crypto/aes128.hh"
#include "crypto/ed25519.hh"
#include "crypto/hmac.hh"

namespace hypertee
{

namespace
{

/** Length-prefixed field serializer. */
void
putField(Bytes &out, const Bytes &field)
{
    std::uint32_t len = static_cast<std::uint32_t>(field.size());
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
    out.insert(out.end(), field.begin(), field.end());
}

bool
getField(const Bytes &in, std::size_t &pos, Bytes &field)
{
    if (pos + 4 > in.size())
        return false;
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i)
        len |= std::uint32_t(in[pos + i]) << (8 * i);
    pos += 4;
    if (pos + len > in.size())
        return false;
    field.assign(in.begin() + pos, in.begin() + pos + len);
    pos += len;
    return true;
}

Bytes
platformSigBody(const AttestationQuote &q)
{
    Bytes body = q.platformMeasurement;
    body.insert(body.end(), q.akPublicKey.begin(), q.akPublicKey.end());
    return body;
}

Bytes
enclaveSigBody(const AttestationQuote &q)
{
    Bytes body = q.enclaveMeasurement;
    body.insert(body.end(), q.dhPublic.begin(), q.dhPublic.end());
    body.insert(body.end(), q.verifierNonce.begin(),
                q.verifierNonce.end());
    return body;
}

} // namespace

Bytes
AttestationQuote::serialize() const
{
    Bytes out;
    putField(out, platformMeasurement);
    putField(out, enclaveMeasurement);
    putField(out, akSalt);
    putField(out, akPublicKey);
    putField(out, dhPublic);
    putField(out, platformSig);
    putField(out, enclaveSig);
    putField(out, verifierNonce);
    return out;
}

bool
AttestationQuote::deserialize(const Bytes &data, AttestationQuote &out)
{
    std::size_t pos = 0;
    return getField(data, pos, out.platformMeasurement) &&
           getField(data, pos, out.enclaveMeasurement) &&
           getField(data, pos, out.akSalt) &&
           getField(data, pos, out.akPublicKey) &&
           getField(data, pos, out.dhPublic) &&
           getField(data, pos, out.platformSig) &&
           getField(data, pos, out.enclaveSig) &&
           getField(data, pos, out.verifierNonce) && pos == data.size();
}

AttestationQuote
buildQuote(const KeyManager &km, const Bytes &platform_measurement,
           const Bytes &enclave_measurement, const Bytes &ak_salt,
           const Bytes &dh_public, const Bytes &verifier_nonce)
{
    AttestationQuote q;
    q.platformMeasurement = platform_measurement;
    q.enclaveMeasurement = enclave_measurement;
    q.akSalt = ak_salt;
    const Ed25519Key ak = km.attestationKey(ak_salt);
    q.akPublicKey = km.attestationPublicKey(ak);
    q.dhPublic = dh_public;
    q.verifierNonce = verifier_nonce;
    q.platformSig = km.signWithEk(platformSigBody(q));
    q.enclaveSig = km.signWithAk(ak, enclaveSigBody(q));
    return q;
}

bool
verifyQuote(const AttestationQuote &quote, const Bytes &ek_public,
            const Bytes &expected_enclave_measurement,
            const Bytes &expected_nonce)
{
    // 1. The EK signature chains the AK to the vendor-certified key.
    if (!ed25519Verify(ek_public, platformSigBody(quote),
                       quote.platformSig)) {
        return false;
    }
    // 2. The AK signature covers the enclave measurement, the DH
    //    share, and the verifier's anti-replay nonce.
    if (!ed25519Verify(quote.akPublicKey, enclaveSigBody(quote),
                       quote.enclaveSig)) {
        return false;
    }
    // 3. Content checks.
    if (!ctEqual(quote.enclaveMeasurement,
                 expected_enclave_measurement)) {
        return false;
    }
    if (!ctEqual(quote.verifierNonce, expected_nonce))
        return false;
    return true;
}

Bytes
localReportCertificate(const KeyManager &km,
                       const Bytes &challenger_measurement,
                       const Bytes &verifier_measurement)
{
    Bytes rk = km.reportKey(challenger_measurement);
    return hmacSha256(rk, verifier_measurement);
}

bool
verifyLocalReport(const KeyManager &km,
                  const Bytes &challenger_measurement,
                  const Bytes &verifier_measurement,
                  const Bytes &certificate)
{
    Bytes expect = localReportCertificate(km, challenger_measurement,
                                          verifier_measurement);
    return ctEqual(expect, certificate);
}

Bytes
SealedBlob::serialize() const
{
    Bytes out;
    putField(out, nonce);
    putField(out, ciphertext);
    putField(out, tag);
    return out;
}

bool
SealedBlob::deserialize(const Bytes &data, SealedBlob &out)
{
    std::size_t pos = 0;
    return getField(data, pos, out.nonce) &&
           getField(data, pos, out.ciphertext) &&
           getField(data, pos, out.tag) && pos == data.size();
}

SealedBlob
seal(const KeyManager &km, const Bytes &measurement,
     const Bytes &plaintext, std::uint64_t nonce)
{
    SecretBytes key(km.sealingKey(measurement));
    SecretBytes enc_key(Bytes(key.get().begin(), key.get().begin() + 16));
    SecretBytes mac_key(Bytes(key.get().begin() + 16, key.get().end()));

    SealedBlob blob;
    for (int i = 0; i < 8; ++i)
        blob.nonce.push_back(static_cast<std::uint8_t>(nonce >> (8 * i)));
    Aes128 aes(enc_key.get());
    blob.ciphertext = aes.ctrTransform(plaintext, nonce, 0);

    Bytes mac_body = blob.nonce;
    mac_body.insert(mac_body.end(), blob.ciphertext.begin(),
                    blob.ciphertext.end());
    blob.tag = hmacSha256(mac_key.get(), mac_body);
    return blob;
}

bool
unseal(const KeyManager &km, const Bytes &measurement,
       const SealedBlob &blob, Bytes &out)
{
    out.clear();
    if (blob.nonce.size() != 8)
        return false;
    SecretBytes key(km.sealingKey(measurement));
    SecretBytes enc_key(Bytes(key.get().begin(), key.get().begin() + 16));
    SecretBytes mac_key(Bytes(key.get().begin() + 16, key.get().end()));

    Bytes mac_body = blob.nonce;
    mac_body.insert(mac_body.end(), blob.ciphertext.begin(),
                    blob.ciphertext.end());
    if (!ctEqual(hmacSha256(mac_key.get(), mac_body), blob.tag))
        return false;

    std::uint64_t nonce = 0;
    for (int i = 7; i >= 0; --i)
        nonce = (nonce << 8) | blob.nonce[i];
    Aes128 aes(enc_key.get());
    out = aes.ctrTransform(blob.ciphertext, nonce, 0);
    return true;
}

} // namespace hypertee
