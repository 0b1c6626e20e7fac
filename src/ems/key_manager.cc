#include "ems/key_manager.hh"

#include "crypto/hmac.hh"
#include "sim/logging.hh"

namespace hypertee
{

namespace
{

/** The PRK every derivation expands, keyed into its HMAC states. */
HmacSha256
extractPrk(const Bytes &sealed_key)
{
    SecretBytes prk(hkdfExtract(bytesFromString("hypertee-kdf"),
                                sealed_key));
    return HmacSha256(prk.get());
}

} // namespace

KeyManager::KeyManager(const EFuse &efuse)
    : _prkMac(extractPrk(efuse.sealedKey))
{
    fatalIf(efuse.endorsementSeed.size() != 32,
            "EK seed must be 32 bytes");
    fatalIf(efuse.sealedKey.size() != 32, "SK must be 32 bytes");
    _endorsementKey = ed25519ExpandSeed(efuse.endorsementSeed);
}

Bytes
KeyManager::derive(const char *label, const Bytes &context,
                   std::size_t len) const
{
    Bytes info = bytesFromString(label);
    info.insert(info.end(), context.begin(), context.end());
    return hkdfExpand(_prkMac, info, len);
}

Bytes
KeyManager::endorsementPublicKey() const
{
    return _endorsementKey.publicKey;
}

Bytes
KeyManager::signWithEk(const Bytes &message) const
{
    return ed25519Sign(_endorsementKey, message);
}

Bytes
KeyManager::attestationKeySeed(const Bytes &salt) const
{
    return derive("attestation-key", salt, 32);
}

Ed25519Key
KeyManager::attestationKey(const Bytes &salt) const
{
    return ed25519ExpandSeed(attestationKeySeed(salt));
}

Bytes
KeyManager::attestationPublicKey(const Ed25519Key &ak) const
{
    return ak.publicKey;
}

Bytes
KeyManager::signWithAk(const Ed25519Key &ak, const Bytes &message) const
{
    return ed25519Sign(ak, message);
}

Bytes
KeyManager::memoryKey(const Bytes &measurement) const
{
    return derive("memory-key", measurement, 16);
}

Bytes
KeyManager::sealingKey(const Bytes &measurement) const
{
    return derive("sealing-key", measurement, 32);
}

Bytes
KeyManager::reportKey(const Bytes &challenger_measurement) const
{
    return derive("report-key", challenger_measurement, 32);
}

Bytes
KeyManager::sharedMemoryKey(EnclaveId sender, ShmId shm) const
{
    Bytes ctx;
    for (int i = 0; i < 4; ++i)
        ctx.push_back(static_cast<std::uint8_t>(sender >> (8 * i)));
    for (int i = 0; i < 4; ++i)
        ctx.push_back(static_cast<std::uint8_t>(shm >> (8 * i)));
    return derive("shm-key", ctx, 16);
}

} // namespace hypertee
