/**
 * @file
 * EMS key management (Section VI).
 *
 * Root keys live in the simulated eFuse, burnt at manufacturing:
 *   EK — endorsement key (Ed25519 seed, certified by the vendor CA)
 *   SK — sealed key (random device secret)
 * Everything else is derived: attestation key AK = KDF(SK, salt),
 * per-enclave memory keys = KDF(SK, measurement), sealing keys =
 * KDF(SK, measurement, "seal"), report keys = KDF(SK, challenger
 * measurement), shared-memory keys = KDF(SK, senderID || ShmID).
 * All derivations stay inside the EMS; the CS only ever sees key
 * *identifiers*.
 */

#ifndef HYPERTEE_EMS_KEY_MANAGER_HH
#define HYPERTEE_EMS_KEY_MANAGER_HH

#include <cstdint>

#include "crypto/bytes.hh"
#include "crypto/ed25519.hh"
#include "crypto/hmac.hh"
#include "sim/types.hh"

namespace hypertee
{

/** Simulated one-time-programmable key store. */
struct EFuse
{
    Bytes endorsementSeed; ///< 32-byte Ed25519 seed (EK)
    Bytes sealedKey;       ///< 32-byte device secret (SK)

    EFuse() = default;
    EFuse(const EFuse &) = default;
    EFuse(EFuse &&) = default;
    EFuse &operator=(const EFuse &) = default;
    EFuse &operator=(EFuse &&) = default;

    /** Root keys must not linger on freed host pages. */
    ~EFuse()
    {
        secureWipe(endorsementSeed);
        secureWipe(sealedKey);
    }
};

class KeyManager
{
  public:
    explicit KeyManager(const EFuse &efuse);

    /** EK public key (what the certificate authority certified). */
    Bytes endorsementPublicKey() const;

    /** Sign with EK (platform certificates). */
    Bytes signWithEk(const Bytes &message) const;

    /** Derive the attestation key seed from SK and a salt. */
    Bytes attestationKeySeed(const Bytes &salt) const;

    /**
     * The AK for a salt, expanded from its seed once so that a quote
     * takes both its public key and its signature from it.
     */
    Ed25519Key attestationKey(const Bytes &salt) const;

    /** AK public key. */
    Bytes attestationPublicKey(const Ed25519Key &ak) const;

    /** Sign with AK (enclave certificates). */
    Bytes signWithAk(const Ed25519Key &ak, const Bytes &message) const;

    /** Per-enclave memory encryption key (16 bytes, AES-128). */
    Bytes memoryKey(const Bytes &measurement) const;

    /** Sealing key bound to measurement + device. */
    Bytes sealingKey(const Bytes &measurement) const;

    /** Local-attestation report key (challenger-measurement bound). */
    Bytes reportKey(const Bytes &challenger_measurement) const;

    /** Shared-memory key from initial sender + ShmID (Section V-A). */
    Bytes sharedMemoryKey(EnclaveId sender, ShmId shm) const;

  private:
    Bytes derive(const char *label, const Bytes &context,
                 std::size_t len) const;

    /** EK, expanded from its seed once; the secret half is wiped. */
    Ed25519Key _endorsementKey;
    /**
     * PRK = HKDF-Extract("hypertee-kdf", SK), held as its HMAC inner
     * and outer states: salt and SK are fixed, so the PRK is a
     * constant and every derivation is one expand. Wiped on
     * destruction.
     */
    HmacSha256 _prkMac;
};

} // namespace hypertee

#endif // HYPERTEE_EMS_KEY_MANAGER_HH
