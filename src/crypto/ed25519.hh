/**
 * @file
 * Ed25519 signatures (RFC 8032), used by the EMS to sign platform and
 * enclave attestation certificates with the Endorsement Key (EK) and
 * the derived Attestation Key (AK).
 *
 * The group arithmetic is the ref10 design (crypto/ge25519.hh): every
 * [k]B, whether the public key, the nonce point R or the S*B of a
 * verification, comes from a fixed-base table of 32 x 8 precomputed
 * multiples of B, and the verifier's [k]A uses a signed 4-bit window.
 * A caller that signs many messages with one key expands its seed
 * once (Ed25519Key) rather than on every signature.
 *
 * The table reads touch every entry of a row, so they do not reveal
 * secret scalar digits through the cache; beyond that the code favours
 * clarity over side-channel hardening. The simulated EMS is physically
 * isolated, which is the paper's point.
 */

#ifndef HYPERTEE_CRYPTO_ED25519_HH
#define HYPERTEE_CRYPTO_ED25519_HH

#include "crypto/bytes.hh"

namespace hypertee
{

/**
 * A signing key expanded from its 32-byte seed (RFC 8032 §5.1.5):
 * the clamped scalar and the nonce prefix, wiped on destruction, and
 * the public key they give.
 */
struct Ed25519Key
{
    SecretBytes secret; ///< clamped scalar a (32) || nonce prefix (32)
    Bytes publicKey;    ///< 32-byte encoding of [a]B
};

/** Expand a 32-byte seed once, for any number of signatures. */
Ed25519Key ed25519ExpandSeed(const Bytes &seed);

/** Derive the 32-byte public key for a 32-byte seed. */
Bytes ed25519PublicKey(const Bytes &seed);

/** Sign @p message with the key seeded by @p seed; 64-byte result. */
Bytes ed25519Sign(const Bytes &seed, const Bytes &message);

/** Sign @p message with an already expanded key; 64-byte result. */
Bytes ed25519Sign(const Ed25519Key &key, const Bytes &message);

/**
 * Verify a 64-byte signature against a 32-byte public key. Rejects
 * S >= L and encodings of A or R that are not on the curve; a
 * non-canonical y (>= p) in A or R is reduced and accepted.
 */
bool ed25519Verify(const Bytes &public_key, const Bytes &message,
                   const Bytes &signature);

} // namespace hypertee

#endif // HYPERTEE_CRYPTO_ED25519_HH
