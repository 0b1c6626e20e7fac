/**
 * @file
 * HMAC-SHA256 and HKDF (RFC 2104 / RFC 5869).
 *
 * All EMS key derivations (attestation key from SK + salt, sealing
 * key from SK + measurement, shared-memory key from EnclaveID +
 * ShmID) are HKDF expansions rooted in the eFuse keys (Section VI).
 */

#ifndef HYPERTEE_CRYPTO_HMAC_HH
#define HYPERTEE_CRYPTO_HMAC_HH

#include <array>
#include <initializer_list>
#include <span>

#include "crypto/bytes.hh"
#include "crypto/sha256.hh"

namespace hypertee
{

/**
 * HMAC-SHA256 under one key, keyed once: the SHA-256 states after the
 * inner and outer pad blocks are computed at construction (RFC 2104
 * section 4), so a tag over a short message costs two compressions
 * instead of four. The states are key material; every copy wipes its
 * own on destruction.
 */
class HmacSha256
{
  public:
    using Tag = std::array<std::uint8_t, Sha256::digestSize>;

    explicit HmacSha256(const Bytes &key);
    HmacSha256(const HmacSha256 &) = default;
    HmacSha256 &operator=(const HmacSha256 &) = default;
    ~HmacSha256();

    /** The tag over the concatenation of @p parts. */
    Tag tag(std::initializer_list<std::span<const std::uint8_t>> parts) const;

  private:
    Sha256 _inner;
    Sha256 _outer;
};

/** HMAC-SHA256; returns a 32-byte tag. */
Bytes hmacSha256(const Bytes &key, const Bytes &message);

/** HKDF-Extract: PRK = HMAC(salt, ikm). */
Bytes hkdfExtract(const Bytes &salt, const Bytes &ikm);

/** HKDF-Expand to @p length bytes (length <= 255*32). */
Bytes hkdfExpand(const Bytes &prk, const Bytes &info, std::size_t length);

/** HKDF-Expand from a PRK already keyed into @p prk. */
Bytes hkdfExpand(const HmacSha256 &prk, const Bytes &info,
                 std::size_t length);

/** Extract-then-expand convenience. */
Bytes hkdf(const Bytes &ikm, const Bytes &salt, const Bytes &info,
           std::size_t length);

} // namespace hypertee

#endif // HYPERTEE_CRYPTO_HMAC_HH
