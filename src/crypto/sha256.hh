/**
 * @file
 * SHA-256 (FIPS 180-4). Used for enclave measurement (EMEAS), key
 * derivation, HMAC, and attestation report digests.
 *
 * Every digest goes through one multi-block compressor. On x86-64
 * hosts whose CPUID reports the SHA extensions it is a SHA-NI
 * implementation (`sha256rnds2`, `sha256msg1`/`sha256msg2`) that keeps
 * the state in registers across all blocks of a call; everywhere else
 * it is the portable scalar rounds. The choice is made once per
 * process from CPUID alone, and both paths produce the same bytes: the
 * tests hold the hardware path to the portable one. Only host speed
 * depends on the path. The simulated cost of hashing comes from
 * `CryptoEngine` (Table III), never from how fast this code runs.
 */

#ifndef HYPERTEE_CRYPTO_SHA256_HH
#define HYPERTEE_CRYPTO_SHA256_HH

#include <array>
#include <cstddef>
#include <cstdint>

#include "crypto/bytes.hh"

namespace hypertee
{

class Sha256
{
  public:
    static constexpr std::size_t digestSize = 32;
    static constexpr std::size_t blockSize = 64;

    Sha256();

    /** Absorb more message bytes. */
    void update(const std::uint8_t *data, std::size_t len);
    void update(const Bytes &data) { update(data.data(), data.size()); }

    /** Finish and return the 32-byte digest; the object is spent. */
    std::array<std::uint8_t, digestSize> finish();

    /** Zeroize the state and buffer (states derived from a key). */
    void wipe();

    /** One-shot convenience. */
    static Bytes digest(const Bytes &data);
    static Bytes digest(const std::uint8_t *data, std::size_t len);

  private:
    std::uint32_t _state[8];
    std::uint64_t _bitLen = 0;
    std::uint8_t _buffer[blockSize];
    std::size_t _bufLen = 0;
};

/** The compressors behind Sha256, exposed for the tests. */
namespace sha256_detail
{

/** Fold @p n whole 64-byte @p blocks into the eight-word @p state. */
using Compressor = void (*)(std::uint32_t *state,
                            const std::uint8_t *blocks, std::size_t n);

/** Scalar rounds: runs on every host; the reference for the tests. */
void compressPortable(std::uint32_t *state, const std::uint8_t *blocks,
                      std::size_t n);

/**
 * The SHA-NI compressor, or nullptr when the host is not x86-64 or
 * its CPUID lacks the SHA extensions.
 */
Compressor hardwareCompressor();

} // namespace sha256_detail

} // namespace hypertee

#endif // HYPERTEE_CRYPTO_SHA256_HH
