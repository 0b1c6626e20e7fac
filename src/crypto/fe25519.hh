/**
 * @file
 * Arithmetic in GF(2^255 - 19) with 5x51-bit limbs (donna layout).
 * Shared by the X25519 key agreement (local/remote attestation DH)
 * and the Ed25519 signatures (attestation certificates).
 *
 * Addition, subtraction, multiplication and squaring are inline:
 * the group formulas above them are nothing but chains of these, and
 * an out-of-line call per field operation cost more than the
 * arithmetic itself.
 *
 * Limb bounds: feMul, feSq, feSub and every other function return
 * limbs below 2^52, and feAdd returns the plain sum. feMul and feSq
 * take limbs below 2^54 (a sum of up to four elements); feSub takes
 * any such a but a b below 2^53 (a sum of at most two).
 */

#ifndef HYPERTEE_CRYPTO_FE25519_HH
#define HYPERTEE_CRYPTO_FE25519_HH

#include <array>
#include <cstdint>

namespace hypertee
{

/** A field element; limb i carries bits [51*i, 51*i+51). */
using Fe = std::array<std::uint64_t, 5>;

namespace fe_detail
{

using u64 = std::uint64_t;
using u128 = unsigned __int128;

constexpr u64 mask51 = (u64(1) << 51) - 1;

/** One pass of base-2^51 carry propagation with the mod-p fold. */
inline void
carryPass(Fe &h)
{
    u64 c;
    c = h[0] >> 51; h[0] &= mask51; h[1] += c;
    c = h[1] >> 51; h[1] &= mask51; h[2] += c;
    c = h[2] >> 51; h[2] &= mask51; h[3] += c;
    c = h[3] >> 51; h[3] &= mask51; h[4] += c;
    c = h[4] >> 51; h[4] &= mask51; h[0] += 19 * c;
}

/**
 * Carry five 128-bit column sums into an element with limbs below
 * 2^52. For inputs below 2^54, r4 < 2^110, so 19 * (r4 >> 51) fits.
 */
inline Fe
carryWide(u128 r0, u128 r1, u128 r2, u128 r3, u128 r4)
{
    Fe h;
    r1 += r0 >> 51; h[0] = static_cast<u64>(r0) & mask51;
    r2 += r1 >> 51; h[1] = static_cast<u64>(r1) & mask51;
    r3 += r2 >> 51; h[2] = static_cast<u64>(r2) & mask51;
    r4 += r3 >> 51; h[3] = static_cast<u64>(r3) & mask51;
    h[4] = static_cast<u64>(r4) & mask51;
    h[0] += 19 * static_cast<u64>(r4 >> 51);
    h[1] += h[0] >> 51;
    h[0] &= mask51;
    return h;
}

} // namespace fe_detail

Fe feZero();
Fe feOne();
Fe feFromUint(std::uint64_t v);

/** Load 32 little-endian bytes, masking the top bit. */
Fe feFromBytes(const std::uint8_t bytes[32]);

/** Store fully reduced, 32 little-endian bytes. */
void feToBytes(std::uint8_t out[32], const Fe &f);

/** a + b, not carried (see the limb bounds above). */
inline Fe
feAdd(const Fe &a, const Fe &b)
{
    Fe h;
    for (int i = 0; i < 5; ++i)
        h[i] = a[i] + b[i];
    return h;
}

/** a - b, carried; b at most a sum of two elements. */
inline Fe
feSub(const Fe &a, const Fe &b)
{
    // Add 4p before subtracting so limbs never underflow.
    constexpr std::uint64_t four_p0 = 0x1fffffffffffb4ULL; // 4*(2^51-19)
    constexpr std::uint64_t four_pi = 0x1ffffffffffffcULL; // 4*(2^51-1)
    Fe h;
    h[0] = a[0] + four_p0 - b[0];
    h[1] = a[1] + four_pi - b[1];
    h[2] = a[2] + four_pi - b[2];
    h[3] = a[3] + four_pi - b[3];
    h[4] = a[4] + four_pi - b[4];
    fe_detail::carryPass(h);
    return h;
}

inline Fe
feMul(const Fe &a, const Fe &b)
{
    using fe_detail::u128;
    using fe_detail::u64;
    const u64 a0 = a[0], a1 = a[1], a2 = a[2], a3 = a[3], a4 = a[4];
    const u64 b0 = b[0], b1 = b[1], b2 = b[2], b3 = b[3], b4 = b[4];
    // Limb products past 2^255 wrap around times 19.
    const u64 b1_19 = 19 * b1, b2_19 = 19 * b2, b3_19 = 19 * b3,
              b4_19 = 19 * b4;

    u128 r0 = (u128)a0 * b0 + (u128)a1 * b4_19 + (u128)a2 * b3_19 +
              (u128)a3 * b2_19 + (u128)a4 * b1_19;
    u128 r1 = (u128)a0 * b1 + (u128)a1 * b0 + (u128)a2 * b4_19 +
              (u128)a3 * b3_19 + (u128)a4 * b2_19;
    u128 r2 = (u128)a0 * b2 + (u128)a1 * b1 + (u128)a2 * b0 +
              (u128)a3 * b4_19 + (u128)a4 * b3_19;
    u128 r3 = (u128)a0 * b3 + (u128)a1 * b2 + (u128)a2 * b1 +
              (u128)a3 * b0 + (u128)a4 * b4_19;
    u128 r4 = (u128)a0 * b4 + (u128)a1 * b3 + (u128)a2 * b2 +
              (u128)a3 * b1 + (u128)a4 * b0;
    return fe_detail::carryWide(r0, r1, r2, r3, r4);
}

/** a^2 with the symmetric limb products computed once. */
inline Fe
feSq(const Fe &a)
{
    using fe_detail::u128;
    using fe_detail::u64;
    const u64 a0 = a[0], a1 = a[1], a2 = a[2], a3 = a[3], a4 = a[4];
    const u64 d0 = 2 * a0, d1 = 2 * a1;
    const u64 a3_19 = 19 * a3, a4_19 = 19 * a4;

    u128 r0 = (u128)a0 * a0 + (u128)d1 * a4_19 + (u128)(2 * a2) * a3_19;
    u128 r1 = (u128)d0 * a1 + (u128)(2 * a2) * a4_19 + (u128)a3 * a3_19;
    u128 r2 = (u128)d0 * a2 + (u128)a1 * a1 + (u128)(2 * a3) * a4_19;
    u128 r3 = (u128)d0 * a3 + (u128)d1 * a2 + (u128)a4 * a4_19;
    u128 r4 = (u128)d0 * a4 + (u128)d1 * a3 + (u128)a2 * a2;
    return fe_detail::carryWide(r0, r1, r2, r3, r4);
}

Fe feNeg(const Fe &a);
Fe feMulSmall(const Fe &a, std::uint64_t s);

/** Multiplicative inverse (a^(p-2)); inverse of 0 is 0. */
Fe feInvert(const Fe &a);

/** a^((p-5)/8), the core of the square-root computation. */
Fe fePow2523(const Fe &a);

/** True when the canonical encoding is all zero. */
bool feIsZero(const Fe &a);

/** Sign bit: lowest bit of the canonical encoding. */
bool feIsNegative(const Fe &a);

/** True when canonical encodings match. */
bool feEqual(const Fe &a, const Fe &b);

/** Conditional swap (data-independent addressing). */
void feCswap(Fe &a, Fe &b, bool swap);

/** sqrt(-1) in the field, 2^((p-1)/4). */
Fe feSqrtM1();

} // namespace hypertee

#endif // HYPERTEE_CRYPTO_FE25519_HH
