/**
 * @file
 * The Ed25519 group: points of the twisted Edwards curve
 * -x^2 + y^2 = 1 + d x^2 y^2 over GF(2^255 - 19), with the ref10
 * scalar multiplications of Bernstein et al., "High-speed
 * high-security signatures" (CHES 2011). Shared by the Ed25519
 * signatures and by the fixed-base X25519, since the Montgomery curve
 * of X25519 is birationally equivalent (u = (1 + y) / (1 - y)).
 */

#ifndef HYPERTEE_CRYPTO_GE25519_HH
#define HYPERTEE_CRYPTO_GE25519_HH

#include <cstdint>

#include "crypto/fe25519.hh"

namespace hypertee
{

/** Extended coordinates: x = X/Z, y = Y/Z, x*y = T/Z. */
struct GeP3
{
    Fe x, y, z, t;
};

GeP3 geIdentity();

/** The base point B: y = 4/5, x even. */
const GeP3 &geBase();

/** p + q; the formula is complete, so p == q is fine. */
GeP3 geAdd(const GeP3 &p, const GeP3 &q);

/**
 * [k]B from a table of 32 x 8 precomputed multiples of B, built once
 * on first use. k is 32 little-endian bytes with k[31] <= 127 (every
 * reduced or clamped scalar). Table lookups do not depend on k.
 */
GeP3 geScalarMultBase(const std::uint8_t k[32]);

/**
 * [k]A with a signed 4-bit window over the multiples A..8A; same k
 * as above. Variable time: for public scalars and points only.
 */
GeP3 geScalarMult(const std::uint8_t k[32], const GeP3 &a);

/** 32-byte encoding: canonical y, sign of x in bit 255. */
void geCompress(std::uint8_t out[32], const GeP3 &p);

/**
 * Decode an encoding; false when no curve point has that y. A
 * non-canonical y (>= p) is reduced and accepted.
 */
bool geDecompress(GeP3 &out, const std::uint8_t in[32]);

/** True when p and q are the same point (compared projectively). */
bool geEqual(const GeP3 &p, const GeP3 &q);

/** Montgomery u = (Z + Y) / (Z - Y); 0 for the identity. */
Fe geMontgomeryU(const GeP3 &p);

} // namespace hypertee

#endif // HYPERTEE_CRYPTO_GE25519_HH
