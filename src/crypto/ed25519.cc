#include "crypto/ed25519.hh"

#include <utility>

#include "crypto/ge25519.hh"
#include "crypto/sha512.hh"
#include "sim/logging.hh"

namespace hypertee
{

namespace
{

using u64 = std::uint64_t;
using u128 = unsigned __int128;

// ----- scalar arithmetic mod the group order L -----

/** Little-endian integer in 64-bit words, the fifth for headroom. */
struct U256
{
    u64 w[5] = {0, 0, 0, 0, 0};
};

// L = 2^252 + 27742317777372353535851937790883648493
constexpr U256 orderL = {{0x5812631a5cf5d3edULL, 0x14def9dea2f79cd6ULL, 0,
                          0x1000000000000000ULL, 0}};

bool
geq(const U256 &a, const U256 &b)
{
    for (int i = 4; i >= 0; --i) {
        if (a.w[i] != b.w[i])
            return a.w[i] > b.w[i];
    }
    return true;
}

/**
 * Reduce a little-endian byte string mod L, folding in one byte at a
 * time from the top: r = 256r + byte, then r -= qL with q = r >> 252.
 * Since 2^252 < L < 2^252 + 2^125, q is the true quotient or one more,
 * so at most one L goes back in.
 */
U256
reduceModL(const std::uint8_t *le_bytes, std::size_t len)
{
    U256 r;
    for (std::size_t i = len; i-- > 0;) {
        // r < L < 2^253, so 256r + byte < 2^261 fits the five words.
        for (int k = 4; k > 0; --k)
            r.w[k] = (r.w[k] << 8) | (r.w[k - 1] >> 56);
        r.w[0] = (r.w[0] << 8) | le_bytes[i];

        const u64 q = (r.w[3] >> 60) | (r.w[4] << 4);
        u128 carry = 0;
        u64 borrow = 0;
        for (int k = 0; k < 5; ++k) {
            u128 prod = (u128)q * orderL.w[k] + carry;
            carry = prod >> 64;
            u128 diff = (u128)r.w[k] - (u64)prod - borrow;
            r.w[k] = (u64)diff;
            borrow = (u64)(diff >> 64) & 1;
        }
        if (borrow) {
            // q was one too many: add L back (mod 2^320).
            u128 sum = 0;
            for (int k = 0; k < 5; ++k) {
                sum += (u128)r.w[k] + orderL.w[k];
                r.w[k] = (u64)sum;
                sum >>= 64;
            }
        }
    }
    return r;
}

void
scToBytes(std::uint8_t out[32], const U256 &a)
{
    for (int i = 0; i < 4; ++i) {
        for (int j = 0; j < 8; ++j)
            out[8 * i + j] = static_cast<std::uint8_t>(a.w[i] >> (8 * j));
    }
}

/** (a * b + c) mod L, for a, b, c < L. */
U256
scMulAdd(const U256 &a, const U256 &b, const U256 &c)
{
    // a * b + c < 2^507: eight words.
    u64 prod[8] = {0};
    for (int i = 0; i < 4; ++i) {
        u128 carry = 0;
        for (int j = 0; j < 4; ++j) {
            u128 v = (u128)a.w[i] * b.w[j] + prod[i + j] + carry;
            prod[i + j] = (u64)v;
            carry = v >> 64;
        }
        prod[i + 4] = (u64)carry;
    }
    u128 carry = 0;
    for (int i = 0; i < 8; ++i) {
        u128 v = (u128)prod[i] + (i < 4 ? c.w[i] : 0) + carry;
        prod[i] = (u64)v;
        carry = v >> 64;
    }
    std::uint8_t le[64];
    for (int i = 0; i < 8; ++i)
        for (int j = 0; j < 8; ++j)
            le[8 * i + j] = static_cast<std::uint8_t>(prod[i] >> (8 * j));
    return reduceModL(le, 64);
}

bool
scIsCanonical(const std::uint8_t le_bytes[32])
{
    U256 v;
    for (int i = 0; i < 4; ++i) {
        for (int j = 0; j < 8; ++j)
            v.w[i] |= (u64)le_bytes[8 * i + j] << (8 * j);
    }
    return !geq(v, orderL);
}

/** Finish @p h and reduce its 64-byte digest mod L. */
U256
hashModL(Sha512 &h)
{
    auto digest = h.finish();
    return reduceModL(digest.data(), digest.size());
}

} // namespace

Ed25519Key
ed25519ExpandSeed(const Bytes &seed)
{
    fatalIf(seed.size() != 32, "ed25519 seed must be 32 bytes");
    Bytes h = Sha512::digest(seed);
    h[0] &= 248;
    h[31] &= 63;
    h[31] |= 64;
    std::uint8_t pub[32];
    geCompress(pub, geScalarMultBase(h.data()));
    Ed25519Key key;
    key.secret = SecretBytes(std::move(h));
    key.publicKey.assign(pub, pub + 32);
    return key;
}

Bytes
ed25519PublicKey(const Bytes &seed)
{
    return ed25519ExpandSeed(seed).publicKey;
}

Bytes
ed25519Sign(const Bytes &seed, const Bytes &message)
{
    return ed25519Sign(ed25519ExpandSeed(seed), message);
}

Bytes
ed25519Sign(const Ed25519Key &key, const Bytes &message)
{
    const std::uint8_t *scalar = key.secret.get().data();
    const std::uint8_t *prefix = scalar + 32;

    Sha512 hr;
    hr.update(prefix, 32);
    hr.update(message);
    U256 r = hashModL(hr);
    std::uint8_t r_bytes[32];
    scToBytes(r_bytes, r);

    Bytes sig(64);
    geCompress(sig.data(), geScalarMultBase(r_bytes));

    Sha512 hk;
    hk.update(sig.data(), 32);
    hk.update(key.publicKey);
    hk.update(message);
    U256 k = hashModL(hk);

    scToBytes(sig.data() + 32, scMulAdd(k, reduceModL(scalar, 32), r));
    return sig;
}

bool
ed25519Verify(const Bytes &public_key, const Bytes &message,
              const Bytes &signature)
{
    if (public_key.size() != 32 || signature.size() != 64)
        return false;
    if (!scIsCanonical(signature.data() + 32))
        return false;

    GeP3 a_point, r_point;
    if (!geDecompress(a_point, public_key.data()))
        return false;
    if (!geDecompress(r_point, signature.data()))
        return false;

    Sha512 hk;
    hk.update(signature.data(), 32);
    hk.update(public_key);
    hk.update(message);
    std::uint8_t k_bytes[32];
    scToBytes(k_bytes, hashModL(hk));

    // Check S*B == R + k*A. Comparing the points rather than their
    // encodings saves two inversions and decides the same: both are
    // on the curve, where the encoding determines the point.
    GeP3 sb = geScalarMultBase(signature.data() + 32);
    GeP3 rhs = geAdd(r_point, geScalarMult(k_bytes, a_point));
    return geEqual(sb, rhs);
}

} // namespace hypertee
