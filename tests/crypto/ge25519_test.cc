/**
 * @file
 * Differential tests of the Ed25519 group layer: the fixed-base [k]B,
 * the windowed [k]A and the fixed-base x25519Base, each against an
 * independent reference over edge scalars and a few thousand seeded
 * ones. The reference for [k]B and [k]A is a plain double-and-add
 * over the unified addition formula, kept here only; the reference for
 * x25519Base is the Montgomery ladder x25519(k, 9).
 */

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "crypto/bytes.hh"
#include "crypto/ge25519.hh"
#include "crypto/x25519.hh"
#include "sim/random.hh"

namespace hypertee
{
namespace
{

using Scalar = std::array<std::uint8_t, 32>;

/** p + q by add-2008-hwcd-3, written out from the formula. */
GeP3
oracleAdd(const GeP3 &p, const GeP3 &q)
{
    static const Fe d2 = [] {
        Fe d = feMul(feNeg(feFromUint(121665)),
                     feInvert(feFromUint(121666)));
        return feAdd(d, d);
    }();
    Fe a = feMul(feSub(p.y, p.x), feSub(q.y, q.x));
    Fe b = feMul(feAdd(p.y, p.x), feAdd(q.y, q.x));
    Fe c = feMul(feMul(p.t, d2), q.t);
    Fe dd = feMul(feAdd(p.z, p.z), q.z);
    Fe e = feSub(b, a);
    Fe f = feSub(dd, c);
    Fe g = feAdd(dd, c);
    Fe h = feAdd(b, a);
    return {feMul(e, f), feMul(g, h), feMul(f, g), feMul(e, h)};
}

/** [k]P by double-and-add over all 256 bits, most significant first. */
GeP3
oracleMult(const Scalar &k, const GeP3 &p)
{
    GeP3 r = geIdentity();
    for (int bit = 255; bit >= 0; --bit) {
        r = oracleAdd(r, r);
        if ((k[bit / 8] >> (bit % 8)) & 1)
            r = oracleAdd(r, p);
    }
    return r;
}

std::string
encode(const GeP3 &p)
{
    std::uint8_t out[32];
    geCompress(out, p);
    return toHex(out, 32);
}

Scalar
fromHexScalar(const char *hex)
{
    Bytes b = fromHex(hex);
    Scalar k{};
    std::copy(b.begin(), b.end(), k.begin());
    return k;
}

Scalar
filled(std::uint8_t byte, std::uint8_t top)
{
    Scalar k;
    k.fill(byte);
    k[31] = top;
    return k;
}

/**
 * Scalars at the edges of the signed radix-16 recoding; all have
 * k[31] <= 127, as both scalar multiplications require.
 */
std::vector<Scalar>
edgeScalars()
{
    std::vector<Scalar> ks;
    ks.push_back(Scalar{}); // 0
    Scalar one{};
    one[0] = 1;
    ks.push_back(one);
    Scalar eight{};
    eight[0] = 8; // the first digit that recodes to -8
    ks.push_back(eight);
    // L - 1, L and L + 1 (L = 2^252 + 2774...8493).
    ks.push_back(fromHexScalar(
        "ecd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010"));
    ks.push_back(fromHexScalar(
        "edd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010"));
    ks.push_back(fromHexScalar(
        "eed3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010"));
    // Clamped extremes: 2^254 and 2^255 - 8, plus 2^255 - 1.
    Scalar clamped_min{};
    clamped_min[31] = 0x40;
    ks.push_back(clamped_min);
    Scalar clamped_max = filled(0xff, 0x7f);
    clamped_max[0] = 0xf8;
    ks.push_back(clamped_max);
    ks.push_back(filled(0xff, 0x7f));
    // Every nibble 8 (or 15, as in 2^255 - 1 above): each digit
    // recodes negative and carries into the next, up to a top digit
    // of 8.
    ks.push_back(filled(0x88, 0x78));
    // Every nibble 7: no digit carries.
    ks.push_back(filled(0x77, 0x77));
    // Alternating 8s and 7s, and 9s: carries that start and stop.
    ks.push_back(filled(0x78, 0x78));
    ks.push_back(filled(0x99, 0x79));
    return ks;
}

std::vector<Scalar>
randomScalars(std::uint64_t seed, int count)
{
    Random rng(seed);
    std::vector<Scalar> ks(static_cast<std::size_t>(count));
    for (Scalar &k : ks) {
        for (auto &b : k)
            b = static_cast<std::uint8_t>(rng.next());
        k[31] &= 0x7f;
    }
    return ks;
}

TEST(Ge25519, FixedBaseMatchesDoubleAndAdd)
{
    std::vector<Scalar> ks = edgeScalars();
    std::vector<Scalar> rnd = randomScalars(25519, 2000);
    ks.insert(ks.end(), rnd.begin(), rnd.end());
    for (const Scalar &k : ks) {
        ASSERT_EQ(encode(geScalarMultBase(k.data())),
                  encode(oracleMult(k, geBase())))
            << toHex(k.data(), 32);
    }
}

TEST(Ge25519, WindowedMatchesDoubleAndAdd)
{
    // Bases: B, a point of order 4 (y = 0) that lies outside the
    // prime-order subgroup, and random curve points, most of which
    // carry a small-order component too.
    std::vector<GeP3> bases = {geBase()};
    std::uint8_t y_zero[32] = {};
    GeP3 order4;
    ASSERT_TRUE(geDecompress(order4, y_zero));
    bases.push_back(order4);
    Random rng(7748);
    while (bases.size() < 24) {
        std::uint8_t enc[32];
        for (auto &b : enc)
            b = static_cast<std::uint8_t>(rng.next());
        GeP3 p;
        if (geDecompress(p, enc))
            bases.push_back(p);
    }

    std::vector<Scalar> ks = edgeScalars();
    std::size_t edge_count = ks.size();
    std::vector<Scalar> rnd = randomScalars(8032, 1200);
    ks.insert(ks.end(), rnd.begin(), rnd.end());
    for (std::size_t i = 0; i < ks.size(); ++i) {
        // Every edge scalar against every base; random scalars
        // against one base each, in turn.
        for (std::size_t j = 0; j < bases.size(); ++j) {
            if (i >= edge_count && j != i % bases.size())
                continue;
            ASSERT_EQ(encode(geScalarMult(ks[i].data(), bases[j])),
                      encode(oracleMult(ks[i], bases[j])))
                << "k " << toHex(ks[i].data(), 32) << " base " << j;
        }
    }
}

TEST(Ge25519, X25519BaseMatchesLadder)
{
    Bytes nine(32, 0);
    nine[0] = 9;
    std::vector<Scalar> ks = edgeScalars();
    // x25519 clamps, so random scalars may use all 256 bits here.
    Random rng(7748);
    for (int i = 0; i < 2000; ++i) {
        Scalar k;
        for (auto &b : k)
            b = static_cast<std::uint8_t>(rng.next());
        ks.push_back(k);
    }
    for (const Scalar &k : ks) {
        Bytes scalar(k.begin(), k.end());
        ASSERT_EQ(toHex(x25519Base(scalar)), toHex(x25519(scalar, nine)))
            << toHex(scalar);
    }
}

TEST(Ge25519, AdditionAndEqualityAgreeWithTheOracle)
{
    Random rng(1);
    for (int i = 0; i < 64; ++i) {
        Scalar a = randomScalars(rng.next(), 1)[0];
        Scalar b = randomScalars(rng.next(), 1)[0];
        GeP3 pa = geScalarMultBase(a.data());
        GeP3 pb = geScalarMultBase(b.data());
        GeP3 sum = geAdd(pa, pb);
        EXPECT_EQ(encode(sum), encode(oracleAdd(pa, pb)));
        EXPECT_TRUE(geEqual(sum, oracleAdd(pb, pa)));
        EXPECT_FALSE(geEqual(sum, pa));
    }
    EXPECT_TRUE(geEqual(geAdd(geBase(), geIdentity()), geBase()));
}

} // namespace
} // namespace hypertee
