#include "crypto/ge25519.hh"

#include <array>
#include <vector>

#include "sim/logging.hh"

namespace hypertee
{

namespace
{

using u64 = std::uint64_t;

/** Completed coordinates, what each formula yields: X/Z, Y/T. */
struct GeP1P1
{
    Fe x, y, z, t;
};

/** Projective coordinates, all a doubling needs: X/Z, Y/Z. */
struct GeP2
{
    Fe x, y, z;
};

/** Affine Niels form of a table entry: y + x, y - x, 2d*x*y. */
struct GePrecomp
{
    Fe yPlusX, yMinusX, xy2d;
};

/** Projective Niels form of a window entry: Y + X, Y - X, Z, 2d*T. */
struct GeCached
{
    Fe yPlusX, yMinusX, z, t2d;
};

/**
 * x with v*x^2 == u, adjusted to @p sign; zero when u/v is not a
 * square (the caller tells that apart from a genuine x = 0).
 */
Fe
recoverX(const Fe &u, const Fe &v, bool sign)
{
    // x = u * v^3 * (u * v^7)^((p-5)/8)
    Fe v3 = feMul(feSq(v), v);
    Fe v7 = feMul(feSq(v3), v);
    Fe x = feMul(feMul(u, v3), fePow2523(feMul(u, v7)));

    Fe vx2 = feMul(v, feSq(x));
    if (!feEqual(vx2, u)) {
        if (feEqual(vx2, feNeg(u)))
            x = feMul(x, feSqrtM1());
        else
            return feZero(); // not a quadratic residue: invalid
    }
    if (feIsNegative(x) != sign)
        x = feNeg(x);
    return x;
}

/** Decode y and the sign of x; false when y is not on the curve. */
bool
pointFromY(GeP3 &out, const Fe &y, bool sign, const Fe &d)
{
    Fe y2 = feSq(y);
    Fe u = feSub(y2, feOne());
    Fe v = feAdd(feMul(d, y2), feOne());
    Fe x = recoverX(u, v, sign);
    if (feIsZero(x) && !feIsZero(u))
        return false;
    out = {x, y, feOne(), feMul(x, y)};
    return true;
}

struct Constants
{
    Fe d;
    Fe d2;
    GeP3 base;

    Constants()
    {
        // d = -121665/121666
        d = feMul(feNeg(feFromUint(121665)),
                  feInvert(feFromUint(121666)));
        d2 = feAdd(d, d);
        Fe by = feMul(feFromUint(4), feInvert(feFromUint(5)));
        panicIf(!pointFromY(base, by, false, d),
                "ge25519: base point not on the curve");
    }
};

const Constants &
consts()
{
    static const Constants c;
    return c;
}

GeP2
toP2(const GeP3 &p)
{
    return {p.x, p.y, p.z};
}

GeP2
toP2(const GeP1P1 &p)
{
    return {feMul(p.x, p.t), feMul(p.y, p.z), feMul(p.z, p.t)};
}

GeP3
toP3(const GeP1P1 &p)
{
    return {feMul(p.x, p.t), feMul(p.y, p.z), feMul(p.z, p.t),
            feMul(p.x, p.y)};
}

GeCached
toCached(const GeP3 &p)
{
    return {feAdd(p.y, p.x), feSub(p.y, p.x), p.z,
            feMul(p.t, consts().d2)};
}

/** 2p (dbl-2008-hwcd); needs no T. */
GeP1P1
dbl(const GeP2 &p)
{
    Fe xx = feSq(p.x);
    Fe yy = feSq(p.y);
    Fe zz = feSq(p.z);
    Fe xy2 = feSq(feAdd(p.x, p.y));
    GeP1P1 r;
    r.y = feAdd(yy, xx);
    r.z = feSub(yy, xx);
    r.x = feSub(xy2, r.y);
    r.t = feSub(feAdd(zz, zz), r.z);
    return r;
}

/** 16p: four doublings, the step between window digits. */
GeP3
times16(const GeP3 &p)
{
    GeP1P1 r = dbl(toP2(p));
    r = dbl(toP2(r));
    r = dbl(toP2(r));
    r = dbl(toP2(r));
    return toP3(r);
}

/** p + q or p - q (add-2008-hwcd-3), q in projective Niels form. */
GeP1P1
addCached(const GeP3 &p, const GeCached &q, bool subtract)
{
    Fe a = feMul(feAdd(p.y, p.x), subtract ? q.yMinusX : q.yPlusX);
    Fe b = feMul(feSub(p.y, p.x), subtract ? q.yPlusX : q.yMinusX);
    Fe c = feMul(q.t2d, p.t);
    Fe zz = feMul(p.z, q.z);
    Fe d = feAdd(zz, zz);
    Fe d_plus_c = feAdd(d, c);
    Fe d_minus_c = feSub(d, c);
    return {feSub(a, b), feAdd(a, b), subtract ? d_minus_c : d_plus_c,
            subtract ? d_plus_c : d_minus_c};
}

/** p + q, q an affine table entry (Z = 1 saves a multiplication). */
GeP1P1
addPrecomp(const GeP3 &p, const GePrecomp &q)
{
    Fe a = feMul(feAdd(p.y, p.x), q.yPlusX);
    Fe b = feMul(feSub(p.y, p.x), q.yMinusX);
    Fe c = feMul(q.xy2d, p.t);
    Fe d = feAdd(p.z, p.z);
    return {feSub(a, b), feAdd(a, b), feAdd(d, c), feSub(d, c)};
}

/**
 * k as 64 signed radix-16 digits in [-8, 8], k = sum e[i] 16^i.
 * With k[31] <= 127 the top digit absorbs the last carry.
 */
std::array<int, 64>
signedRadix16(const std::uint8_t k[32])
{
    std::array<int, 64> e;
    for (int i = 0; i < 32; ++i) {
        e[2 * i] = k[i] & 15;
        e[2 * i + 1] = k[i] >> 4;
    }
    int carry = 0;
    for (int i = 0; i < 63; ++i) {
        e[i] += carry;
        carry = (e[i] + 8) >> 4;
        e[i] -= carry << 4;
    }
    e[63] += carry;
    return e;
}

/** table[i][j] = (j + 1) * 256^i * B, for i < 32, j < 8. */
using BaseTable = std::array<std::array<GePrecomp, 8>, 32>;

BaseTable
buildBaseTable()
{
    const Constants &c = consts();
    std::vector<GeP3> pts(32 * 8);
    GeP3 row = c.base; // 256^i * B
    for (std::size_t i = 0; i < 32; ++i) {
        const GeCached step = toCached(row);
        pts[8 * i] = row;
        for (std::size_t j = 1; j < 8; ++j)
            pts[8 * i + j] =
                toP3(addCached(pts[8 * i + j - 1], step, false));
        for (int k = 0; k < 8; ++k)
            row = toP3(dbl(toP2(row)));
    }

    // Normalize all 256 points with one inversion (Montgomery's
    // trick): prefix[n] is the product of the Z before point n.
    std::vector<Fe> prefix(pts.size());
    Fe acc = feOne();
    for (std::size_t n = 0; n < pts.size(); ++n) {
        prefix[n] = acc;
        acc = feMul(acc, pts[n].z);
    }
    Fe inv = feInvert(acc);
    BaseTable table;
    for (std::size_t n = pts.size(); n-- > 0;) {
        Fe zinv = feMul(inv, prefix[n]);
        inv = feMul(inv, pts[n].z);
        Fe x = feMul(pts[n].x, zinv);
        Fe y = feMul(pts[n].y, zinv);
        table[n / 8][n % 8] = {feAdd(y, x), feSub(y, x),
                               feMul(feMul(x, y), c.d2)};
    }
    return table;
}

const BaseTable &
baseTable()
{
    static const BaseTable table = buildBaseTable();
    return table;
}

/** t = u where @p mask is all ones; t unchanged where it is zero. */
void
cmov(GePrecomp &t, const GePrecomp &u, u64 mask)
{
    for (int i = 0; i < 5; ++i) {
        t.yPlusX[i] ^= mask & (t.yPlusX[i] ^ u.yPlusX[i]);
        t.yMinusX[i] ^= mask & (t.yMinusX[i] ^ u.yMinusX[i]);
        t.xy2d[i] ^= mask & (t.xy2d[i] ^ u.xy2d[i]);
    }
}

/**
 * digit * 256^pos * B, reading every entry of the row so the memory
 * access pattern does not depend on the (secret) digit.
 */
GePrecomp
selectBase(std::size_t pos, int digit)
{
    const int neg = digit >> 31; // -1 when negative, else 0
    const u64 magnitude = static_cast<u64>((digit ^ neg) - neg);
    GePrecomp t = {feOne(), feOne(), feZero()}; // the identity
    const auto &row = baseTable()[pos];
    for (u64 j = 0; j < 8; ++j) {
        u64 diff = magnitude ^ (j + 1);
        cmov(t, row[j], 0 - ((diff - 1) >> 63)); // all ones iff equal
    }
    GePrecomp minus = {t.yMinusX, t.yPlusX, feNeg(t.xy2d)};
    cmov(t, minus, static_cast<u64>(static_cast<std::int64_t>(neg)));
    return t;
}

} // namespace

GeP3
geIdentity()
{
    return {feZero(), feOne(), feOne(), feZero()};
}

const GeP3 &
geBase()
{
    return consts().base;
}

GeP3
geAdd(const GeP3 &p, const GeP3 &q)
{
    return toP3(addCached(p, toCached(q), false));
}

GeP3
geScalarMultBase(const std::uint8_t k[32])
{
    // Digit i weighs 16^i = 256^(i/2), times 16 when i is odd. So sum
    // the odd digits from the 256^(i/2) rows, multiply by 16, then
    // add the even digits from the same rows.
    const std::array<int, 64> e = signedRadix16(k);
    GeP3 h = geIdentity();
    for (std::size_t i = 1; i < 64; i += 2)
        h = toP3(addPrecomp(h, selectBase(i / 2, e[i])));
    h = times16(h);
    for (std::size_t i = 0; i < 64; i += 2)
        h = toP3(addPrecomp(h, selectBase(i / 2, e[i])));
    return h;
}

GeP3
geScalarMult(const std::uint8_t k[32], const GeP3 &a)
{
    const std::array<int, 64> e = signedRadix16(k);
    std::array<GeCached, 8> multiples; // (j + 1) * A
    multiples[0] = toCached(a);
    GeP3 acc = a;
    for (std::size_t j = 1; j < 8; ++j) {
        acc = toP3(addCached(acc, multiples[0], false));
        multiples[j] = toCached(acc);
    }

    int top = 63;
    while (top >= 0 && e[top] == 0)
        --top;
    GeP3 h = geIdentity();
    for (int i = top; i >= 0; --i) {
        if (i != top)
            h = times16(h);
        if (e[i] > 0)
            h = toP3(addCached(h, multiples[e[i] - 1], false));
        else if (e[i] < 0)
            h = toP3(addCached(h, multiples[-e[i] - 1], true));
    }
    return h;
}

void
geCompress(std::uint8_t out[32], const GeP3 &p)
{
    Fe zinv = feInvert(p.z);
    Fe x = feMul(p.x, zinv);
    Fe y = feMul(p.y, zinv);
    feToBytes(out, y);
    if (feIsNegative(x))
        out[31] |= 0x80;
}

bool
geDecompress(GeP3 &out, const std::uint8_t in[32])
{
    return pointFromY(out, feFromBytes(in), (in[31] & 0x80) != 0,
                      consts().d);
}

bool
geEqual(const GeP3 &p, const GeP3 &q)
{
    return feEqual(feMul(p.x, q.z), feMul(q.x, p.z)) &&
           feEqual(feMul(p.y, q.z), feMul(q.y, p.z));
}

Fe
geMontgomeryU(const GeP3 &p)
{
    return feMul(feAdd(p.z, p.y), feInvert(feSub(p.z, p.y)));
}

} // namespace hypertee
