#include "crypto/sha256.hh"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace hypertee
{

namespace
{

constexpr std::uint32_t kTable[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5,
    0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
    0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3,
    0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5,
    0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

std::uint32_t
rotr(std::uint32_t x, int n)
{
    return (x >> n) | (x << (32 - n));
}

} // namespace

Sha256::Sha256()
{
    _state[0] = 0x6a09e667;
    _state[1] = 0xbb67ae85;
    _state[2] = 0x3c6ef372;
    _state[3] = 0xa54ff53a;
    _state[4] = 0x510e527f;
    _state[5] = 0x9b05688c;
    _state[6] = 0x1f83d9ab;
    _state[7] = 0x5be0cd19;
}

namespace sha256_detail
{

void
compressPortable(std::uint32_t *state, const std::uint8_t *blocks,
                 std::size_t n)
{
    for (; n > 0; --n, blocks += Sha256::blockSize) {
        const std::uint8_t *block = blocks;
        std::uint32_t w[64];
        for (int i = 0; i < 16; ++i) {
            w[i] = (std::uint32_t(block[4 * i]) << 24) |
                   (std::uint32_t(block[4 * i + 1]) << 16) |
                   (std::uint32_t(block[4 * i + 2]) << 8) |
                   std::uint32_t(block[4 * i + 3]);
        }
        for (int i = 16; i < 64; ++i) {
            std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^
                               (w[i - 15] >> 3);
            std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^
                               (w[i - 2] >> 10);
            w[i] = w[i - 16] + s0 + w[i - 7] + s1;
        }

        std::uint32_t a = state[0], b = state[1], c = state[2],
                      d = state[3], e = state[4], f = state[5],
                      g = state[6], h = state[7];

        for (int i = 0; i < 64; ++i) {
            std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
            std::uint32_t ch = (e & f) ^ (~e & g);
            std::uint32_t temp1 = h + s1 + ch + kTable[i] + w[i];
            std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
            std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
            std::uint32_t temp2 = s0 + maj;
            h = g;
            g = f;
            f = e;
            e = d + temp1;
            d = c;
            c = b;
            b = a;
            a = temp1 + temp2;
        }

        state[0] += a;
        state[1] += b;
        state[2] += c;
        state[3] += d;
        state[4] += e;
        state[5] += f;
        state[6] += g;
        state[7] += h;
    }
}

#if defined(__x86_64__)

namespace
{

// Only these functions may use the SHA and SSE4.1 instructions; the
// rest of the binary stays baseline x86-64 and runs on hosts without
// them. They are reached only after CPUID said yes.
#define HT_SHA_TARGET __attribute__((target("sha,sse4.1,ssse3")))

/** Four big-endian message words from @p p. */
HT_SHA_TARGET inline __m128i
loadWords(const std::uint8_t *p, __m128i bswap)
{
    return _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(p)), bswap);
}

/** Message words 4g..4g+3 from the four groups before them. */
HT_SHA_TARGET inline __m128i
nextMessage(__m128i w0, __m128i w1, __m128i w2, __m128i w3)
{
    __m128i t = _mm_sha256msg1_epu32(w0, w1);
    t = _mm_add_epi32(t, _mm_alignr_epi8(w3, w2, 4));
    return _mm_sha256msg2_epu32(t, w3);
}

/** Rounds 4g..4g+3 on the ABEF/CDGH state halves. */
HT_SHA_TARGET inline void
fourRounds(__m128i &abef, __m128i &cdgh, __m128i w, int g)
{
    __m128i wk = _mm_add_epi32(
        w, _mm_loadu_si128(
               reinterpret_cast<const __m128i *>(kTable + 4 * g)));
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
}

HT_SHA_TARGET void
compressShaNi(std::uint32_t *state, const std::uint8_t *blocks,
              std::size_t n)
{
    // Byte-swaps each 32-bit lane: message words are big-endian.
    const __m128i bswap =
        _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);

    // sha256rnds2 wants the state as {A,B,E,F} and {C,D,G,H}.
    __m128i dcba =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(state));
    __m128i hgfe =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(state + 4));
    __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
    __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
    __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
    __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

    for (; n > 0; --n, blocks += Sha256::blockSize) {
        const __m128i abef_in = abef, cdgh_in = cdgh;
        __m128i w0 = loadWords(blocks, bswap);
        __m128i w1 = loadWords(blocks + 16, bswap);
        __m128i w2 = loadWords(blocks + 32, bswap);
        __m128i w3 = loadWords(blocks + 48, bswap);
        fourRounds(abef, cdgh, w0, 0);
        fourRounds(abef, cdgh, w1, 1);
        fourRounds(abef, cdgh, w2, 2);
        fourRounds(abef, cdgh, w3, 3);
        for (int g = 4; g < 16; g += 4) {
            w0 = nextMessage(w0, w1, w2, w3);
            fourRounds(abef, cdgh, w0, g);
            w1 = nextMessage(w1, w2, w3, w0);
            fourRounds(abef, cdgh, w1, g + 1);
            w2 = nextMessage(w2, w3, w0, w1);
            fourRounds(abef, cdgh, w2, g + 2);
            w3 = nextMessage(w3, w0, w1, w2);
            fourRounds(abef, cdgh, w3, g + 3);
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
    __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(state),
                     _mm_blend_epi16(feba, dchg, 0xf0));
    _mm_storeu_si128(reinterpret_cast<__m128i *>(state + 4),
                     _mm_alignr_epi8(dchg, feba, 8));
}

#undef HT_SHA_TARGET

} // namespace

#endif // __x86_64__

Compressor
hardwareCompressor()
{
#if defined(__x86_64__)
    // Asked once, on first use: CPUID leaf 1 for SSSE3 and SSE4.1,
    // leaf 7 for the SHA extensions.
    static const bool has_sha = [] {
        unsigned a = 0, b = 0, c = 0, d = 0;
        if (!__get_cpuid(1, &a, &b, &c, &d))
            return false;
        const bool sse = (c & bit_SSSE3) && (c & bit_SSE4_1);
        if (!__get_cpuid_count(7, 0, &a, &b, &c, &d))
            return false;
        return sse && (b & bit_SHA) != 0;
    }();
    return has_sha ? compressShaNi : nullptr;
#else
    return nullptr;
#endif
}

} // namespace sha256_detail

namespace
{

/** The compressor every Sha256 uses: hardware when present. */
void
compress(std::uint32_t *state, const std::uint8_t *blocks, std::size_t n)
{
    static const sha256_detail::Compressor chosen = [] {
        sha256_detail::Compressor hw = sha256_detail::hardwareCompressor();
        return hw ? hw : sha256_detail::compressPortable;
    }();
    chosen(state, blocks, n);
}

} // namespace

void
Sha256::update(const std::uint8_t *data, std::size_t len)
{
    if (len == 0)
        return;
    _bitLen += std::uint64_t(len) * 8;

    // Complete a buffered partial block first ...
    if (_bufLen > 0) {
        std::size_t take = std::min(len, blockSize - _bufLen);
        std::memcpy(_buffer + _bufLen, data, take);
        _bufLen += take;
        data += take;
        len -= take;
        if (_bufLen < blockSize)
            return;
        compress(_state, _buffer, 1);
        _bufLen = 0;
    }
    // ... then hash every whole block straight from the caller's
    // buffer in one call, and keep the tail.
    std::size_t whole = len / blockSize;
    if (whole > 0) {
        compress(_state, data, whole);
        data += whole * blockSize;
        len -= whole * blockSize;
    }
    if (len > 0)
        std::memcpy(_buffer, data, len);
    _bufLen = len;
}

std::array<std::uint8_t, Sha256::digestSize>
Sha256::finish()
{
    // 0x80, zeros, then the 64-bit big-endian bit length: one block
    // if the tail leaves room for the 9 bytes, two otherwise.
    std::uint8_t pad[2 * blockSize] = {};
    std::memcpy(pad, _buffer, _bufLen);
    pad[_bufLen] = 0x80;
    std::size_t blocks = _bufLen < blockSize - 8 ? 1 : 2;
    std::uint8_t *len_bytes = pad + blocks * blockSize - 8;
    for (int i = 0; i < 8; ++i)
        len_bytes[i] = static_cast<std::uint8_t>(_bitLen >> (56 - 8 * i));
    compress(_state, pad, blocks);

    std::array<std::uint8_t, digestSize> out;
    for (int i = 0; i < 8; ++i) {
        out[4 * i] = static_cast<std::uint8_t>(_state[i] >> 24);
        out[4 * i + 1] = static_cast<std::uint8_t>(_state[i] >> 16);
        out[4 * i + 2] = static_cast<std::uint8_t>(_state[i] >> 8);
        out[4 * i + 3] = static_cast<std::uint8_t>(_state[i]);
    }
    return out;
}

void
Sha256::wipe()
{
    secureWipe(_state, sizeof(_state));
    secureWipe(_buffer, sizeof(_buffer));
    _bitLen = 0;
    _bufLen = 0;
}

Bytes
Sha256::digest(const std::uint8_t *data, std::size_t len)
{
    Sha256 h;
    h.update(data, len);
    auto d = h.finish();
    return Bytes(d.begin(), d.end());
}

Bytes
Sha256::digest(const Bytes &data)
{
    return digest(data.data(), data.size());
}

} // namespace hypertee
