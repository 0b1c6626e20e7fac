#include "crypto/hmac.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace hypertee
{

HmacSha256::HmacSha256(const Bytes &key)
{
    std::uint8_t k[Sha256::blockSize] = {};
    if (key.size() > Sha256::blockSize) {
        Sha256 h;
        h.update(key);
        const auto d = h.finish();
        std::copy(d.begin(), d.end(), k);
        h.wipe();
    } else if (!key.empty()) {
        std::copy(key.begin(), key.end(), k);
    }

    std::uint8_t pad[Sha256::blockSize];
    for (std::size_t i = 0; i < Sha256::blockSize; ++i)
        pad[i] = k[i] ^ 0x36;
    _inner.update(pad, sizeof(pad));
    for (std::size_t i = 0; i < Sha256::blockSize; ++i)
        pad[i] = k[i] ^ 0x5c;
    _outer.update(pad, sizeof(pad));
    secureWipe(pad, sizeof(pad));
    secureWipe(k, sizeof(k));
}

HmacSha256::~HmacSha256()
{
    _inner.wipe();
    _outer.wipe();
}

HmacSha256::Tag
HmacSha256::tag(std::initializer_list<std::span<const std::uint8_t>> parts)
    const
{
    Sha256 inner = _inner;
    for (std::span<const std::uint8_t> part : parts)
        inner.update(part.data(), part.size());
    Tag inner_digest = inner.finish();
    inner.wipe();

    Sha256 outer = _outer;
    outer.update(inner_digest.data(), inner_digest.size());
    Tag out = outer.finish();
    outer.wipe();
    secureWipe(inner_digest.data(), inner_digest.size());
    return out;
}

Bytes
hmacSha256(const Bytes &key, const Bytes &message)
{
    HmacSha256::Tag t = HmacSha256(key).tag({message});
    return Bytes(t.begin(), t.end());
}

Bytes
hkdfExtract(const Bytes &salt, const Bytes &ikm)
{
    Bytes s = salt;
    if (s.empty())
        s.assign(Sha256::digestSize, 0);
    return hmacSha256(s, ikm);
}

Bytes
hkdfExpand(const HmacSha256 &prk, const Bytes &info, std::size_t length)
{
    fatalIf(length > 255 * Sha256::digestSize, "HKDF output too long");
    Bytes okm(length);
    HmacSha256::Tag t{};
    std::span<const std::uint8_t> prev; // T(0) is empty
    std::uint8_t counter = 1;
    for (std::size_t done = 0; done < length; done += t.size(), ++counter) {
        t = prk.tag({prev, info, {&counter, 1}});
        std::copy_n(t.begin(), std::min(t.size(), length - done),
                    okm.begin() + static_cast<std::ptrdiff_t>(done));
        prev = t;
    }
    secureWipe(t.data(), t.size());
    return okm;
}

Bytes
hkdfExpand(const Bytes &prk, const Bytes &info, std::size_t length)
{
    return hkdfExpand(HmacSha256(prk), info, length);
}

Bytes
hkdf(const Bytes &ikm, const Bytes &salt, const Bytes &info,
     std::size_t length)
{
    return hkdfExpand(hkdfExtract(salt, ikm), info, length);
}

} // namespace hypertee
