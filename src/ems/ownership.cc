#include "ems/ownership.hh"

namespace hypertee
{

PageOwnershipTable::PageOwnershipTable(Addr first_ppn, Addr ppn_count)
    : _firstPpn(first_ppn), _ppnCount(ppn_count),
      _chunks((ppn_count + chunkPages - 1) / chunkPages)
{
}

PageOwner *
PageOwnershipTable::entry(Addr ppn) const
{
    // One unsigned compare rejects PPNs below and above the range.
    const Addr index = ppn - _firstPpn;
    if (index >= _ppnCount)
        return nullptr;
    Chunk *chunk = _chunks[index / chunkPages].get();
    return chunk ? &chunk->entries[index % chunkPages] : nullptr;
}

bool
PageOwnershipTable::claim(Addr ppn, EnclaveId owner, PageKind kind,
                          ShmId shm)
{
    const Addr index = ppn - _firstPpn;
    if (index >= _ppnCount || owner == invalidEnclaveId)
        return false;
    auto &chunk = _chunks[index / chunkPages];
    if (!chunk)
        chunk = std::make_unique<Chunk>();
    PageOwner &e = chunk->entries[index % chunkPages];
    if (e.owner != invalidEnclaveId) {
        ++_conflicts;
        return false;
    }
    e = PageOwner{owner, kind, shm};
    ++chunk->owned;
    ++_owned;
    return true;
}

bool
PageOwnershipTable::release(Addr ppn)
{
    PageOwner *e = entry(ppn);
    if (!e || e->owner == invalidEnclaveId)
        return false;
    *e = PageOwner{};
    --_owned;
    auto &chunk = _chunks[(ppn - _firstPpn) / chunkPages];
    if (--chunk->owned == 0)
        chunk.reset(); // nothing left to record: stop paying for it
    return true;
}

bool
PageOwnershipTable::claimAll(std::span<const Addr> ppns, EnclaveId owner,
                             PageKind kind, ShmId shm)
{
    for (Addr ppn : ppns) {
        if (!claim(ppn, owner, kind, shm))
            return false;
    }
    return true;
}

std::size_t
PageOwnershipTable::releaseAll(std::span<const Addr> ppns)
{
    std::size_t released = 0;
    for (Addr ppn : ppns)
        released += release(ppn);
    return released;
}

const PageOwner *
PageOwnershipTable::lookup(Addr ppn) const
{
    const PageOwner *e = entry(ppn);
    return e && e->owner != invalidEnclaveId ? e : nullptr;
}

template <typename Pred>
std::vector<Addr>
PageOwnershipTable::pagesWhere(Pred pred) const
{
    std::vector<Addr> out;
    for (std::size_t c = 0; c < _chunks.size(); ++c) {
        if (!_chunks[c])
            continue;
        for (std::size_t i = 0; i < chunkPages; ++i) {
            const PageOwner &e = _chunks[c]->entries[i];
            if (e.owner != invalidEnclaveId && pred(e))
                out.push_back(_firstPpn + c * chunkPages + i);
        }
    }
    return out;
}

std::vector<Addr>
PageOwnershipTable::pagesOf(EnclaveId enclave) const
{
    return pagesWhere(
        [enclave](const PageOwner &e) { return e.owner == enclave; });
}

std::vector<Addr>
PageOwnershipTable::pagesOfShm(ShmId shm) const
{
    return pagesWhere([shm](const PageOwner &e) {
        return e.kind == PageKind::Shared && e.shm == shm;
    });
}

std::size_t
PageOwnershipTable::residentChunks() const
{
    std::size_t n = 0;
    for (const auto &chunk : _chunks)
        n += chunk != nullptr;
    return n;
}

} // namespace hypertee
