#include "mem/page_table.hh"

#include "sim/logging.hh"

namespace hypertee
{

namespace
{

constexpr std::uint64_t permMask = 0xff;
constexpr std::uint64_t keyShift = 48;

bool
isLeaf(std::uint64_t pte)
{
    return pte & (PteRead | PteWrite | PteExec);
}

} // namespace

std::uint64_t
PageTable::makeLeaf(Addr ppn, std::uint64_t perms, KeyId key)
{
    return (std::uint64_t(key) << keyShift) | ((ppn & ppnMask) << ppnShift) |
           perms | PteValid;
}

std::uint64_t
PageTable::makeNode(Addr table_pa)
{
    return ((pageNumber(table_pa) & ppnMask) << ppnShift) | PteValid;
}

Addr
PageTable::pteTarget(std::uint64_t pte)
{
    return leafPpn(pte) << pageShift;
}

PageTable::PageTable(PhysicalMemory *mem, FrameAllocator alloc)
    : _mem(mem), _alloc(std::move(alloc))
{
    panicIf(_mem == nullptr, "page table needs physical memory");
    panicIf(!_alloc, "page table needs a frame allocator");
    _root = _alloc();
    panicIf(_root % pageSize != 0, "allocator returned unaligned frame");
    _mem->zero(_root, pageSize);
    _frames.push_back(_root);
}

Addr
PageTable::leafTable(Addr va, bool allocate)
{
    Addr table = _root;
    for (int level = levels - 1; level > 0; --level) {
        Addr pte_addr = pteAddrAt(table, va, level);
        std::uint64_t pte = _mem->read64(pte_addr);
        if (!(pte & PteValid)) {
            if (!allocate)
                return 0;
            Addr frame = _alloc();
            _mem->zero(frame, pageSize);
            _frames.push_back(frame);
            pte = makeNode(frame);
            _mem->write64(pte_addr, pte);
        }
        panicIf(isLeaf(pte), "superpage collision while mapping");
        table = pteTarget(pte);
    }
    return table;
}

void
PageTable::map(Addr va, Addr pa, std::uint64_t perms, KeyId key_id)
{
    panicIf(pa % pageSize != 0, "map requires page-aligned addresses");
    const Addr ppn = pageNumber(pa);
    mapRun(va, {&ppn, 1}, perms, key_id);
}

void
PageTable::mapRun(Addr va, std::span<const Addr> ppns, std::uint64_t perms,
                  KeyId key_id)
{
    panicIf(va % pageSize != 0, "map requires page-aligned addresses");
    perms &= permMask;
    for (std::size_t i = 0; i < ppns.size();) {
        // Drawing a missing table zeroes it, so take its bytes after.
        std::uint8_t *ptes = _mem->pageDataForWrite(leafTable(va, true));
        const std::size_t take = std::min<std::size_t>(
            ppns.size() - i, entriesPerTable - vpn(va, 0));
        for (std::size_t k = 0; k < take; ++k, ++i, va += pageSize) {
            std::uint8_t *leaf = ptes + vpn(va, 0) * 8;
            panicIf(PhysicalMemory::load64(leaf) & PteValid,
                    "double map of va ", va);
            PhysicalMemory::store64(leaf, makeLeaf(ppns[i], perms, key_id));
        }
    }
}

WalkResult
PageTable::walk(Addr va) const
{
    WalkResult res;
    Addr table = _root;
    for (int level = levels - 1; level >= 0; --level) {
        Addr pte_addr = pteAddrAt(table, va, level);
        std::uint64_t pte = _mem->read64(pte_addr);
        res.visited[res.levels] = pte_addr;
        ++res.levels;
        if (!(pte & PteValid))
            return res;
        if (level == 0 || isLeaf(pte)) {
            panicIf(level != 0, "superpages not modelled");
            res.valid = true;
            res.pa = pteTarget(pte) | (va & (pageSize - 1));
            res.perms = pte & permMask;
            res.keyId = static_cast<KeyId>(pte >> keyShift);
            res.pteAddr = pte_addr;
            return res;
        }
        table = pteTarget(pte);
    }
    return res;
}

bool
PageTable::unmap(Addr va)
{
    return unmapRun(va, 1) == 1;
}

std::size_t
PageTable::unmapRun(Addr va, std::size_t n)
{
    std::size_t removed = 0;
    for (std::size_t i = 0; i < n;) {
        const Addr table = leafTable(va, false);
        const std::size_t take =
            std::min<std::size_t>(n - i, entriesPerTable - vpn(va, 0));
        i += take;
        // A table never written holds no mapping.
        if (table == 0 || !_mem->pageData(table)) {
            va += take * pageSize;
            continue;
        }
        std::uint8_t *ptes = _mem->pageDataForWrite(table);
        for (std::size_t k = 0; k < take; ++k, va += pageSize) {
            std::uint8_t *leaf = ptes + vpn(va, 0) * 8;
            if (PhysicalMemory::load64(leaf) & PteValid) {
                PhysicalMemory::store64(leaf, 0);
                ++removed;
            }
        }
    }
    return removed;
}

bool
PageTable::setPerms(Addr va, std::uint64_t perms)
{
    WalkResult res = walk(va);
    if (!res.valid)
        return false;
    std::uint64_t pte = _mem->read64(res.pteAddr);
    pte = (pte & ~permMask) | (perms & permMask) | PteValid;
    _mem->write64(res.pteAddr, pte);
    return true;
}

bool
PageTable::accessedBit(Addr va) const
{
    WalkResult res = walk(va);
    return res.valid && (res.perms & PteAccessed);
}

bool
PageTable::dirtyBit(Addr va) const
{
    WalkResult res = walk(va);
    return res.valid && (res.perms & PteDirty);
}

void
PageTable::clearAccessedDirty(Addr va)
{
    WalkResult res = walk(va);
    if (!res.valid)
        return;
    std::uint64_t pte = _mem->read64(res.pteAddr);
    pte &= ~(std::uint64_t(PteAccessed) | PteDirty);
    _mem->write64(res.pteAddr, pte);
}

void
PageTable::setAccessedDirty(Addr va, bool accessed, bool dirty)
{
    WalkResult res = walk(va);
    if (!res.valid)
        return;
    std::uint64_t pte = _mem->read64(res.pteAddr);
    if (accessed)
        pte |= PteAccessed;
    if (dirty)
        pte |= PteDirty;
    _mem->write64(res.pteAddr, pte);
}

void
PageTable::walkRecurse(
    Addr table, int level, Addr va_prefix,
    const std::function<void(Addr, const WalkResult &)> &fn) const
{
    for (Addr idx = 0; idx < (1ULL << bitsPerLevel); ++idx) {
        std::uint64_t pte = _mem->read64(table + idx * 8);
        if (!(pte & PteValid))
            continue;
        Addr va = va_prefix |
                  (idx << (pageShift + bitsPerLevel * level));
        if (level == 0) {
            WalkResult res;
            res.valid = true;
            res.pa = pteTarget(pte);
            res.perms = pte & permMask;
            res.keyId = static_cast<KeyId>(pte >> keyShift);
            res.pteAddr = table + idx * 8;
            res.levels = levels;
            fn(va, res);
        } else {
            walkRecurse(pteTarget(pte), level - 1, va, fn);
        }
    }
}

void
PageTable::forEachMapping(
    const std::function<void(Addr, const WalkResult &)> &fn) const
{
    walkRecurse(_root, levels - 1, 0, fn);
}

} // namespace hypertee
