#include "mem/phys_mem.hh"

#include <cstring>

#include "sim/logging.hh"

namespace hypertee
{

PhysicalMemory::PhysicalMemory(Addr base, Addr size)
    : _base(base), _size(size)
{
    fatalIf(size == 0, "physical memory must be non-empty");
    fatalIf(base % pageSize != 0, "memory base must be page aligned");
    fatalIf(size % pageSize != 0, "memory size must be page aligned");
}

PhysicalMemory::Page &
PhysicalMemory::pageForSlow(Addr page_base)
{
    auto &slot = _pages[page_base];
    if (!slot) {
        slot = std::make_unique<Page>();
        slot->fill(0);
    }
    std::size_t s = lookupSlot(page_base);
    _lookupBase[s] = page_base;
    _lookupPage[s] = slot.get();
    return *slot;
}

const PhysicalMemory::Page *
PhysicalMemory::pageForReadSlow(Addr page_base) const
{
    auto it = _pages.find(page_base);
    if (it == _pages.end())
        return nullptr; // absent pages are never cached
    std::size_t s = lookupSlot(page_base);
    _lookupBase[s] = page_base;
    _lookupPage[s] = it->second.get();
    return it->second.get();
}

void
PhysicalMemory::write(Addr addr, const std::uint8_t *data, Addr len)
{
    panicIf(!containsRange(addr, len), "physical write out of range: ",
            addr, "+", len);
    while (len > 0) {
        Addr in_page = addr - pageAlign(addr);
        Addr take = std::min<Addr>(len, pageSize - in_page);
        std::memcpy(pageFor(addr).data() + in_page, data, take);
        addr += take;
        data += take;
        len -= take;
    }
}

void
PhysicalMemory::read(Addr addr, std::uint8_t *data, Addr len) const
{
    panicIf(!containsRange(addr, len), "physical read out of range: ",
            addr, "+", len);
    while (len > 0) {
        Addr in_page = addr - pageAlign(addr);
        Addr take = std::min<Addr>(len, pageSize - in_page);
        const Page *page = pageForRead(addr);
        if (page) {
            std::memcpy(data, page->data() + in_page, take);
        } else {
            std::memset(data, 0, take);
        }
        addr += take;
        data += take;
        len -= take;
    }
}

void
PhysicalMemory::writeBytes(Addr addr, const Bytes &data)
{
    write(addr, data.data(), data.size());
}

Bytes
PhysicalMemory::readBytes(Addr addr, Addr len) const
{
    Bytes out(len);
    read(addr, out.data(), len);
    return out;
}

std::uint64_t
PhysicalMemory::read64Spanning(Addr addr) const
{
    std::uint8_t buf[8];
    read(addr, buf, 8);
    return load64(buf);
}

void
PhysicalMemory::write64Spanning(Addr addr, std::uint64_t value)
{
    std::uint8_t buf[8];
    store64(buf, value);
    write(addr, buf, 8);
}

void
PhysicalMemory::zero(Addr addr, Addr len)
{
    panicIf(!containsRange(addr, len), "zero out of range");
    while (len > 0) {
        Addr in_page = addr - pageAlign(addr);
        Addr take = std::min<Addr>(len, pageSize - in_page);
        if (in_page == 0 && take == pageSize) {
            // Whole page: drop the backing store instead of writing,
            // and drop any cached pointer into it.
            std::size_t s = lookupSlot(addr);
            if (_lookupPage[s] && _lookupBase[s] == addr)
                _lookupPage[s] = nullptr;
            _pages.erase(addr);
        } else {
            std::memset(pageFor(addr).data() + in_page, 0, take);
        }
        addr += take;
        len -= take;
    }
}

} // namespace hypertee
