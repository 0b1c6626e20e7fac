#include "mem/bitmap.hh"

#include "sim/logging.hh"
#include "sim/trace.hh"

namespace hypertee
{

EnclaveBitmap::EnclaveBitmap(PhysicalMemory *mem, Addr bm_base)
    : _mem(mem), _bmBase(bm_base)
{
    panicIf(mem == nullptr, "bitmap requires physical memory");
    fatalIf(bm_base % pageSize != 0, "BM_BASE must be page aligned");
    fatalIf(!mem->contains(bm_base), "BM_BASE outside physical memory");

    _firstPpn = pageNumber(mem->base());
    _pageCount = mem->size() >> pageShift;
    Addr bytes = (_pageCount + 7) / 8;
    _regionSize = pagesFor(bytes) << pageShift;
    fatalIf(!mem->containsRange(bm_base, _regionSize),
            "bitmap region does not fit in physical memory");

    _mem->zero(_bmBase, _regionSize);

    // The bitmap protects itself: mark its own pages as enclave.
    for (Addr p = pageNumber(_bmBase);
         p < pageNumber(_bmBase + _regionSize); ++p) {
        setEnclavePage(p, true);
    }
}

Addr
EnclaveBitmap::bitIndex(Addr ppn) const
{
    panicIf(ppn < _firstPpn || ppn >= _firstPpn + _pageCount,
            "bitmap lookup for ppn outside memory: ", ppn);
    return ppn - _firstPpn;
}

Addr
EnclaveBitmap::bitAddr(Addr ppn, int &bit_in_byte) const
{
    Addr index = bitIndex(ppn);
    bit_in_byte = static_cast<int>(index % 8);
    return _bmBase + index / 8;
}

bool
EnclaveBitmap::isEnclavePage(Addr ppn) const
{
    int bit;
    Addr addr = bitAddr(ppn, bit);
    std::uint8_t byte;
    _mem->read(addr, &byte, 1);
    return (byte >> bit) & 1;
}

bool
EnclaveBitmap::setEnclavePage(Addr ppn, bool enclave)
{
    int bit;
    Addr addr = bitAddr(ppn, bit);
    std::uint8_t byte;
    _mem->read(addr, &byte, 1);
    bool current = (byte >> bit) & 1;
    if (current == enclave)
        return false;
    if (enclave) {
        byte |= std::uint8_t(1) << bit;
        ++_enclavePages;
    } else {
        byte = static_cast<std::uint8_t>(byte & ~(1 << bit));
        --_enclavePages;
    }
    _mem->write(addr, &byte, 1);
    ++_updates;
    HT_TRACE_INSTANT1(TraceCategory::Bitmap,
                      enclave ? "bitmap.set" : "bitmap.clear",
                      TraceSink::global().now(), "ppn", ppn);
    return true;
}

std::uint64_t
EnclaveBitmap::setEnclavePages(std::span<const Addr> ppns, bool enclave)
{
    // The per-page instants cost a sink lookup each; decide once.
    const bool traced = TraceSink::global().on(TraceCategory::Bitmap);
    std::uint64_t flipped = 0;
    // The open word: its address, its bytes in the bitmap page (null
    // when that page was never written and only clears came, which
    // change nothing), and its value before and after the run.
    Addr word_addr = ~Addr(0);
    std::uint8_t *word_bytes = nullptr;
    std::uint64_t loaded = 0;
    std::uint64_t word = 0;
    // The bitmap page the open word lies in, looked up once per page.
    Addr page = ~Addr(0);
    std::uint8_t *page_bytes = nullptr;
    for (Addr ppn : ppns) {
        const Addr index = bitIndex(ppn);
        // The region is page aligned and a whole number of pages, so
        // the 64-bit word holding any page's bit lies in one page.
        const Addr addr = _bmBase + index / 64 * 8;
        if (addr != word_addr) {
            if (word != loaded)
                PhysicalMemory::store64(word_bytes, word);
            word_addr = addr;
            if (pageAlign(addr) != page) {
                page = pageAlign(addr);
                page_bytes = enclave || _mem->pageData(page)
                                 ? _mem->pageDataForWrite(page)
                                 : nullptr;
            }
            word_bytes = page_bytes ? page_bytes + (addr - page) : nullptr;
            word = loaded = word_bytes ? PhysicalMemory::load64(word_bytes)
                                       : 0;
        }
        const std::uint64_t bit = std::uint64_t(1) << (index % 64);
        if (((word & bit) != 0) == enclave)
            continue;
        word ^= bit;
        ++flipped;
        if (traced) {
            HT_TRACE_INSTANT1(TraceCategory::Bitmap,
                              enclave ? "bitmap.set" : "bitmap.clear",
                              TraceSink::global().now(), "ppn", ppn);
        }
    }
    if (word != loaded)
        PhysicalMemory::store64(word_bytes, word);
    _updates += flipped;
    if (enclave)
        _enclavePages += flipped;
    else
        _enclavePages -= flipped;
    return flipped;
}

} // namespace hypertee
