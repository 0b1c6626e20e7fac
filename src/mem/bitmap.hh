/**
 * @file
 * The enclave memory bitmap (Section IV-B).
 *
 * One bit per physical page records whether the page belongs to
 * enclave memory. The bitmap itself lives in physical memory and its
 * own pages are marked as enclave memory, so untrusted CS software
 * can neither read nor forge it. Only the EMS updates it (via iHub);
 * the CS page-table walker consults it after every PTW (Figure 5).
 */

#ifndef HYPERTEE_MEM_BITMAP_HH
#define HYPERTEE_MEM_BITMAP_HH

#include <cstdint>
#include <span>

#include "mem/phys_mem.hh"
#include "sim/types.hh"

namespace hypertee
{

class EnclaveBitmap
{
  public:
    /**
     * Place the bitmap covering @p mem inside @p mem at @p bm_base
     * (the BM_BASE register value). Marks the bitmap's own pages as
     * enclave memory.
     */
    EnclaveBitmap(PhysicalMemory *mem, Addr bm_base);

    Addr base() const { return _bmBase; }

    /** Size of the bitmap region in bytes (page aligned). */
    Addr regionSize() const { return _regionSize; }

    /** Is physical page @p ppn enclave memory? */
    bool isEnclavePage(Addr ppn) const;

    /** Is the page holding physical address @p pa enclave memory? */
    bool
    isEnclaveAddr(Addr pa) const
    {
        return isEnclavePage(pageNumber(pa));
    }

    /** Mark/unmark a page; returns true if the bit changed. */
    bool setEnclavePage(Addr ppn, bool enclave);

    /**
     * Mark/unmark every page of @p ppns: the bits, updates() and
     * enclavePageCount() that setEnclavePage() over each entry in
     * order leaves, with one 64-bit read-modify-write per bitmap word
     * that consecutive entries share. The per-page trace instants are
     * emitted when the Bitmap category is on.
     * @return the number of bits that changed.
     */
    std::uint64_t setEnclavePages(std::span<const Addr> ppns, bool enclave);

    /** Physical address of the bitmap byte covering @p ppn. */
    Addr
    byteAddrFor(Addr ppn) const
    {
        return _bmBase + (ppn - _firstPpn) / 8;
    }

    /** Number of bitmap updates that actually flipped a bit. */
    std::uint64_t updates() const { return _updates; }

    /** Number of pages currently marked as enclave memory. */
    std::uint64_t enclavePageCount() const { return _enclavePages; }

  private:
    Addr bitAddr(Addr ppn, int &bit_in_byte) const;
    /** Bit index of @p ppn in the bitmap; panics outside memory. */
    Addr bitIndex(Addr ppn) const;

    PhysicalMemory *_mem;
    Addr _bmBase;
    Addr _regionSize;
    Addr _firstPpn;
    Addr _pageCount;
    std::uint64_t _updates = 0;
    std::uint64_t _enclavePages = 0;
};

} // namespace hypertee

#endif // HYPERTEE_MEM_BITMAP_HH
