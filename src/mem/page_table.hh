/**
 * @file
 * Sv39-style three-level page tables, stored inside simulated
 * physical memory.
 *
 * HyperTEE gives each enclave a *dedicated private page table*
 * maintained by the EMS and stored in enclave memory (Section IV-A),
 * separate from the OS-managed table of its HostApp. Because the
 * table bytes live in PhysicalMemory, "the page table is enclave
 * memory" is an enforceable property here, not a comment: the walker
 * really reads PTEs from bitmap-protected pages.
 *
 * PTE layout (paper Section IV-C: KeyID rides the high PTE bits):
 *   [63:48] KeyID   [53:10] PPN (Sv39 field, 40-bit PA => fits)
 *   bit 7 D, bit 6 A, bit 4 U, bit 3 X, bit 2 W, bit 1 R, bit 0 V
 * A non-leaf PTE has R=W=X=0.
 */

#ifndef HYPERTEE_MEM_PAGE_TABLE_HH
#define HYPERTEE_MEM_PAGE_TABLE_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "mem/phys_mem.hh"
#include "sim/types.hh"

namespace hypertee
{

/** Leaf permissions; combine with |. */
enum PtePerm : std::uint64_t
{
    PteValid = 1ULL << 0,
    PteRead = 1ULL << 1,
    PteWrite = 1ULL << 2,
    PteExec = 1ULL << 3,
    PteUser = 1ULL << 4,
    PteAccessed = 1ULL << 6,
    PteDirty = 1ULL << 7,
};

/** Result of a software table walk. */
struct WalkResult
{
    bool valid = false;
    Addr pa = 0;
    std::uint64_t perms = 0;
    KeyId keyId = 0;
    int levels = 0;        ///< PTEs touched (1..3)
    Addr pteAddr = 0;      ///< physical address of the leaf PTE
    Addr visited[3] = {0, 0, 0}; ///< PTE addresses, root first
};

/**
 * One address space. Table pages are obtained from a caller-supplied
 * frame allocator so OS tables draw from OS memory while enclave
 * tables draw from the EMS enclave memory pool.
 */
class PageTable
{
  public:
    /** Allocate-table-frame callback: returns a zeroed page PA. */
    using FrameAllocator = std::function<Addr()>;

    PageTable(PhysicalMemory *mem, FrameAllocator alloc);

    /** Physical address of the root table (SATP equivalent). */
    Addr root() const { return _root; }

    /** Bytes of virtual address space a table translates (Sv39). */
    static constexpr Addr vaSpace = Addr(1) << 39;

    /**
     * Map one page. @param perms leaf permission bits (PteValid is
     * implied). @param key_id stored in PTE[63:48]. The one-page case
     * of mapRun().
     */
    void map(Addr va, Addr pa, std::uint64_t perms, KeyId key_id = 0);

    /**
     * Map the pages from @p va to the frames @p ppns, page i to
     * ppns[i]. Descends once per leaf table (512 pages) and writes
     * its consecutive PTEs; missing tables are drawn in VA order, so
     * the allocator sees the calls per-page map() would make. Panics
     * on a double map, like map().
     */
    void mapRun(Addr va, std::span<const Addr> ppns, std::uint64_t perms,
                KeyId key_id = 0);

    /** Remove a leaf mapping; returns false when none existed. */
    bool unmap(Addr va);

    /**
     * Remove the leaf mappings of the @p n pages from @p va, one
     * descent per leaf table. @return how many mappings existed.
     */
    std::size_t unmapRun(Addr va, std::size_t n);

    /**
     * Visit the leaf PTEs of the @p n pages from @p va in VA order,
     * one descent per leaf table and without allocating anything:
     * fn(i, pte) for page i, where pte is 0 when no leaf table covers
     * the page. Stops at the first page fn returns false for.
     * @return true when every page was visited.
     */
    template <typename Fn>
    bool
    walkRun(Addr va, std::size_t n, Fn &&fn) const
    {
        for (std::size_t i = 0; i < n;) {
            const Addr table = leafTable(va);
            const std::uint8_t *ptes = table ? _mem->pageData(table) : nullptr;
            const std::size_t take =
                std::min<std::size_t>(n - i, entriesPerTable - vpn(va, 0));
            for (std::size_t k = 0; k < take; ++k, ++i, va += pageSize) {
                const std::uint64_t pte =
                    ptes ? PhysicalMemory::load64(ptes + vpn(va, 0) * 8) : 0;
                if (!fn(i, pte))
                    return false;
            }
        }
        return true;
    }

    /** Does the leaf PTE @p pte (from walkRun) map a page? */
    static bool leafValid(std::uint64_t pte) { return pte & PteValid; }

    /** The frame a valid leaf PTE @p pte maps. */
    static Addr
    leafPpn(std::uint64_t pte)
    {
        return (pte >> ppnShift) & ppnMask;
    }

    /** Software walk (no timing); used by the walker model. */
    WalkResult walk(Addr va) const;

    /** Update permissions of an existing mapping. */
    bool setPerms(Addr va, std::uint64_t perms);

    /** Read A/D bits of the leaf PTE; the controlled-channel lever. */
    bool accessedBit(Addr va) const;
    bool dirtyBit(Addr va) const;
    void clearAccessedDirty(Addr va);
    void setAccessedDirty(Addr va, bool accessed, bool dirty);

    /** Enumerate all leaf mappings: fn(va, WalkResult). */
    void
    forEachMapping(const std::function<void(Addr, const WalkResult &)> &fn)
        const;

    /** All physical pages holding table nodes (root included). */
    const std::vector<Addr> &tableFrames() const { return _frames; }

  private:
    static constexpr int levels = 3;
    static constexpr int bitsPerLevel = 9;
    static constexpr std::size_t entriesPerTable = 1u << bitsPerLevel;
    static constexpr std::uint64_t ppnShift = 10;
    static constexpr std::uint64_t ppnMask = (1ULL << 38) - 1; // PTE[47:10]

    static Addr
    vpn(Addr va, int level)
    {
        // level 2 is the root index, level 0 the leaf index.
        return (va >> (pageShift + bitsPerLevel * level)) &
               (entriesPerTable - 1);
    }

    static Addr
    pteAddrAt(Addr table, Addr va, int level)
    {
        return table + vpn(va, level) * 8;
    }

    static std::uint64_t makeLeaf(Addr ppn, std::uint64_t perms, KeyId key);
    static std::uint64_t makeNode(Addr table_pa);
    static Addr pteTarget(std::uint64_t pte);

    /**
     * The one table descent behind map, unmap and the run calls: the
     * leaf table covering @p va. A missing table is drawn from the
     * allocator when @p allocate, otherwise the result is 0.
     */
    Addr leafTable(Addr va, bool allocate);

    /** leafTable() that never allocates. */
    Addr
    leafTable(Addr va) const
    {
        return const_cast<PageTable *>(this)->leafTable(va, false);
    }

    void walkRecurse(
        Addr table, int level, Addr va_prefix,
        const std::function<void(Addr, const WalkResult &)> &fn) const;

    PhysicalMemory *_mem;
    FrameAllocator _alloc;
    Addr _root;
    std::vector<Addr> _frames;
};

} // namespace hypertee

#endif // HYPERTEE_MEM_PAGE_TABLE_HH
