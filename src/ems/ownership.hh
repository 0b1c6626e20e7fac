/**
 * @file
 * Page ownership table (Sections IV-B, V-B).
 *
 * Lives in EMS private memory. Each entry records which enclave owns
 * a physical page, or that the page backs a shared-memory region.
 * Before mapping a page, the EMS verifies it is not already owned —
 * the isolation between enclaves. Shared pages are tracked with
 * their ShmID so they are never handed out as private memory.
 *
 * The table is flat: one entry per frame of the memory it covers,
 * indexed by PPN, as a monitor keeps it in its own memory. Entries
 * live in chunks of chunkPages frames that are resident only while
 * they hold an owned frame, so the table costs what the owned frames
 * span, not the whole CS range.
 */

#ifndef HYPERTEE_EMS_OWNERSHIP_HH
#define HYPERTEE_EMS_OWNERSHIP_HH

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sim/types.hh"

namespace hypertee
{

enum class PageKind : std::uint8_t
{
    Private,
    Shared,
    PageTable, ///< enclave page-table frames
};

struct PageOwner
{
    EnclaveId owner = invalidEnclaveId; ///< invalidEnclaveId: unowned
    PageKind kind = PageKind::Private;
    ShmId shm = 0;
};

class PageOwnershipTable
{
  public:
    /** Frames per resident chunk of entries. */
    static constexpr Addr chunkPages = 512;

    /** Cover the @p ppn_count frames from @p first_ppn. */
    PageOwnershipTable(Addr first_ppn, Addr ppn_count);

    /**
     * Claim @p ppn for @p owner. Fails when the page already has an
     * owner (the cross-enclave isolation check, counted in
     * conflicts()), lies outside the covered frames, or @p owner is
     * invalidEnclaveId.
     */
    bool claim(Addr ppn, EnclaveId owner, PageKind kind = PageKind::Private,
               ShmId shm = 0);

    /**
     * claim() every frame of @p ppns in order, stopping at the first
     * that fails. @return whether every frame was claimed.
     */
    bool claimAll(std::span<const Addr> ppns, EnclaveId owner,
                  PageKind kind = PageKind::Private, ShmId shm = 0);

    /** Release a page (on EFREE/EDESTROY/ESHMDES). */
    bool release(Addr ppn);

    /** release() every frame of @p ppns; @return how many were owned. */
    std::size_t releaseAll(std::span<const Addr> ppns);

    /**
     * Lookup; nullptr when unowned or outside the covered frames.
     * The entry stays valid until the next release().
     */
    const PageOwner *lookup(Addr ppn) const;

    bool
    ownedBy(Addr ppn, EnclaveId enclave) const
    {
        const PageOwner *o = lookup(ppn);
        return o && o->owner == enclave;
    }

    /** All pages owned by @p enclave, ascending (EDESTROY sweep). */
    std::vector<Addr> pagesOf(EnclaveId enclave) const;

    /** All pages backing @p shm, ascending. */
    std::vector<Addr> pagesOfShm(ShmId shm) const;

    std::size_t size() const { return _owned; }
    std::uint64_t conflicts() const { return _conflicts; }

    /** Chunks of entries currently resident (a memory-cost probe). */
    std::size_t residentChunks() const;

  private:
    struct Chunk
    {
        std::array<PageOwner, chunkPages> entries{};
        std::size_t owned = 0;
    };

    /** Entry of @p ppn if it is covered and its chunk resident. */
    PageOwner *entry(Addr ppn) const;

    template <typename Pred>
    std::vector<Addr> pagesWhere(Pred pred) const;

    Addr _firstPpn;
    Addr _ppnCount;
    std::vector<std::unique_ptr<Chunk>> _chunks;
    std::size_t _owned = 0;
    std::uint64_t _conflicts = 0;
};

} // namespace hypertee

#endif // HYPERTEE_EMS_OWNERSHIP_HH
