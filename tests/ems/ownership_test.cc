/** @file Page ownership table tests. */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <vector>

#include "ems/ownership.hh"
#include "sim/random.hh"

namespace hypertee
{
namespace
{

TEST(Ownership, ClaimAndLookup)
{
    PageOwnershipTable table(0, 1024);
    EXPECT_TRUE(table.claim(100, 1));
    const PageOwner *owner = table.lookup(100);
    ASSERT_NE(owner, nullptr);
    EXPECT_EQ(owner->owner, 1u);
    EXPECT_EQ(owner->kind, PageKind::Private);
    EXPECT_TRUE(table.ownedBy(100, 1));
    EXPECT_FALSE(table.ownedBy(100, 2));
}

TEST(Ownership, DoubleClaimRejected)
{
    // The inter-enclave isolation check (Section IV-B).
    PageOwnershipTable table(0, 1024);
    EXPECT_TRUE(table.claim(100, 1));
    EXPECT_FALSE(table.claim(100, 2));
    EXPECT_EQ(table.lookup(100)->owner, 1u);
    EXPECT_EQ(table.conflicts(), 1u);
}

TEST(Ownership, ReleaseAllowsReclaim)
{
    PageOwnershipTable table(0, 1024);
    table.claim(100, 1);
    EXPECT_TRUE(table.release(100));
    EXPECT_EQ(table.lookup(100), nullptr);
    EXPECT_TRUE(table.claim(100, 2));
    EXPECT_FALSE(table.release(555)) << "releasing unowned page";
}

TEST(Ownership, EnumeratesPagesOfEnclave)
{
    PageOwnershipTable table(0, 1024);
    table.claim(1, 7);
    table.claim(2, 7);
    table.claim(3, 8);
    auto pages = table.pagesOf(7);
    EXPECT_EQ(pages.size(), 2u);
}

TEST(Ownership, TracksSharedPagesByShm)
{
    PageOwnershipTable table(0, 1024);
    table.claim(10, 1, PageKind::Shared, 55);
    table.claim(11, 1, PageKind::Shared, 55);
    table.claim(12, 1, PageKind::Shared, 56);
    EXPECT_EQ(table.pagesOfShm(55).size(), 2u);
    EXPECT_EQ(table.pagesOfShm(56).size(), 1u);
    EXPECT_EQ(table.lookup(10)->kind, PageKind::Shared);
}

TEST(Ownership, PageTableKindTracked)
{
    PageOwnershipTable table(0, 1024);
    table.claim(20, 3, PageKind::PageTable);
    EXPECT_EQ(table.lookup(20)->kind, PageKind::PageTable);
}

TEST(Ownership, RejectsFramesOutsideTheCoveredRange)
{
    // Covers PPNs [1000, 1000 + 700): the last chunk is partial.
    PageOwnershipTable table(1000, 700);
    const Addr outside[] = {0, 999, 1700, 1701, 2048,
                            std::numeric_limits<Addr>::max()};
    for (Addr ppn : outside) {
        EXPECT_FALSE(table.claim(ppn, 1)) << ppn;
        EXPECT_EQ(table.lookup(ppn), nullptr) << ppn;
        EXPECT_FALSE(table.release(ppn)) << ppn;
        EXPECT_FALSE(table.ownedBy(ppn, 1)) << ppn;
    }
    EXPECT_EQ(table.size(), 0u);
    EXPECT_EQ(table.conflicts(), 0u);
    EXPECT_EQ(table.residentChunks(), 0u);
    EXPECT_TRUE(table.claim(1000, 1));
    EXPECT_TRUE(table.claim(1699, 1));
    EXPECT_EQ(table.pagesOf(1), (std::vector<Addr>{1000, 1699}));
    // The unowned marker cannot be claimed as an owner.
    EXPECT_FALSE(table.claim(1001, invalidEnclaveId));
}

TEST(Ownership, RunFormsClaimAndReleaseInOrder)
{
    PageOwnershipTable table(0, 1024);
    const std::vector<Addr> run = {7, 8, 9, 600};
    EXPECT_TRUE(table.claimAll(run, 3, PageKind::Shared, 9));
    EXPECT_EQ(table.pagesOfShm(9), run);
    // Stops at the first conflict: 20 is claimed, 8 is not retaken,
    // 21 is never reached.
    const std::vector<Addr> clash = {20, 8, 21};
    EXPECT_FALSE(table.claimAll(clash, 4));
    EXPECT_TRUE(table.ownedBy(20, 4));
    EXPECT_TRUE(table.ownedBy(8, 3));
    EXPECT_EQ(table.lookup(21), nullptr);
    EXPECT_EQ(table.conflicts(), 1u);
    EXPECT_EQ(table.releaseAll(std::vector<Addr>{7, 21, 600, 5000}), 2u);
    EXPECT_EQ(table.size(), 3u);
}

TEST(Ownership, ChunksAreResidentOnlyWhileOwned)
{
    PageOwnershipTable table(0, 16 * PageOwnershipTable::chunkPages);
    EXPECT_EQ(table.residentChunks(), 0u);
    table.claim(3, 1);
    table.claim(5 * PageOwnershipTable::chunkPages + 1, 1);
    EXPECT_EQ(table.residentChunks(), 2u);
    table.release(3);
    EXPECT_EQ(table.residentChunks(), 1u);
    EXPECT_EQ(table.lookup(3), nullptr);
    table.release(5 * PageOwnershipTable::chunkPages + 1);
    EXPECT_EQ(table.residentChunks(), 0u);
    EXPECT_EQ(table.size(), 0u);
}

/**
 * The flat table against the hash map it replaced, over seeded
 * claim/release/lookup traffic that includes PPNs on both sides of
 * the covered range: the same answers, size(), conflicts(), and
 * pagesOf/pagesOfShm as sets.
 */
TEST(Ownership, MatchesHashMapReference)
{
    const Addr first = 0x80000, count = 3000;
    PageOwnershipTable table(first, count);
    std::unordered_map<Addr, PageOwner> ref;
    std::uint64_t ref_conflicts = 0;
    Random rng(0x0a11e5);
    for (int op = 0; op < 40000; ++op) {
        // Mostly covered PPNs, some just outside either end.
        const Addr ppn = first - 40 + rng.below(count + 80);
        const bool covered = ppn >= first && ppn < first + count;
        const EnclaveId owner = static_cast<EnclaveId>(1 + rng.below(5));
        switch (rng.below(3)) {
          case 0: {
            const auto kind = static_cast<PageKind>(rng.below(3));
            const ShmId shm = kind == PageKind::Shared
                                  ? static_cast<ShmId>(1 + rng.below(4))
                                  : 0;
            bool expect = false;
            if (covered) {
                expect = ref.try_emplace(ppn, PageOwner{owner, kind, shm})
                             .second;
                ref_conflicts += !expect;
            }
            ASSERT_EQ(table.claim(ppn, owner, kind, shm), expect) << op;
            break;
          }
          case 1:
            ASSERT_EQ(table.release(ppn), ref.erase(ppn) != 0) << op;
            break;
          default: {
            const PageOwner *got = table.lookup(ppn);
            auto it = ref.find(ppn);
            ASSERT_EQ(got != nullptr, it != ref.end()) << op;
            if (got) {
                EXPECT_EQ(got->owner, it->second.owner);
                EXPECT_EQ(got->kind, it->second.kind);
                EXPECT_EQ(got->shm, it->second.shm);
            }
            ASSERT_EQ(table.ownedBy(ppn, owner),
                      it != ref.end() && it->second.owner == owner);
          }
        }
        ASSERT_EQ(table.size(), ref.size());
        ASSERT_EQ(table.conflicts(), ref_conflicts);

        if (op % 5000 == 0 || op == 39999) {
            for (EnclaveId e = 1; e <= 5; ++e) {
                std::vector<Addr> want;
                for (const auto &[p, o] : ref)
                    if (o.owner == e)
                        want.push_back(p);
                std::sort(want.begin(), want.end());
                EXPECT_EQ(table.pagesOf(e), want) << "enclave " << e;
            }
            for (ShmId shm = 1; shm <= 4; ++shm) {
                std::vector<Addr> want;
                for (const auto &[p, o] : ref)
                    if (o.kind == PageKind::Shared && o.shm == shm)
                        want.push_back(p);
                std::sort(want.begin(), want.end());
                EXPECT_EQ(table.pagesOfShm(shm), want) << "shm " << shm;
            }
        }
    }
    EXPECT_GT(ref.size(), 100u);
}

} // namespace
} // namespace hypertee
