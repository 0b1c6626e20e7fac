/** @file Unit tests for Sv39-style page tables. */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "mem/page_table.hh"
#include "mem/phys_mem.hh"
#include "sim/random.hh"

namespace hypertee
{
namespace
{

constexpr Addr kBase = 0x8000'0000;
constexpr Addr kSize = 64 * 1024 * 1024;

struct PageTableTest : ::testing::Test
{
    PhysicalMemory mem{kBase, kSize};
    Addr nextFrame = kBase;

    PageTable::FrameAllocator
    allocator()
    {
        return [this] {
            Addr frame = nextFrame;
            nextFrame += pageSize;
            return frame;
        };
    }
};

TEST_F(PageTableTest, MapThenWalk)
{
    PageTable pt(&mem, allocator());
    pt.map(0x4000'0000, kBase + 0x100000, PteRead | PteWrite | PteUser, 7);

    WalkResult res = pt.walk(0x4000'0000 + 0x123);
    ASSERT_TRUE(res.valid);
    EXPECT_EQ(res.pa, kBase + 0x100000 + 0x123);
    EXPECT_EQ(res.keyId, 7);
    EXPECT_TRUE(res.perms & PteRead);
    EXPECT_TRUE(res.perms & PteWrite);
    EXPECT_FALSE(res.perms & PteExec);
    EXPECT_EQ(res.levels, 3);
}

TEST_F(PageTableTest, UnmappedWalkIsInvalid)
{
    PageTable pt(&mem, allocator());
    EXPECT_FALSE(pt.walk(0x5000'0000).valid);
}

TEST_F(PageTableTest, UnmapRemovesTranslation)
{
    PageTable pt(&mem, allocator());
    pt.map(0x4000'0000, kBase + pageSize, PteRead);
    EXPECT_TRUE(pt.unmap(0x4000'0000));
    EXPECT_FALSE(pt.walk(0x4000'0000).valid);
    EXPECT_FALSE(pt.unmap(0x4000'0000));
}

TEST_F(PageTableTest, ManyMappingsCoexist)
{
    PageTable pt(&mem, allocator());
    for (Addr i = 0; i < 600; ++i) {
        // Spread VAs across multiple level-1 tables.
        Addr va = 0x1000'0000 + i * pageSize * 3;
        pt.map(va, kBase + 0x200000 + i * pageSize, PteRead);
    }
    for (Addr i = 0; i < 600; ++i) {
        Addr va = 0x1000'0000 + i * pageSize * 3;
        WalkResult res = pt.walk(va);
        ASSERT_TRUE(res.valid) << "mapping " << i;
        EXPECT_EQ(res.pa, kBase + 0x200000 + i * pageSize);
    }
}

TEST_F(PageTableTest, SeparateTablesAreIndependent)
{
    PageTable a(&mem, allocator());
    PageTable b(&mem, allocator());
    a.map(0x4000'0000, kBase + pageSize, PteRead);
    EXPECT_TRUE(a.walk(0x4000'0000).valid);
    EXPECT_FALSE(b.walk(0x4000'0000).valid);
}

TEST_F(PageTableTest, SetPermsUpdatesLeaf)
{
    PageTable pt(&mem, allocator());
    pt.map(0x4000'0000, kBase + pageSize, PteRead | PteWrite);
    EXPECT_TRUE(pt.setPerms(0x4000'0000, PteRead)); // drop write
    WalkResult res = pt.walk(0x4000'0000);
    EXPECT_TRUE(res.perms & PteRead);
    EXPECT_FALSE(res.perms & PteWrite);
    EXPECT_FALSE(pt.setPerms(0x7000'0000, PteRead)); // unmapped
}

TEST_F(PageTableTest, AccessedDirtyBits)
{
    PageTable pt(&mem, allocator());
    pt.map(0x4000'0000, kBase + pageSize, PteRead | PteWrite);
    EXPECT_FALSE(pt.accessedBit(0x4000'0000));
    EXPECT_FALSE(pt.dirtyBit(0x4000'0000));
    pt.setAccessedDirty(0x4000'0000, true, true);
    EXPECT_TRUE(pt.accessedBit(0x4000'0000));
    EXPECT_TRUE(pt.dirtyBit(0x4000'0000));
    pt.clearAccessedDirty(0x4000'0000);
    EXPECT_FALSE(pt.accessedBit(0x4000'0000));
}

TEST_F(PageTableTest, ForEachMappingEnumeratesAll)
{
    PageTable pt(&mem, allocator());
    std::set<Addr> mapped;
    for (Addr i = 0; i < 20; ++i) {
        Addr va = 0x2000'0000 + i * pageSize;
        pt.map(va, kBase + 0x300000 + i * pageSize, PteRead);
        mapped.insert(va);
    }
    std::set<Addr> seen;
    pt.forEachMapping([&](Addr va, const WalkResult &res) {
        EXPECT_TRUE(res.valid);
        seen.insert(va);
    });
    EXPECT_EQ(seen, mapped);
}

TEST_F(PageTableTest, WalkRecordsVisitedPteAddresses)
{
    PageTable pt(&mem, allocator());
    pt.map(0x4000'0000, kBase + pageSize, PteRead);
    WalkResult res = pt.walk(0x4000'0000);
    ASSERT_EQ(res.levels, 3);
    EXPECT_EQ(res.visited[2], res.pteAddr);
    // Root-level PTE lives inside the root frame.
    EXPECT_GE(res.visited[0], pt.root());
    EXPECT_LT(res.visited[0], pt.root() + pageSize);
}

TEST_F(PageTableTest, TableFramesTracked)
{
    PageTable pt(&mem, allocator());
    EXPECT_EQ(pt.tableFrames().size(), 1u); // root only
    pt.map(0x4000'0000, kBase + pageSize, PteRead);
    EXPECT_EQ(pt.tableFrames().size(), 3u); // root + 2 levels
}

TEST_F(PageTableTest, KeyIdZeroByDefault)
{
    PageTable pt(&mem, allocator());
    pt.map(0x4000'0000, kBase + pageSize, PteRead);
    EXPECT_EQ(pt.walk(0x4000'0000).keyId, 0);
}

TEST_F(PageTableTest, DoubleMapPanics)
{
    PageTable pt(&mem, allocator());
    pt.map(0x4000'0000, kBase + pageSize, PteRead);
    EXPECT_DEATH(pt.map(0x4000'0000, kBase + 2 * pageSize, PteRead),
                 "double map");
}

TEST_F(PageTableTest, WalkRunReportsMissingTablesAsUnmapped)
{
    PageTable pt(&mem, allocator());
    pt.map(0x4000'0000 + 3 * pageSize, kBase + 7 * pageSize, PteRead, 5);
    std::vector<std::uint64_t> ptes;
    bool all = pt.walkRun(0x4000'0000, 4, [&](std::size_t i, std::uint64_t pte) {
        EXPECT_EQ(i, ptes.size());
        ptes.push_back(pte);
        return true;
    });
    EXPECT_TRUE(all);
    ASSERT_EQ(ptes.size(), 4u);
    EXPECT_FALSE(PageTable::leafValid(ptes[0]));
    ASSERT_TRUE(PageTable::leafValid(ptes[3]));
    EXPECT_EQ(PageTable::leafPpn(ptes[3]), pageNumber(kBase) + 7);

    // A range no leaf table covers reads as zero PTEs and allocates
    // nothing; the visitor can stop the walk.
    const std::size_t frames = pt.tableFrames().size();
    std::size_t visited = 0;
    EXPECT_FALSE(pt.walkRun(0x7000'0000, 1000, [&](std::size_t, std::uint64_t pte) {
        EXPECT_EQ(pte, 0u);
        return ++visited < 600;
    }));
    EXPECT_EQ(visited, 600u);
    EXPECT_EQ(pt.tableFrames().size(), frames);
}

/**
 * mapRun/unmapRun/walkRun against per-page map/unmap/walk, over
 * seeded random runs that cross leaf-table (2 MiB) and root (1 GiB)
 * boundaries: the same page-table bytes, the same table frames in
 * the same order, and the same frame-allocator calls.
 */
TEST(PageTableRuns, MatchPerPageCallsOverRandomRuns)
{
    struct Side
    {
        PhysicalMemory mem{kBase, kSize};
        Addr next = kBase;
        std::vector<Addr> calls; ///< frames handed out, in call order
        PageTable pt{&mem, [this] {
                         calls.push_back(next);
                         next += pageSize;
                         return calls.back();
                     }};
    };
    Side run, page;
    Random rng(0x7ab1e5);
    // Anchors just below a root boundary, a leaf-table boundary, and
    // inside one leaf table.
    const Addr anchors[] = {0x4000'0000 - 700 * pageSize,
                            0x1234'0000 - 3 * pageSize, 0x6000'0000};
    std::set<Addr> mapped; // VAs the reference side has mapped
    Addr next_ppn = pageNumber(kBase) + 4096;

    for (int op = 0; op < 400; ++op) {
        const Addr va = anchors[rng.below(3)] + rng.below(1600) * pageSize;
        const std::size_t n = 1 + rng.below(1200);
        if (rng.below(3) != 0) {
            bool free_range = true;
            for (std::size_t i = 0; i < n && free_range; ++i)
                free_range = !mapped.count(va + i * pageSize);
            if (!free_range)
                continue;
            std::vector<Addr> ppns(n);
            for (Addr &ppn : ppns)
                ppn = next_ppn++;
            const std::uint64_t perms =
                PteRead | (rng.below(2) ? std::uint64_t(PteWrite) : 0);
            const KeyId key = static_cast<KeyId>(rng.below(60));
            run.pt.mapRun(va, ppns, perms, key);
            for (std::size_t i = 0; i < n; ++i) {
                page.pt.map(va + i * pageSize, ppns[i] << pageShift, perms,
                            key);
                mapped.insert(va + i * pageSize);
            }
        } else {
            std::size_t removed = 0;
            for (std::size_t i = 0; i < n; ++i) {
                removed += page.pt.unmap(va + i * pageSize);
                mapped.erase(va + i * pageSize);
            }
            ASSERT_EQ(run.pt.unmapRun(va, n), removed) << "op " << op;
        }

        // walkRun sees what per-page walk() sees.
        const Addr probe = anchors[rng.below(3)] + rng.below(1600) * pageSize;
        const std::size_t len = 1 + rng.below(1200);
        run.pt.walkRun(probe, len, [&](std::size_t i, std::uint64_t pte) {
            const WalkResult w = page.pt.walk(probe + i * pageSize);
            EXPECT_EQ(PageTable::leafValid(pte), w.valid);
            if (w.valid) {
                EXPECT_EQ(PageTable::leafPpn(pte), pageNumber(w.pa));
            }
            return true;
        });
    }
    ASSERT_FALSE(mapped.empty());
    EXPECT_EQ(run.calls, page.calls);
    ASSERT_EQ(run.pt.tableFrames(), page.pt.tableFrames());
    EXPECT_GT(run.pt.tableFrames().size(), 8u) << "runs must span tables";
    for (Addr frame : run.pt.tableFrames()) {
        EXPECT_EQ(run.mem.readBytes(frame, pageSize),
                  page.mem.readBytes(frame, pageSize))
            << "table frame " << frame;
    }
}

TEST_F(PageTableTest, MapRunDoubleMapPanics)
{
    PageTable pt(&mem, allocator());
    pt.map(0x4000'0000 + 5 * pageSize, kBase + pageSize, PteRead);
    const std::vector<Addr> ppns = {10, 11, 12, 13, 14, 15, 16, 17};
    EXPECT_DEATH(pt.mapRun(0x4000'0000, ppns, PteRead), "double map");
}

} // namespace
} // namespace hypertee
