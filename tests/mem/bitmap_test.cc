/** @file Unit tests for the enclave memory bitmap. */

#include <gtest/gtest.h>

#include <vector>

#include "mem/bitmap.hh"
#include "mem/phys_mem.hh"
#include "sim/random.hh"

namespace hypertee
{
namespace
{

constexpr Addr kBase = 0x8000'0000;
constexpr Addr kSize = 32 * 1024 * 1024;

struct BitmapTest : ::testing::Test
{
    PhysicalMemory mem{kBase, kSize};
    EnclaveBitmap bm{&mem, kBase};
};

TEST_F(BitmapTest, BitmapProtectsItself)
{
    // The bitmap's own pages must be marked as enclave memory.
    for (Addr p = pageNumber(bm.base());
         p < pageNumber(bm.base() + bm.regionSize()); ++p) {
        EXPECT_TRUE(bm.isEnclavePage(p));
    }
}

TEST_F(BitmapTest, FreshPagesAreNonEnclave)
{
    Addr ppn = pageNumber(kBase + bm.regionSize()) + 10;
    EXPECT_FALSE(bm.isEnclavePage(ppn));
}

TEST_F(BitmapTest, SetAndClearRoundTrip)
{
    Addr ppn = pageNumber(kBase) + 1000;
    EXPECT_TRUE(bm.setEnclavePage(ppn, true));
    EXPECT_TRUE(bm.isEnclavePage(ppn));
    EXPECT_TRUE(bm.setEnclavePage(ppn, false));
    EXPECT_FALSE(bm.isEnclavePage(ppn));
}

TEST_F(BitmapTest, RedundantUpdateDoesNotCount)
{
    Addr ppn = pageNumber(kBase) + 2000;
    std::uint64_t before = bm.updates();
    EXPECT_TRUE(bm.setEnclavePage(ppn, true));
    EXPECT_FALSE(bm.setEnclavePage(ppn, true)); // no change
    EXPECT_EQ(bm.updates(), before + 1);
}

TEST_F(BitmapTest, AdjacentPagesIndependent)
{
    Addr ppn = pageNumber(kBase) + 3000;
    bm.setEnclavePage(ppn, true);
    EXPECT_FALSE(bm.isEnclavePage(ppn - 1));
    EXPECT_FALSE(bm.isEnclavePage(ppn + 1));
    EXPECT_TRUE(bm.isEnclavePage(ppn));
}

TEST_F(BitmapTest, CountsEnclavePages)
{
    std::uint64_t base_count = bm.enclavePageCount();
    Addr ppn = pageNumber(kBase) + 4000;
    bm.setEnclavePage(ppn, true);
    bm.setEnclavePage(ppn + 1, true);
    EXPECT_EQ(bm.enclavePageCount(), base_count + 2);
    bm.setEnclavePage(ppn, false);
    EXPECT_EQ(bm.enclavePageCount(), base_count + 1);
}

TEST_F(BitmapTest, ByteAddrWithinRegion)
{
    Addr ppn = pageNumber(kBase + kSize) - 1; // last page
    Addr byte_addr = bm.byteAddrFor(ppn);
    EXPECT_GE(byte_addr, bm.base());
    EXPECT_LT(byte_addr, bm.base() + bm.regionSize());
}

TEST_F(BitmapTest, RegionSizeMatchesMemory)
{
    // 1 bit per 4 KiB page: 32 MiB -> 8192 pages -> 1024 bytes,
    // rounded up to one whole page.
    EXPECT_EQ(bm.regionSize(), pageSize);
}

/**
 * The batched setter against setEnclavePage() per entry, over seeded
 * lists that mix runs inside one word, runs across words, scattered
 * pages, repeats and the last page: the same bitmap bytes, updates()
 * and enclavePageCount(), and a return value that counts the flips.
 */
TEST(BitmapBatch, MatchesPerBitSetter)
{
    PhysicalMemory batch_mem(kBase, kSize), bit_mem(kBase, kSize);
    EnclaveBitmap batch(&batch_mem, kBase), bit(&bit_mem, kBase);
    const Addr first = pageNumber(kBase);
    const Addr pages = kSize >> pageShift;
    Random rng(0xb17b17);
    for (int op = 0; op < 300; ++op) {
        std::vector<Addr> ppns;
        const std::size_t parts = 1 + rng.below(6);
        for (std::size_t p = 0; p < parts; ++p) {
            const Addr start = first + rng.below(pages);
            const std::size_t len = rng.below(4) == 0 ? 1 : 1 + rng.below(200);
            for (std::size_t i = 0; i < len && start + i < first + pages; ++i)
                ppns.push_back(start + i);
            if (rng.below(4) == 0)
                ppns.push_back(ppns[rng.below(ppns.size())]); // a repeat
        }
        if (op % 50 == 0)
            ppns.push_back(first + pages - 1);
        const bool enclave = rng.below(3) != 0;

        std::uint64_t flips = 0;
        for (Addr ppn : ppns)
            flips += bit.setEnclavePage(ppn, enclave);
        ASSERT_EQ(batch.setEnclavePages(ppns, enclave), flips) << "op " << op;
        ASSERT_EQ(batch.updates(), bit.updates());
        ASSERT_EQ(batch.enclavePageCount(), bit.enclavePageCount());
    }
    EXPECT_GT(bit.enclavePageCount(), 1000u);
    EXPECT_EQ(batch_mem.readBytes(kBase, batch.regionSize()),
              bit_mem.readBytes(kBase, bit.regionSize()));
}

TEST(BitmapDeath, BatchOutsideMemoryPanics)
{
    PhysicalMemory mem(kBase, kSize);
    EnclaveBitmap bm(&mem, kBase);
    const std::vector<Addr> ppns = {pageNumber(kBase + kSize)};
    EXPECT_DEATH(bm.setEnclavePages(ppns, true), "outside");
}

TEST(BitmapDeath, LookupOutsideMemoryPanics)
{
    PhysicalMemory mem(kBase, kSize);
    EnclaveBitmap bm(&mem, kBase);
    EXPECT_DEATH(bm.isEnclavePage(pageNumber(kBase) - 1), "outside");
}

} // namespace
} // namespace hypertee
