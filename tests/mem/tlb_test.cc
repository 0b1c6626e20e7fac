/** @file Unit tests for the TLB model. */

#include <gtest/gtest.h>

#include <vector>

#include "mem/page_table.hh"
#include "mem/tlb.hh"
#include "sim/random.hh"

namespace hypertee
{
namespace
{

TEST(Tlb, MissThenHit)
{
    Tlb tlb(32, 4);
    EXPECT_EQ(tlb.lookup(0x1000), nullptr);
    tlb.insert(0x1000, 0x8000'1000, PteRead, 0, true);
    const TlbEntry *e = tlb.lookup(0x1000);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->ppn, pageNumber(0x8000'1000));
    EXPECT_TRUE(e->bitmapChecked);
    EXPECT_EQ(tlb.hits(), 1u);
    EXPECT_EQ(tlb.misses(), 1u);
}

TEST(Tlb, OffsetWithinPageStillHits)
{
    Tlb tlb(32, 4);
    tlb.insert(0x1000, 0x8000'1000, PteRead, 0, false);
    EXPECT_NE(tlb.lookup(0x1abc), nullptr);
    EXPECT_EQ(tlb.lookup(0x2000), nullptr);
}

TEST(Tlb, LruEvictionWithinSet)
{
    Tlb tlb(4, 4); // one set, 4 ways
    for (Addr i = 0; i < 4; ++i)
        tlb.insert(i * 0x1000, 0x8000'0000 + i * 0x1000, PteRead, 0,
                   false);
    // Touch entries 1..3 so entry 0 becomes LRU.
    for (Addr i = 1; i < 4; ++i)
        EXPECT_NE(tlb.lookup(i * 0x1000), nullptr);
    tlb.insert(0x9000, 0x8000'9000, PteRead, 0, false);
    EXPECT_EQ(tlb.lookup(0x0000), nullptr) << "LRU entry evicted";
    EXPECT_NE(tlb.lookup(0x9000), nullptr);
}

TEST(Tlb, FlushAllEmptiesEverything)
{
    Tlb tlb(16, 4);
    for (Addr i = 0; i < 8; ++i)
        tlb.insert(i * 0x1000, 0x8000'0000 + i * 0x1000, PteRead, 0,
                   false);
    tlb.flushAll();
    for (Addr i = 0; i < 8; ++i)
        EXPECT_EQ(tlb.lookup(i * 0x1000), nullptr);
    EXPECT_EQ(tlb.flushes(), 1u);
}

TEST(Tlb, FlushPageIsTargeted)
{
    Tlb tlb(16, 4);
    tlb.insert(0x1000, 0x8000'1000, PteRead, 0, false);
    tlb.insert(0x2000, 0x8000'2000, PteRead, 0, false);
    tlb.flushPage(0x1000);
    EXPECT_EQ(tlb.lookup(0x1000), nullptr);
    EXPECT_NE(tlb.lookup(0x2000), nullptr);
    EXPECT_EQ(tlb.flushes(), 1u);
    EXPECT_EQ(tlb.flushRequests(), 1u);
    EXPECT_EQ(tlb.invalidations(), 1u);
}

TEST(Tlb, FlushPageMissIsNotCountedAsFlush)
{
    // Regression: a flushPage that matches no entry used to bump
    // flushes(), inflating the Figure 11 flush attribution. It is
    // now only a flush *request*.
    Tlb tlb(16, 4);
    tlb.insert(0x1000, 0x8000'1000, PteRead, 0, false);
    tlb.flushPage(0x5000);
    EXPECT_EQ(tlb.flushes(), 0u);
    EXPECT_EQ(tlb.flushRequests(), 1u);
    EXPECT_EQ(tlb.invalidations(), 0u);
    EXPECT_NE(tlb.lookup(0x1000), nullptr) << "entry untouched";

    // A second no-op flush of the same page still counts a request.
    tlb.flushPage(0x5000);
    EXPECT_EQ(tlb.flushRequests(), 2u);
    EXPECT_EQ(tlb.flushes(), 0u);
}

TEST(Tlb, FlushAllCountsInvalidatedEntries)
{
    Tlb tlb(16, 4);
    for (Addr i = 0; i < 5; ++i)
        tlb.insert(i * 0x1000, 0x8000'0000 + i * 0x1000, PteRead, 0,
                   false);
    tlb.flushAll();
    EXPECT_EQ(tlb.flushes(), 1u);
    EXPECT_EQ(tlb.flushRequests(), 1u);
    EXPECT_EQ(tlb.invalidations(), 5u);

    // flushAll of an empty TLB is still a full hardware walk.
    tlb.flushAll();
    EXPECT_EQ(tlb.flushes(), 2u);
    EXPECT_EQ(tlb.flushRequests(), 2u);
    EXPECT_EQ(tlb.invalidations(), 5u);
}

TEST(Tlb, ReinsertUpdatesExistingEntry)
{
    Tlb tlb(16, 4);
    tlb.insert(0x1000, 0x8000'1000, PteRead, 3, false);
    tlb.insert(0x1000, 0x8000'5000, PteRead | PteWrite, 4, true);
    const TlbEntry *e = tlb.lookup(0x1000);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->ppn, pageNumber(0x8000'5000));
    EXPECT_EQ(e->keyId, 4);
    EXPECT_TRUE(e->bitmapChecked);
}

TEST(Tlb, MissRateAccounting)
{
    Tlb tlb(16, 4);
    tlb.lookup(0x1000);
    tlb.insert(0x1000, 0x8000'1000, PteRead, 0, false);
    tlb.lookup(0x1000);
    tlb.lookup(0x1000);
    tlb.lookup(0x1000);
    EXPECT_DOUBLE_EQ(tlb.missRate(), 0.25);
}

/**
 * The TLB's replacement and counters restated over a plain entry
 * array, with flushAll() counting live entries by a full scan.
 */
class ReferenceTlb
{
  public:
    ReferenceTlb(std::size_t entries, std::size_t ways)
        : _ways(ways), _sets(entries / ways), _entries(entries)
    {}

    bool
    lookup(Addr va)
    {
        Way *w = find(pageNumber(va));
        if (w) {
            w->stamp = ++_stamp;
            ++hits;
            return true;
        }
        ++misses;
        return false;
    }

    void
    insert(Addr va)
    {
        Addr vpn = pageNumber(va);
        Way *victim = find(vpn);
        if (!victim) {
            Way *set = &_entries[(vpn % _sets) * _ways];
            victim = set;
            for (std::size_t w = 0; w < _ways && victim->valid; ++w) {
                if (!set[w].valid || set[w].stamp < victim->stamp)
                    victim = &set[w];
            }
        }
        *victim = {true, vpn, ++_stamp};
    }

    void
    flushAll()
    {
        ++flushRequests;
        ++flushes;
        for (Way &w : _entries) {
            invalidations += w.valid ? 1 : 0;
            w.valid = false;
        }
    }

    void
    flushPage(Addr va)
    {
        ++flushRequests;
        if (Way *w = find(pageNumber(va))) {
            w->valid = false;
            ++flushes;
            ++invalidations;
        }
    }

    std::size_t
    live() const
    {
        std::size_t n = 0;
        for (const Way &w : _entries)
            n += w.valid ? 1 : 0;
        return n;
    }

    std::uint64_t hits = 0, misses = 0, flushes = 0, flushRequests = 0,
                  invalidations = 0;

  private:
    struct Way
    {
        bool valid = false;
        Addr vpn = 0;
        std::uint64_t stamp = 0;
    };

    Way *
    find(Addr vpn)
    {
        Way *set = &_entries[(vpn % _sets) * _ways];
        for (std::size_t w = 0; w < _ways; ++w)
            if (set[w].valid && set[w].vpn == vpn)
                return &set[w];
        return nullptr;
    }

    std::size_t _ways;
    std::size_t _sets;
    std::vector<Way> _entries;
    std::uint64_t _stamp = 0;
};

TEST(TlbLiveCount, MatchesAFullScanReference)
{
    // Seeded insert/lookup/flushPage/flushAll mixes on small TLBs
    // (a power-of-two set count and an odd associativity), often
    // flushing an empty or near-empty TLB.
    struct Geometry
    {
        std::size_t entries, ways;
    };
    for (Geometry g : {Geometry{16, 4}, Geometry{12, 3}}) {
        for (std::uint64_t seed = 1; seed <= 8; ++seed) {
            Tlb tlb(g.entries, g.ways);
            ReferenceTlb ref(g.entries, g.ways);
            Random rng(seed);
            for (int step = 0; step < 4000; ++step) {
                Addr va = rng.below(40) * pageSize;
                switch (rng.below(seed % 2 ? 8 : 24)) {
                  case 0:
                    tlb.flushAll();
                    ref.flushAll();
                    break;
                  case 1:
                  case 2:
                    tlb.flushPage(va);
                    ref.flushPage(va);
                    break;
                  case 3:
                  case 4:
                  case 5:
                    tlb.insert(va, 0x8000'0000 + va, PteRead, 0, false);
                    ref.insert(va);
                    break;
                  default:
                    ASSERT_EQ(tlb.lookup(va) != nullptr, ref.lookup(va));
                    break;
                }
                ASSERT_EQ(tlb.liveEntries(), ref.live())
                    << "seed " << seed << " step " << step;
            }
            EXPECT_EQ(tlb.hits(), ref.hits);
            EXPECT_EQ(tlb.misses(), ref.misses);
            EXPECT_EQ(tlb.flushes(), ref.flushes);
            EXPECT_EQ(tlb.flushRequests(), ref.flushRequests);
            EXPECT_EQ(tlb.invalidations(), ref.invalidations);
        }
    }
}

TEST(TlbLiveCount, FlushAllOfAnEmptyTlbIsOneFlush)
{
    Tlb tlb(1024, 8);
    tlb.flushAll();
    EXPECT_EQ(tlb.flushes(), 1u);
    EXPECT_EQ(tlb.flushRequests(), 1u);
    EXPECT_EQ(tlb.invalidations(), 0u);

    // Emptied one page at a time: still nothing left to walk.
    tlb.insert(0x1000, 0x8000'1000, PteRead, 0, false);
    tlb.flushPage(0x1000);
    EXPECT_EQ(tlb.liveEntries(), 0u);
    tlb.flushAll();
    EXPECT_EQ(tlb.flushes(), 3u);
    EXPECT_EQ(tlb.invalidations(), 1u);
    EXPECT_EQ(tlb.lookup(0x1000), nullptr);
}

TEST(TlbDeath, BadGeometryIsFatal)
{
    EXPECT_DEATH(
        {
            Tlb t(10, 4);
            (void)t;
        },
        "divide");
}

} // namespace
} // namespace hypertee
