/** @file EMS runtime tests: all sixteen primitives + security rules. */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "ems/runtime.hh"
#include "sim/random.hh"

namespace hypertee
{
namespace
{

constexpr Addr kCsBase = 0x8000'0000;
constexpr Addr kCsSize = 256 * 1024 * 1024;
constexpr Addr kEmsBase = 0x10'0000'0000ULL;
constexpr Addr kEmsSize = 16 * 1024 * 1024;

struct RuntimeFixture : ::testing::Test
{
    PhysicalMemory csMem{kCsBase, kCsSize};
    PhysicalMemory emsMem{kEmsBase, kEmsSize};
    EnclaveBitmap bitmap{&csMem, kCsBase};
    MemoryEncryptionEngine enc{64};
    IHub hub{&csMem, &emsMem, &bitmap, &enc};
    EmsPort &port = hub.emsPort();
    Addr frameCursor = kCsBase + 0x100000;
    /** Frames the OS still grants; lower it to model a small SoC. */
    std::size_t osPagesLeft = std::numeric_limits<std::size_t>::max();
    std::unique_ptr<EmsRuntime> rt;

    void
    SetUp() override
    {
        EFuse fuse;
        fuse.endorsementSeed = Bytes(32, 1);
        fuse.sealedKey = Bytes(32, 2);
        KeyManager km(fuse);

        EmsRuntimeParams params;
        params.pool.initialPages = 2048;
        params.pool.refillBatch = 512;
        auto os_alloc = [this](std::size_t n) {
            std::vector<Addr> out;
            for (std::size_t i = 0; i < n && osPagesLeft > 0; ++i) {
                out.push_back(pageNumber(frameCursor));
                frameCursor += pageSize;
                --osPagesLeft;
            }
            return out;
        };
        rt = std::make_unique<EmsRuntime>(&port, &csMem, km, params,
                                          os_alloc, nullptr);
        Bytes image = bytesFromString("runtime");
        Bytes fw = bytesFromString("firmware");
        ASSERT_TRUE(rt->secureBoot(image, Sha256::digest(image), fw,
                                   Sha256::digest(fw)));
    }

    PrimitiveResponse
    invoke(PrimitiveOp op, PrivMode mode,
           std::vector<std::uint64_t> args, EnclaveId caller = 0,
           Bytes payload = {})
    {
        PrimitiveRequest req;
        req.reqId = ++reqId;
        req.op = op;
        req.mode = mode;
        req.args = std::move(args);
        req.caller = caller;
        req.payload = std::move(payload);
        return rt->handle(req);
    }

    /** Full ECREATE + one EADD + EMEAS; returns the enclave id. */
    EnclaveId
    makeMeasuredEnclave()
    {
        PrimitiveResponse r =
            invoke(PrimitiveOp::ECreate, PrivMode::Supervisor,
                   {4, 8, 64});
        EXPECT_EQ(r.status, PrimStatus::Ok);
        EnclaveId id = static_cast<EnclaveId>(r.results.at(0));
        Bytes code(pageSize, 0x90);
        r = invoke(PrimitiveOp::EAdd, PrivMode::Supervisor,
                   {id, EnclaveLayout::codeBase, PteRead | PteExec}, 0,
                   code);
        EXPECT_EQ(r.status, PrimStatus::Ok);
        r = invoke(PrimitiveOp::EMeas, PrivMode::Supervisor, {id});
        EXPECT_EQ(r.status, PrimStatus::Ok);
        return id;
    }

    /** Everything an EMS memory primitive could change. */
    struct MemoryState
    {
        std::vector<Addr> pages;
        std::vector<Addr> mappedPa; ///< walk().pa of each probed VA
        std::size_t owned = 0;
        std::uint64_t bitmapPages = 0;
        std::size_t poolFree = 0;
        std::size_t boundKeys = 0;

        bool operator==(const MemoryState &) const = default;
    };

    MemoryState
    memoryState(EnclaveId id, const std::vector<Addr> &probe_vas)
    {
        MemoryState st;
        st.pages = rt->enclave(id)->pages;
        for (Addr va : probe_vas)
            st.mappedPa.push_back(rt->enclavePageTable(id)->walk(va).pa);
        st.owned = rt->ownership().size();
        st.bitmapPages = bitmap.enclavePageCount();
        st.poolFree = rt->pool().freePages();
        st.boundKeys = enc.usedSlots();
        return st;
    }

    /** The bytes of every frame of the enclave's page table. */
    Bytes
    tableBytes(EnclaveId id)
    {
        Bytes out;
        for (Addr frame : rt->enclavePageTable(id)->tableFrames()) {
            Bytes b = csMem.readBytes(frame, pageSize);
            out.insert(out.end(), b.begin(), b.end());
        }
        return out;
    }

    std::uint64_t reqId = 0;
};

TEST_F(RuntimeFixture, CreateBuildsEnclaveWithStaticAllocation)
{
    PrimitiveResponse r = invoke(PrimitiveOp::ECreate,
                                 PrivMode::Supervisor, {4, 8, 64});
    ASSERT_EQ(r.status, PrimStatus::Ok);
    EnclaveId id = static_cast<EnclaveId>(r.results.at(0));
    const EnclaveControl *enc_ctl = rt->enclave(id);
    ASSERT_NE(enc_ctl, nullptr);
    EXPECT_EQ(enc_ctl->state, EnclaveState::Created);
    // Static allocation: 4 stack + 8 heap pages already mapped.
    EXPECT_EQ(enc_ctl->pages.size(), 12u);
    EXPECT_NE(enc_ctl->keyId, 0);
    EXPECT_TRUE(enc.hasKey(enc_ctl->keyId));
    // Completion time is nonzero and models EMS work.
    EXPECT_GT(r.completedAt, 0u);
    EXPECT_TRUE(r.flags & kFlagFlushTlb);
}

TEST_F(RuntimeFixture, KeyIdCounterWrapSkipsZeroAndBoundIds)
{
    // KeyIDs are 16 bits. Allocate well past 65536 of them through
    // ECREATE/EDESTROY and ESHMGET/ESHMDES, holding a few IDs the
    // whole time: after the wrap, allocation must skip 0 and the held
    // IDs, reuse the released ones, and charge a cache/TLB flush.
    EnclaveId holder = makeMeasuredEnclave();
    std::set<KeyId> held = {rt->enclave(holder)->keyId};
    for (int i = 0; i < 2; ++i) {
        PrimitiveResponse r = invoke(PrimitiveOp::EShmGet, PrivMode::User,
                                     {1, PteRead | PteWrite}, holder);
        ASSERT_EQ(r.status, PrimStatus::Ok);
        held.insert(rt->shm(static_cast<ShmId>(r.results.at(0)))->keyId);
    }
    ASSERT_EQ(held.size(), 3u);

    const Tick flush = EmsRuntimeParams{}.keyRecycleFlushTime;
    Tick create_before_wrap = 0, shm_before_wrap = 0;
    std::set<KeyId> seen_after_wrap;
    for (int cycle = 0; cycle < 70000; ++cycle) {
        KeyId key = 0;
        Tick service = 0;
        if (cycle % 2 == 0) {
            PrimitiveResponse r = invoke(PrimitiveOp::ECreate,
                                         PrivMode::Supervisor, {1, 0, 0});
            ASSERT_EQ(r.status, PrimStatus::Ok) << "cycle " << cycle;
            EnclaveId id = static_cast<EnclaveId>(r.results.at(0));
            key = rt->enclave(id)->keyId;
            service = r.completedAt;
            ASSERT_EQ(invoke(PrimitiveOp::EDestroy, PrivMode::Supervisor,
                             {id})
                          .status,
                      PrimStatus::Ok);
        } else {
            PrimitiveResponse r = invoke(PrimitiveOp::EShmGet,
                                         PrivMode::User,
                                         {1, PteRead | PteWrite}, holder);
            ASSERT_EQ(r.status, PrimStatus::Ok) << "cycle " << cycle;
            ShmId id = static_cast<ShmId>(r.results.at(0));
            key = rt->shm(id)->keyId;
            service = r.completedAt;
            ASSERT_EQ(invoke(PrimitiveOp::EShmDes, PrivMode::User, {id},
                             holder)
                          .status,
                      PrimStatus::Ok);
        }
        ASSERT_NE(key, 0) << "cycle " << cycle;
        ASSERT_EQ(held.count(key), 0u) << "cycle " << cycle;
        // The first three IDs went to the held enclave and regions.
        bool wrapped = cycle + 3 >= 65535;
        if (!wrapped) {
            ASSERT_EQ(key, cycle + 4);
            (cycle % 2 == 0 ? create_before_wrap : shm_before_wrap) =
                service;
        } else {
            seen_after_wrap.insert(key);
            Tick before = cycle % 2 == 0 ? create_before_wrap
                                         : shm_before_wrap;
            ASSERT_EQ(service, before + flush) << "cycle " << cycle;
        }
    }
    EXPECT_EQ(seen_after_wrap.size(), 70000u - (65535u - 3u));
    EXPECT_EQ(*seen_after_wrap.begin(), 4);
}

TEST_F(RuntimeFixture, CreateRejectsBadConfig)
{
    EXPECT_EQ(invoke(PrimitiveOp::ECreate, PrivMode::Supervisor,
                     {0, 8, 64})
                  .status,
              PrimStatus::InvalidArgument);
    EXPECT_EQ(invoke(PrimitiveOp::ECreate, PrivMode::Supervisor, {4})
                  .status,
              PrimStatus::InvalidArgument);
}

TEST_F(RuntimeFixture, ForgedCrossPrivilegePacketRejected)
{
    PrimitiveResponse r =
        invoke(PrimitiveOp::ECreate, PrivMode::User, {4, 8, 64});
    EXPECT_EQ(r.status, PrimStatus::PermissionDenied);
    EXPECT_GT(rt->sanityRejections(), 0u);
}

TEST_F(RuntimeFixture, RejectsEverythingBeforeSecureBoot)
{
    // A fresh runtime that has NOT booted.
    EFuse fuse;
    fuse.endorsementSeed = Bytes(32, 1);
    fuse.sealedKey = Bytes(32, 2);
    PhysicalMemory ems2(kEmsBase, kEmsSize);
    PhysicalMemory cs2(kCsBase, kCsSize);
    EnclaveBitmap bm2(&cs2, kCsBase);
    MemoryEncryptionEngine enc2(8);
    IHub hub2(&cs2, &ems2, &bm2, &enc2);
    EmsPort &port2 = hub2.emsPort();
    Addr cursor = kCsBase + 0x100000;
    EmsRuntime rt2(&port2, &cs2, KeyManager(fuse), {},
                   [&](std::size_t n) {
                       std::vector<Addr> out;
                       for (std::size_t i = 0; i < n; ++i) {
                           out.push_back(pageNumber(cursor));
                           cursor += pageSize;
                       }
                       return out;
                   },
                   nullptr);
    PrimitiveRequest req;
    req.op = PrimitiveOp::ECreate;
    req.mode = PrivMode::Supervisor;
    req.args = {4, 8, 64};
    EXPECT_EQ(rt2.handle(req).status, PrimStatus::PermissionDenied);
}

TEST_F(RuntimeFixture, SecureBootRejectsTamperedImages)
{
    EFuse fuse;
    fuse.endorsementSeed = Bytes(32, 1);
    fuse.sealedKey = Bytes(32, 2);
    PhysicalMemory cs2(kCsBase, kCsSize);
    PhysicalMemory ems2(kEmsBase, kEmsSize);
    EnclaveBitmap bm2(&cs2, kCsBase);
    MemoryEncryptionEngine enc2(8);
    IHub hub2(&cs2, &ems2, &bm2, &enc2);
    EmsPort &port2 = hub2.emsPort();
    EmsRuntime rt2(&port2, &cs2, KeyManager(fuse), {},
                   [](std::size_t) { return std::vector<Addr>{}; },
                   nullptr);
    Bytes image = bytesFromString("runtime");
    Bytes fw = bytesFromString("firmware");
    Bytes tampered = bytesFromString("runtimeX");
    EXPECT_FALSE(rt2.secureBoot(tampered, Sha256::digest(image), fw,
                                Sha256::digest(fw)));
    EXPECT_FALSE(rt2.booted());
}

TEST_F(RuntimeFixture, AddMapsAndCopiesPageContent)
{
    PrimitiveResponse r = invoke(PrimitiveOp::ECreate,
                                 PrivMode::Supervisor, {4, 8, 64});
    EnclaveId id = static_cast<EnclaveId>(r.results.at(0));
    Bytes code(pageSize, 0xab);
    r = invoke(PrimitiveOp::EAdd, PrivMode::Supervisor,
               {id, EnclaveLayout::codeBase, PteRead | PteExec}, 0,
               code);
    ASSERT_EQ(r.status, PrimStatus::Ok);

    const PageTable *pt = rt->enclavePageTable(id);
    WalkResult walk = pt->walk(EnclaveLayout::codeBase);
    ASSERT_TRUE(walk.valid);
    EXPECT_EQ(csMem.readBytes(walk.pa, 4), Bytes(4, 0xab));
    EXPECT_EQ(walk.keyId, rt->enclave(id)->keyId);
    EXPECT_TRUE(bitmap.isEnclavePage(pageNumber(walk.pa)));
}

TEST_F(RuntimeFixture, PageTableFramesAreEnclaveMemory)
{
    // Section IV-A: the dedicated page table is itself protected.
    PrimitiveResponse r = invoke(PrimitiveOp::ECreate,
                                 PrivMode::Supervisor, {4, 8, 64});
    EnclaveId id = static_cast<EnclaveId>(r.results.at(0));
    const PageTable *pt = rt->enclavePageTable(id);
    for (Addr frame : pt->tableFrames()) {
        EXPECT_TRUE(bitmap.isEnclavePage(pageNumber(frame)));
        const PageOwner *owner = rt->ownership().lookup(
            pageNumber(frame));
        ASSERT_NE(owner, nullptr);
        EXPECT_EQ(owner->kind, PageKind::PageTable);
        EXPECT_EQ(owner->owner, id);
    }
}

TEST_F(RuntimeFixture, MeasurementIsDeterministicAndContentBound)
{
    EnclaveId a = makeMeasuredEnclave();
    EnclaveId b = makeMeasuredEnclave();
    // Identical images: identical measurements.
    EXPECT_EQ(rt->enclave(a)->measurement, rt->enclave(b)->measurement);

    // A third enclave with different content measures differently.
    PrimitiveResponse r = invoke(PrimitiveOp::ECreate,
                                 PrivMode::Supervisor, {4, 8, 64});
    EnclaveId c = static_cast<EnclaveId>(r.results.at(0));
    Bytes code(pageSize, 0x91);
    invoke(PrimitiveOp::EAdd, PrivMode::Supervisor,
           {c, EnclaveLayout::codeBase, PteRead | PteExec}, 0, code);
    invoke(PrimitiveOp::EMeas, PrivMode::Supervisor, {c});
    EXPECT_NE(rt->enclave(c)->measurement, rt->enclave(a)->measurement);
}

TEST_F(RuntimeFixture, UnmeasuredEnclaveCannotEnter)
{
    PrimitiveResponse r = invoke(PrimitiveOp::ECreate,
                                 PrivMode::Supervisor, {4, 8, 64});
    EnclaveId id = static_cast<EnclaveId>(r.results.at(0));
    EXPECT_EQ(invoke(PrimitiveOp::EEnter, PrivMode::Supervisor, {id})
                  .status,
              PrimStatus::PermissionDenied);
}

TEST_F(RuntimeFixture, EnterExitLifecycle)
{
    EnclaveId id = makeMeasuredEnclave();
    PrimitiveResponse r =
        invoke(PrimitiveOp::EEnter, PrivMode::Supervisor, {id});
    ASSERT_EQ(r.status, PrimStatus::Ok);
    EXPECT_TRUE(r.flags & kFlagEnterEnclave);
    EXPECT_EQ(rt->enclave(id)->state, EnclaveState::Running);

    r = invoke(PrimitiveOp::EExit, PrivMode::User, {}, id);
    ASSERT_EQ(r.status, PrimStatus::Ok);
    EXPECT_TRUE(r.flags & kFlagExitEnclave);
    EXPECT_EQ(rt->enclave(id)->state, EnclaveState::Measured);
}

TEST_F(RuntimeFixture, AllocExtendsHeapWithZeroedOwnedPages)
{
    EnclaveId id = makeMeasuredEnclave();
    std::size_t pages_before = rt->enclave(id)->pages.size();

    PrimitiveResponse r =
        invoke(PrimitiveOp::EAlloc, PrivMode::User, {3}, id);
    ASSERT_EQ(r.status, PrimStatus::Ok);
    Addr va = r.results.at(0);
    EXPECT_EQ(rt->enclave(id)->pages.size(), pages_before + 3);

    const PageTable *pt = rt->enclavePageTable(id);
    for (int i = 0; i < 3; ++i) {
        WalkResult walk = pt->walk(va + Addr(i) * pageSize);
        ASSERT_TRUE(walk.valid);
        EXPECT_TRUE(bitmap.isEnclavePage(pageNumber(walk.pa)));
        EXPECT_TRUE(rt->ownership().ownedBy(pageNumber(walk.pa), id));
        EXPECT_EQ(csMem.readBytes(walk.pa, 8), Bytes(8, 0));
    }
}

TEST_F(RuntimeFixture, AllocFromHostContextRejected)
{
    makeMeasuredEnclave();
    EXPECT_EQ(invoke(PrimitiveOp::EAlloc, PrivMode::User, {3},
                     invalidEnclaveId)
                  .status,
              PrimStatus::PermissionDenied);
}

TEST_F(RuntimeFixture, FreeReturnsScrubbedPages)
{
    EnclaveId id = makeMeasuredEnclave();
    PrimitiveResponse r =
        invoke(PrimitiveOp::EAlloc, PrivMode::User, {2}, id);
    Addr va = r.results.at(0);
    const PageTable *pt = rt->enclavePageTable(id);
    Addr pa = pt->walk(va).pa;
    csMem.writeBytes(pa, Bytes(16, 0x5e)); // enclave wrote secrets

    r = invoke(PrimitiveOp::EFree, PrivMode::User, {va, 2}, id);
    ASSERT_EQ(r.status, PrimStatus::Ok);
    EXPECT_FALSE(pt->walk(va).valid);
    EXPECT_FALSE(bitmap.isEnclavePage(pageNumber(pa)));
    // Scrubbed before returning to the pool: no secret residue.
    EXPECT_EQ(csMem.readBytes(pa, 16), Bytes(16, 0));
}

TEST_F(RuntimeFixture, FreeOfForeignPagesRejected)
{
    EnclaveId a = makeMeasuredEnclave();
    EnclaveId b = makeMeasuredEnclave();
    PrimitiveResponse r =
        invoke(PrimitiveOp::EAlloc, PrivMode::User, {1}, a);
    Addr va = r.results.at(0);
    // Enclave b tries to free a's allocation at the same VA: its own
    // page table has no such mapping.
    EXPECT_EQ(invoke(PrimitiveOp::EFree, PrivMode::User, {va, 1}, b)
                  .status,
              PrimStatus::NotFound);
}

/** VAs [va, va + n pages) plus one page either side. */
std::vector<Addr>
probeRange(Addr va, std::size_t n)
{
    std::vector<Addr> vas;
    for (std::size_t i = 0; i < n + 2; ++i)
        vas.push_back(va - pageSize + i * pageSize);
    return vas;
}

TEST_F(RuntimeFixture, FreeRejectsLeaveMemoryUntouched)
{
    // Each rejected EFREE must change nothing; a following EDESTROY
    // then returns every frame the enclave held.
    EnclaveId owner = makeMeasuredEnclave();
    EnclaveId id = makeMeasuredEnclave();
    std::size_t conserved =
        rt->pool().freePages() + rt->ownership().size();

    // The attached region lands at shmBase; a private run ends right
    // below it, so one range covers both kinds.
    PrimitiveResponse r = invoke(PrimitiveOp::EShmGet, PrivMode::User,
                                 {2, PteRead | PteWrite}, owner);
    ASSERT_EQ(r.status, PrimStatus::Ok);
    std::uint64_t shm = r.results.at(0);
    ASSERT_EQ(invoke(PrimitiveOp::EShmShr, PrivMode::User,
                     {shm, id, PteRead | PteWrite}, owner)
                  .status,
              PrimStatus::Ok);
    Addr below_shm = EnclaveLayout::shmBase - 2 * pageSize;
    r = invoke(PrimitiveOp::EAlloc, PrivMode::User, {2, below_shm}, id);
    ASSERT_EQ(r.status, PrimStatus::Ok);
    r = invoke(PrimitiveOp::EShmAt, PrivMode::User,
               {shm, PteRead | PteWrite}, id);
    ASSERT_EQ(r.status, PrimStatus::Ok);
    ASSERT_EQ(r.results.at(0), EnclaveLayout::shmBase);

    r = invoke(PrimitiveOp::EAlloc, PrivMode::User, {4}, id);
    ASSERT_EQ(r.status, PrimStatus::Ok);
    Addr region = r.results.at(0);
    std::size_t page_count = rt->enclave(id)->pages.size();

    struct Case
    {
        const char *what;
        Addr va;
        std::uint64_t n;
        PrimStatus status;
    };
    const Case cases[] = {
        {"past the region's end", region, 5, PrimStatus::NotFound},
        {"into attached shared memory", below_shm, 3,
         PrimStatus::PermissionDenied},
        {"more pages than the enclave has", region, page_count + 1,
         PrimStatus::InvalidArgument},
        {"an n no enclave could hold", region, 1ULL << 62,
         PrimStatus::InvalidArgument},
    };
    for (const Case &c : cases) {
        std::vector<Addr> probe =
            probeRange(c.va, std::min<std::uint64_t>(c.n, 8));
        MemoryState before = memoryState(id, probe);
        EXPECT_EQ(invoke(PrimitiveOp::EFree, PrivMode::User, {c.va, c.n},
                         id)
                      .status,
                  c.status)
            << c.what;
        EXPECT_TRUE(memoryState(id, probe) == before) << c.what;
    }

    // Both ranges are still whole and freeable.
    EXPECT_EQ(invoke(PrimitiveOp::EFree, PrivMode::User, {region, 4}, id)
                  .status,
              PrimStatus::Ok);
    ASSERT_EQ(invoke(PrimitiveOp::EDestroy, PrivMode::Supervisor, {id})
                  .status,
              PrimStatus::Ok);
    EXPECT_TRUE(rt->ownership().pagesOf(id).empty());
    EXPECT_EQ(rt->pool().freePages() + rt->ownership().size(), conserved);
}

TEST_F(RuntimeFixture, FreeKeepsThePerPageEraseOrder)
{
    // Seeded EALLOC/EFREE sequences. Cursor EALLOCs stack up in VA;
    // EALLOCs at explicit VAs fill 8-page slots in random order, so
    // VA-adjacent regions are not adjacent in the page list. EFREEs
    // take whole regions, pieces of them, and ranges spanning
    // adjacent regions. After each one the page list must equal a
    // reference kept by one std::erase per freed frame.
    constexpr Addr kSlotBase = 0x5000'0000;
    constexpr std::uint64_t kSlotPages = 8;
    constexpr std::uint64_t kSlots = 24;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        Random rng(seed);
        EnclaveId id = makeMeasuredEnclave();
        const PageTable *pt = rt->enclavePageTable(id);
        std::vector<Addr> reference = rt->enclave(id)->pages;
        std::map<Addr, Addr> mapped; // va -> ppn
        pt->forEachMapping([&mapped](Addr va, const WalkResult &w) {
            mapped[va] = pageNumber(w.pa);
        });
        std::vector<bool> slot_used(kSlots, false);

        for (int step = 0; step < 800; ++step) {
            bool alloc = mapped.empty() || rng.below(2) == 0;
            if (alloc) {
                std::uint64_t n = 0;
                std::vector<std::uint64_t> args;
                std::uint64_t slot = rng.below(kSlots);
                if (rng.below(2) == 0 && !slot_used[slot]) {
                    slot_used[slot] = true;
                    n = kSlotPages;
                    args = {n, kSlotBase + slot * kSlotPages * pageSize};
                } else {
                    n = 1 + rng.below(16);
                    args = {n};
                }
                PrimitiveResponse r =
                    invoke(PrimitiveOp::EAlloc, PrivMode::User, args, id);
                ASSERT_EQ(r.status, PrimStatus::Ok);
                Addr va = r.results.at(0);
                for (std::uint64_t i = 0; i < n; ++i) {
                    Addr ppn = pageNumber(pt->walk(va + i * pageSize).pa);
                    mapped[va + i * pageSize] = ppn;
                    reference.push_back(ppn);
                }
                continue;
            }

            // A random live page, the maximal VA run around it, and
            // a random sub-range of that run (often all of it).
            auto it = mapped.begin();
            std::advance(it, static_cast<std::ptrdiff_t>(
                                 rng.below(mapped.size())));
            Addr lo = it->first, hi = it->first;
            while (mapped.count(lo - pageSize))
                lo -= pageSize;
            while (mapped.count(hi + pageSize))
                hi += pageSize;
            std::uint64_t run = (hi - lo) / pageSize + 1;
            std::uint64_t first = 0, n = run;
            if (rng.below(2) == 0) {
                first = rng.below(run);
                n = 1 + rng.below(run - first);
            }
            Addr va = lo + first * pageSize;
            ASSERT_EQ(invoke(PrimitiveOp::EFree, PrivMode::User, {va, n},
                             id)
                          .status,
                      PrimStatus::Ok);
            for (std::uint64_t i = 0; i < n; ++i) {
                auto m = mapped.find(va + i * pageSize);
                std::erase(reference, m->second);
                mapped.erase(m);
            }
            ASSERT_EQ(rt->enclave(id)->pages, reference)
                << "seed " << seed << " step " << step;
        }

        // EDESTROY returns the list to the back of the pool in order:
        // an ECREATE that drains the frames already free (less its
        // table root) then draws exactly the reference frames.
        std::size_t free_before = rt->pool().freePages();
        ASSERT_EQ(invoke(PrimitiveOp::EDestroy, PrivMode::Supervisor,
                         {id})
                      .status,
                  PrimStatus::Ok);
        std::uint64_t data_pages = free_before - 1 + reference.size();
        std::uint64_t stack = std::min<std::uint64_t>(data_pages, 4096);
        PrimitiveResponse r =
            invoke(PrimitiveOp::ECreate, PrivMode::Supervisor,
                   {stack, data_pages - stack, 0});
        ASSERT_EQ(r.status, PrimStatus::Ok);
        EnclaveId next = static_cast<EnclaveId>(r.results.at(0));
        const std::vector<Addr> &drawn = rt->enclave(next)->pages;
        ASSERT_EQ(drawn.size(), data_pages);
        EXPECT_TRUE(std::equal(reference.begin(), reference.end(),
                               drawn.end() - static_cast<std::ptrdiff_t>(
                                                 reference.size())))
            << "seed " << seed;
        ASSERT_EQ(invoke(PrimitiveOp::EDestroy, PrivMode::Supervisor,
                         {next})
                      .status,
                  PrimStatus::Ok);
    }
}

TEST_F(RuntimeFixture, CreateOutOfMemoryLeavesNothingBehind)
{
    // A small SoC: the OS grants no frame beyond the warm pool, so a
    // huge heap cannot be drawn after the KeyID and table root are.
    EnclaveId holder = makeMeasuredEnclave();
    osPagesLeft = 0;
    MemoryState before = memoryState(holder, {});
    PrimitiveResponse r = invoke(PrimitiveOp::ECreate,
                                 PrivMode::Supervisor, {4, 1u << 20, 0});
    EXPECT_EQ(r.status, PrimStatus::OutOfMemory);
    EXPECT_EQ(rt->enclave(holder + 1), nullptr);
    EXPECT_TRUE(memoryState(holder, {}) == before);

    // The pool is whole: a normal ECREATE still fits.
    r = invoke(PrimitiveOp::ECreate, PrivMode::Supervisor, {4, 8, 0});
    EXPECT_EQ(r.status, PrimStatus::Ok);
}

TEST_F(RuntimeFixture, ShmGetOutOfMemoryLeavesNothingBehind)
{
    // The pool holds 40 frames and the OS grants no more; a 64-page
    // region cannot be drawn, and the reject must hand back the 40
    // frames it did draw and its KeyID.
    EnclaveId holder = makeMeasuredEnclave(); // maxShmPages = 64
    osPagesLeft = 0;
    rt->pool().allocate(rt->pool().freePages() - 40);
    ASSERT_EQ(rt->pool().freePages(), 40u);
    MemoryState before = memoryState(holder, {});
    PrimitiveResponse r = invoke(PrimitiveOp::EShmGet, PrivMode::User,
                                 {64, PteRead | PteWrite}, holder);
    EXPECT_EQ(r.status, PrimStatus::OutOfMemory);
    EXPECT_TRUE(memoryState(holder, {}) == before);
    EXPECT_EQ(rt->pool().freePages(), 40u);

    // The frames are back in the pool: a region that fits succeeds.
    r = invoke(PrimitiveOp::EShmGet, PrivMode::User,
               {40, PteRead | PteWrite}, holder);
    ASSERT_EQ(r.status, PrimStatus::Ok);
    EXPECT_EQ(rt->shm(static_cast<ShmId>(r.results.at(0)))->pages.size(),
              40u);
}

TEST_F(RuntimeFixture, ShmAttachQuotaCountsAttachedPages)
{
    // maxShmPages = 64: one 63-page region and one 1-page region fit,
    // a second 1-page region does not (the old per-region estimate
    // let 62 of them through).
    EnclaveId id = makeMeasuredEnclave();
    auto create = [&](std::uint64_t pages) {
        PrimitiveResponse r = invoke(PrimitiveOp::EShmGet, PrivMode::User,
                                     {pages, PteRead | PteWrite}, id);
        EXPECT_EQ(r.status, PrimStatus::Ok);
        return r.results.at(0);
    };
    auto attach = [&](std::uint64_t shm) {
        return invoke(PrimitiveOp::EShmAt, PrivMode::User,
                      {shm, PteRead | PteWrite}, id)
            .status;
    };
    const std::uint64_t big = create(63);
    ASSERT_EQ(attach(big), PrimStatus::Ok);
    std::size_t attached_small = 0;
    std::vector<std::uint64_t> smalls;
    for (int i = 0; i < 62; ++i) {
        smalls.push_back(create(1));
        attached_small += attach(smalls.back()) == PrimStatus::Ok;
    }
    EXPECT_EQ(attached_small, 1u);
    EXPECT_EQ(rt->enclave(id)->attachedShmPages, 64u);
    EXPECT_EQ(rt->enclave(id)->attachedShm.size(), 2u);

    // ESHMDT gives the pages back to the quota.
    ASSERT_EQ(invoke(PrimitiveOp::EShmDt, PrivMode::User, {big}, id).status,
              PrimStatus::Ok);
    EXPECT_EQ(rt->enclave(id)->attachedShmPages, 1u);
    EXPECT_EQ(attach(smalls.back()), PrimStatus::Ok);
    EXPECT_EQ(rt->enclave(id)->attachedShmPages, 2u);
}

TEST_F(RuntimeFixture, DoubleMapRequestsAreRejectedUntouched)
{
    PrimitiveResponse r = invoke(PrimitiveOp::ECreate, PrivMode::Supervisor,
                                 {4, 8, 64});
    ASSERT_EQ(r.status, PrimStatus::Ok);
    const EnclaveId id = static_cast<EnclaveId>(r.results.at(0));
    const Bytes code(pageSize, 0x90);
    const std::vector<std::uint64_t> add = {id, EnclaveLayout::codeBase,
                                            PteRead | PteExec};
    ASSERT_EQ(invoke(PrimitiveOp::EAdd, PrivMode::Supervisor, add, 0, code)
                  .status,
              PrimStatus::Ok);

    auto state = [&] {
        return std::make_tuple(memoryState(id, {EnclaveLayout::codeBase}),
                               tableBytes(id),
                               rt->enclave(id)->measuredBytes);
    };
    const auto before = state();
    auto expect_reject = [&](PrimitiveResponse resp, PrimStatus want,
                             const char *what) {
        EXPECT_EQ(resp.status, want) << what;
        EXPECT_TRUE(state() == before) << what;
    };

    // A second EADD to a mapped VA, with different contents.
    expect_reject(invoke(PrimitiveOp::EAdd, PrivMode::Supervisor, add, 0,
                         Bytes(pageSize, 0xcc)),
                  PrimStatus::AlreadyExists, "EADD over a mapped page");
    expect_reject(invoke(PrimitiveOp::EAdd, PrivMode::Supervisor,
                         {id, PageTable::vaSpace, PteRead}, 0, code),
                  PrimStatus::InvalidArgument, "EADD past the VA space");

    // EALLOC with an explicit VA: over the initial heap (8 pages at
    // heapBase), straddling the top of the 39-bit space, and wrapping.
    ASSERT_EQ(invoke(PrimitiveOp::EMeas, PrivMode::Supervisor, {id}).status,
              PrimStatus::Ok);
    const auto measured = state();
    ASSERT_EQ(invoke(PrimitiveOp::EEnter, PrivMode::Supervisor, {id}).status,
              PrimStatus::Ok);
    auto alloc = [&](std::uint64_t n, Addr va) {
        return invoke(PrimitiveOp::EAlloc, PrivMode::User, {n, va}, id);
    };
    auto expect_alloc_reject = [&](std::uint64_t n, Addr va, PrimStatus want,
                                   const char *what) {
        EXPECT_EQ(alloc(n, va).status, want) << what;
        EXPECT_TRUE(state() == measured) << what;
    };
    expect_alloc_reject(4, EnclaveLayout::heapBase + 6 * pageSize,
                        PrimStatus::AlreadyExists, "overlaps the heap");
    expect_alloc_reject(600, EnclaveLayout::heapBase - 590 * pageSize,
                        PrimStatus::AlreadyExists, "ends inside the heap");
    expect_alloc_reject(4, PageTable::vaSpace - 2 * pageSize,
                        PrimStatus::InvalidArgument, "leaves the VA space");
    expect_alloc_reject(4, ~Addr(0) - pageSize + 1,
                        PrimStatus::InvalidArgument, "wraps");

    // The same primitives on free ranges still succeed, up to the last
    // page of the VA space.
    EXPECT_EQ(alloc(4, PageTable::vaSpace - 4 * pageSize).status,
              PrimStatus::Ok);
    EXPECT_EQ(alloc(4, EnclaveLayout::heapBase + 8 * pageSize).status,
              PrimStatus::Ok);
}

TEST_F(RuntimeFixture, ShmAttachPastTheWindowRejectsInsteadOfPanicking)
{
    // ESHMAT's VA cursor never moves back. The shared-memory window
    // below the stack holds 1023 regions of 64 pages; the next attach
    // would map over the stack and must be refused untouched.
    EnclaveId id = makeMeasuredEnclave(); // 4 stack pages
    PrimitiveResponse r = invoke(PrimitiveOp::EShmGet, PrivMode::User,
                                 {64, PteRead | PteWrite}, id);
    ASSERT_EQ(r.status, PrimStatus::Ok);
    const std::uint64_t shm = r.results.at(0);
    std::size_t attaches = 0;
    PrimStatus status = PrimStatus::Ok;
    while (attaches < 2000) {
        status = invoke(PrimitiveOp::EShmAt, PrivMode::User,
                        {shm, PteRead | PteWrite}, id)
                     .status;
        if (status != PrimStatus::Ok)
            break;
        ++attaches;
        ASSERT_EQ(invoke(PrimitiveOp::EShmDt, PrivMode::User, {shm}, id)
                      .status,
                  PrimStatus::Ok);
    }
    EXPECT_EQ(attaches, 1023u);
    EXPECT_EQ(status, PrimStatus::AlreadyExists);
    EXPECT_EQ(rt->enclave(id)->attachedShmPages, 0u);
    EXPECT_TRUE(rt->enclave(id)->attachedShm.empty());
    EXPECT_TRUE(rt->shm(static_cast<ShmId>(shm))->attached.empty());
    // The stack is still mapped to the enclave's own frames.
    const WalkResult stack = rt->enclavePageTable(id)->walk(
        EnclaveLayout::stackTop - pageSize);
    ASSERT_TRUE(stack.valid);
    EXPECT_TRUE(rt->ownership().ownedBy(pageNumber(stack.pa), id));
    EXPECT_EQ(rt->ownership().lookup(pageNumber(stack.pa))->kind,
              PageKind::Private);
}

TEST_F(RuntimeFixture, RejectedEaddLeavesTheMeasurementAlone)
{
    // Two enclaves see the same accepted EADDs; one also sees a
    // rejected duplicate. Their measurements must match.
    const Bytes code(pageSize, 0x90);
    std::vector<Bytes> measurements;
    for (bool duplicate : {false, true}) {
        PrimitiveResponse r = invoke(PrimitiveOp::ECreate,
                                     PrivMode::Supervisor, {4, 8, 64});
        ASSERT_EQ(r.status, PrimStatus::Ok);
        const EnclaveId id = static_cast<EnclaveId>(r.results.at(0));
        const std::vector<std::uint64_t> add = {
            id, EnclaveLayout::codeBase, PteRead | PteExec};
        ASSERT_EQ(invoke(PrimitiveOp::EAdd, PrivMode::Supervisor, add, 0,
                         code)
                      .status,
                  PrimStatus::Ok);
        if (duplicate) {
            ASSERT_EQ(invoke(PrimitiveOp::EAdd, PrivMode::Supervisor, add,
                             0, Bytes(pageSize, 0x11))
                          .status,
                      PrimStatus::AlreadyExists);
        }
        r = invoke(PrimitiveOp::EMeas, PrivMode::Supervisor, {id});
        ASSERT_EQ(r.status, PrimStatus::Ok);
        measurements.push_back(r.payload);
    }
    EXPECT_EQ(measurements[0], measurements[1]);
}

TEST_F(RuntimeFixture, DestroyScrubsEverything)
{
    EnclaveId id = makeMeasuredEnclave();
    const EnclaveControl *ctl = rt->enclave(id);
    KeyId key = ctl->keyId;
    std::vector<Addr> pages = ctl->pages;

    PrimitiveResponse r =
        invoke(PrimitiveOp::EDestroy, PrivMode::Supervisor, {id});
    ASSERT_EQ(r.status, PrimStatus::Ok);
    EXPECT_EQ(rt->enclave(id), nullptr);
    EXPECT_FALSE(enc.hasKey(key));
    for (Addr ppn : pages) {
        EXPECT_FALSE(bitmap.isEnclavePage(ppn));
        EXPECT_EQ(rt->ownership().lookup(ppn), nullptr);
    }
    // Destroyed enclaves reject further primitives.
    EXPECT_EQ(invoke(PrimitiveOp::EEnter, PrivMode::Supervisor, {id})
                  .status,
              PrimStatus::NotFound);
}

TEST_F(RuntimeFixture, DestroyErasesTheControlBlock)
{
    // The enclave table holds live enclaves only: create/destroy
    // cycles must not leave entries behind.
    EnclaveId holder = makeMeasuredEnclave();
    std::vector<EnclaveId> destroyed;
    for (int cycle = 0; cycle < 1000; ++cycle) {
        PrimitiveResponse r = invoke(PrimitiveOp::ECreate,
                                     PrivMode::Supervisor, {1, 0, 0});
        ASSERT_EQ(r.status, PrimStatus::Ok) << "cycle " << cycle;
        EnclaveId id = static_cast<EnclaveId>(r.results.at(0));
        ASSERT_NE(rt->enclave(id), nullptr);
        ASSERT_EQ(invoke(PrimitiveOp::EDestroy, PrivMode::Supervisor, {id})
                      .status,
                  PrimStatus::Ok);
        destroyed.push_back(id);
    }
    for (EnclaveId id : destroyed) {
        EXPECT_EQ(rt->enclave(id), nullptr) << "enclave " << id;
        EXPECT_EQ(rt->enclavePageTable(id), nullptr);
    }
    // A second EDESTROY of any of them is NotFound.
    for (EnclaveId id : {destroyed.front(), destroyed.back()})
        EXPECT_EQ(invoke(PrimitiveOp::EDestroy, PrivMode::Supervisor,
                         {id})
                      .status,
                  PrimStatus::NotFound);
    EXPECT_NE(rt->enclave(holder), nullptr);
}

TEST_F(RuntimeFixture, WbReturnsRandomizedEncryptedPoolPages)
{
    makeMeasuredEnclave();
    std::size_t free_before = rt->pool().freePages();
    PrimitiveResponse r =
        invoke(PrimitiveOp::EWb, PrivMode::Supervisor, {8});
    ASSERT_EQ(r.status, PrimStatus::Ok);
    std::size_t count = r.results.at(0);
    EXPECT_GE(count, 8u);
    EXPECT_EQ(r.results.size(), 1 + count);
    EXPECT_EQ(rt->pool().freePages(), free_before - count);
    // Returned frames are no longer enclave memory.
    for (std::size_t i = 0; i < count; ++i)
        EXPECT_FALSE(bitmap.isEnclaveAddr(r.results[1 + i]));
    EXPECT_TRUE(r.flags & kFlagFlushTlb);
}

TEST_F(RuntimeFixture, WbNeverReturnsActiveEnclavePages)
{
    // Defense 2 of the swapping countermeasure (Section IV-A).
    EnclaveId id = makeMeasuredEnclave();
    std::set<Addr> active(rt->enclave(id)->pages.begin(),
                          rt->enclave(id)->pages.end());
    for (int round = 0; round < 10; ++round) {
        PrimitiveResponse r =
            invoke(PrimitiveOp::EWb, PrivMode::Supervisor, {4});
        ASSERT_EQ(r.status, PrimStatus::Ok);
        for (std::size_t i = 1; i < r.results.size(); ++i)
            EXPECT_EQ(active.count(pageNumber(r.results[i])), 0u);
    }
}

TEST_F(RuntimeFixture, WbCountVariesAcrossCalls)
{
    makeMeasuredEnclave();
    std::set<std::uint64_t> counts;
    for (int i = 0; i < 12; ++i) {
        PrimitiveResponse r =
            invoke(PrimitiveOp::EWb, PrivMode::Supervisor, {4});
        counts.insert(r.results.at(0));
    }
    EXPECT_GT(counts.size(), 1u) << "swap size is randomized";
}

TEST_F(RuntimeFixture, AttestProducesVerifiableQuote)
{
    EnclaveId id = makeMeasuredEnclave();
    Bytes nonce(16, 0x42);
    Bytes dh_pub(32, 0x24);
    Bytes payload = nonce;
    payload.insert(payload.end(), dh_pub.begin(), dh_pub.end());
    PrimitiveResponse r =
        invoke(PrimitiveOp::EAttest, PrivMode::User, {}, id, payload);
    ASSERT_EQ(r.status, PrimStatus::Ok);

    AttestationQuote quote;
    ASSERT_TRUE(AttestationQuote::deserialize(r.payload, quote));
    EXPECT_TRUE(verifyQuote(quote,
                            rt->keyManager().endorsementPublicKey(),
                            rt->enclave(id)->measurement, nonce));
}

TEST_F(RuntimeFixture, ServiceTimesScaleWithWork)
{
    PrimitiveResponse small = invoke(PrimitiveOp::ECreate,
                                     PrivMode::Supervisor, {4, 8, 64});
    PrimitiveResponse large = invoke(PrimitiveOp::ECreate,
                                     PrivMode::Supervisor,
                                     {4, 512, 64});
    EXPECT_GT(large.completedAt, small.completedAt)
        << "larger static allocation costs more EMS time";
}

TEST_F(RuntimeFixture, SuspendReleasesKeySlot)
{
    EnclaveId id = makeMeasuredEnclave();
    KeyId key = rt->enclave(id)->keyId;
    ASSERT_TRUE(rt->suspendEnclave(id));
    EXPECT_FALSE(enc.hasKey(key));
    EXPECT_EQ(rt->enclave(id)->state, EnclaveState::Suspended);
    // Running enclaves cannot be suspended.
    EnclaveId other = makeMeasuredEnclave();
    invoke(PrimitiveOp::EEnter, PrivMode::Supervisor, {other});
    EXPECT_FALSE(rt->suspendEnclave(other));
}

} // namespace
} // namespace hypertee
