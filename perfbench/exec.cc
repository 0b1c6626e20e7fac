/**
 * @file
 * Data-plane workload: enclave_exec.
 *
 * One enclave per profile, set up through the SDK (ECREATE sized to
 * the working set, EADD, EMEAS, EENTER), then Core::run executes the
 * profiles round-robin on one CS core, each slice between an EENTER
 * and an EEXIT. The profiles fall into two halves of about equal host
 * time:
 *  - resident: the RV8 + wolfSSL profiles (8-512 KB working sets),
 *    which stay on the TLB- and cache-hit path;
 *  - TLB-hostile: xalancbmk_r, and miniz at 32 MB with Fig. 11's
 *    400 Hz timer: AEX, L1 invalidate and ERESUME between quanta,
 *    which exercise the page walker.
 *
 * The traced run replays the same instruction streams entering one
 * level lower each time: SyntheticWorkload::next alone, then
 * Mmu::translate, then MemHierarchy::access, and PageTable::walk for
 * the addresses that missed both TLBs.
 */

#include <memory>

#include "common.hh"
#include "core/sdk.hh"
#include "core/system.hh"
#include "workload/profiles.hh"

namespace perfbench
{

using namespace hypertee;

namespace
{

/** Instructions per Core::run call: the latency sample unit. */
constexpr std::uint64_t chunkInsts = 100'000;
/** Per-profile warm-up run during set-up (fills caches, fixes the
 *  400 Hz quantum from the simulated rate as Fig. 11 does). */
constexpr std::uint64_t warmupInsts = 250'000;
constexpr double timerHz = 400.0;
/**
 * Instructions per round and profile; sized so each half takes about
 * half the host time. wolfSSL, the paper's main enclave workload,
 * gets two resident slices: with eight equal resident populations the
 * median chunk latency would sit on the edge between two profiles and
 * jump between runs; this way it falls inside one.
 */
constexpr std::uint64_t residentSlice = 2'000'000;
constexpr std::uint64_t hostileSlice = 4'000'000;

/** Keeps replayed results observable to the optimiser. */
volatile std::uint64_t replaySink = 0;

struct ExecProfile
{
    WorkloadProfile profile;
    bool hostile = false;
    bool timer = false; ///< AEX/ERESUME at timerHz
    std::uint64_t slice = 0;
};

std::vector<ExecProfile>
execProfiles(double scale)
{
    auto slice = [&](std::uint64_t n) {
        return std::max<std::uint64_t>(chunkInsts,
                                       std::uint64_t(double(n) * scale));
    };
    std::vector<ExecProfile> out;
    for (const WorkloadProfile &p : rv8Profiles()) {
        const std::uint64_t n =
            p.name == "wolfssl" ? 2 * residentSlice : residentSlice;
        out.push_back({p, false, false, slice(n)});
    }
    out.push_back(
        {profileByName("xalancbmk_r"), true, false, slice(hostileSlice)});
    WorkloadProfile miniz = minizProfile(32ULL << 20);
    miniz.name = "miniz_32mb";
    out.push_back({miniz, true, true, slice(hostileSlice)});
    for (ExecProfile &p : out)
        p.profile.instructions = ~0ULL >> 1; // sliced, never exhausted
    return out;
}

std::uint64_t
streamSeed(std::uint64_t seed, std::size_t i)
{
    return (seed + 1) * 0x9e3779b97f4a7c15ULL ^ (i + 1) * 0xbf58476d1ce4e5b9ULL;
}

std::vector<std::unique_ptr<SyntheticWorkload>>
makeStreams(const std::vector<ExecProfile> &profiles,
            const std::vector<Addr> &sparse_bases, std::uint64_t seed)
{
    std::vector<std::unique_ptr<SyntheticWorkload>> streams;
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        streams.push_back(std::make_unique<SyntheticWorkload>(
            profiles[i].profile, EnclaveLayout::heapBase, sparse_bases[i],
            streamSeed(seed, i)));
    }
    return streams;
}

struct ExecSetup
{
    std::unique_ptr<HyperTeeSystem> sys;
    std::vector<EnclaveHandle> enclaves;
    std::vector<Addr> sparseBases;
    std::vector<std::unique_ptr<SyntheticWorkload>> streams;
    std::uint64_t quantum = 0; ///< instructions per 400 Hz quantum
};

ExecSetup
makeExecSetup(const std::vector<ExecProfile> &profiles, std::uint64_t seed,
              Report &report)
{
    ExecSetup s;
    SystemParams p;
    p.csMemSize = 1024ULL << 20;
    p.csCoreCount = 1;
    p.ems.pool.initialPages = 16384; // 64 MiB warm pool
    p.ems.pool.refillBatch = 4096;
    s.sys = std::make_unique<HyperTeeSystem>(p);

    for (std::size_t i = 0; i < profiles.size(); ++i) {
        const WorkloadProfile &prof = profiles[i].profile;
        EnclaveConfig cfg;
        cfg.stackPages = 16;
        cfg.heapPages = pagesFor(prof.workingSetBytes);
        EnclaveHandle h(*s.sys, 0, cfg, /*charge_core=*/true);
        Random image_rng(streamSeed(seed, i) ^ 0x1a6e5ULL);
        Bytes image(prof.imageBytes);
        for (auto &b : image)
            b = std::uint8_t(image_rng.next());
        if (!h.valid() ||
            !h.addImage(image, EnclaveLayout::codeBase,
                        PteRead | PteExec) ||
            h.measure().size() != 32 || !h.enter()) {
            report.fail("set-up of " + prof.name + " enclave failed");
        }
        Addr sparse = 0;
        if (prof.sparseFrac > 0) {
            sparse = h.alloc(prof.sparsePages);
            if (sparse == 0)
                report.fail("sparse EALLOC for " + prof.name + " failed");
        }
        if (!h.exit())
            report.fail("EEXIT of " + prof.name + " failed");
        s.enclaves.push_back(h);
        s.sparseBases.push_back(sparse);
    }
    s.streams = makeStreams(profiles, s.sparseBases, seed);

    Core &core = s.sys->core(0);
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        EnclaveHandle &h = s.enclaves[i];
        h.enter();
        RunStats warm = core.run(*s.streams[i], warmupInsts);
        h.exit();
        if (warm.instructions != warmupInsts || warm.faults != 0)
            report.fail("warm-up of " + profiles[i].profile.name);
        if (profiles[i].timer && warm.instructions > 0) {
            const double ticks_per_inst =
                double(warm.ticks) / double(warm.instructions);
            s.quantum = std::uint64_t(double(ticksPerSecond) /
                                      ticks_per_inst / timerHz);
        }
    }
    if (s.quantum == 0) // the warm-up failed, which is reported
        s.quantum = hostileSlice;
    return s;
}

/** One Core::run call of a slice, and what surrounds it. */
struct Segment
{
    std::size_t profile;
    std::uint64_t insts;
    bool enter; ///< EENTER before (first chunk of the slice)
    bool aex;   ///< AEX + L1 invalidate + ERESUME after (quantum end)
    bool exit;  ///< EEXIT after (last chunk of the slice)
};

/**
 * Seeded round-robin order; each round runs every profile's slice.
 * A slice is split into chunks of at most chunkInsts. A timer
 * profile's slice is a whole number of 400 Hz quanta, each split into
 * equal chunks and ended by an AEX/ERESUME, except the last, which
 * ends with the slice's EEXIT.
 */
class Scheduler
{
  public:
    Scheduler(const std::vector<ExecProfile> &profiles, std::uint64_t seed,
              std::uint64_t quantum)
        : _profiles(profiles), _rng(seed ^ 0x5c4edULL), _quantum(quantum)
    {}

    std::vector<Segment>
    nextRound()
    {
        std::vector<std::size_t> order(_profiles.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        for (std::size_t i = order.size() - 1; i > 0; --i)
            std::swap(order[i], order[_rng.below(i + 1)]);

        std::vector<Segment> round;
        for (std::size_t p : order) {
            const ExecProfile &prof = _profiles[p];
            std::uint64_t quanta = 1;
            std::uint64_t per_quantum = prof.slice;
            if (prof.timer) {
                per_quantum = _quantum;
                quanta = std::max<std::uint64_t>(
                    1, (prof.slice + _quantum / 2) / _quantum);
            }
            const std::uint64_t chunks =
                (per_quantum + chunkInsts - 1) / chunkInsts;
            for (std::uint64_t q = 0; q < quanta; ++q) {
                for (std::uint64_t c = 0; c < chunks; ++c) {
                    const std::uint64_t n = per_quantum / chunks +
                                            (c < per_quantum % chunks);
                    const bool last_chunk = c + 1 == chunks;
                    const bool last_quantum = q + 1 == quanta;
                    round.push_back({p, n, q == 0 && c == 0,
                                     last_chunk && !last_quantum,
                                     last_chunk && last_quantum});
                }
            }
        }
        return round;
    }

  private:
    const std::vector<ExecProfile> &_profiles;
    Random _rng;
    std::uint64_t _quantum;
};

/** Host-time and simulated totals of executed segments. */
struct ExecTotals
{
    RunStats stats;
    double runNs = 0;    ///< inside Core::run
    double switchNs = 0; ///< EENTER, EEXIT, AEX + ERESUME
    double residentNs = 0;
    double hostileNs = 0;
    std::uint64_t residentInsts = 0;
    std::uint64_t hostileInsts = 0;
    std::uint64_t prims = 0;
    std::uint64_t chunks = 0;
    /**
     * Latency samples: host time of each resident-half chunk. The
     * TLB-hostile half's chunks after an AEX or EENTER are a
     * population of about 1% whose edge would make a p99 over all
     * chunks jump between runs; that half shows in the throughput.
     */
    std::vector<double> residentChunkNs;
};

/** Span names of the traced run. */
struct ExecSpans
{
    SpanLog log;
    std::uint32_t round, enter, run, aex, exit;

    ExecSpans()
        : round(log.nameId("round")), enter(log.nameId("sdk.enter")),
          run(log.nameId("cpu.run")), aex(log.nameId("sdk.aex_eresume")),
          exit(log.nameId("sdk.exit"))
    {}
};

/**
 * Execute one segment: the EENTER/EEXIT and AEX/ERESUME around it go
 * through the SDK and the EMCall gate, the instructions through
 * Core::run. Checks that exactly the requested instructions retire
 * with no unresolved fault.
 */
void
executeSegment(ExecSetup &s, const std::vector<ExecProfile> &profiles,
               const Segment &seg, std::uint64_t req, ExecTotals &t,
               Report &report, ExecSpans *spans, Fingerprint *fp)
{
    Core &core = s.sys->core(0);
    EnclaveHandle &h = s.enclaves[seg.profile];
    const WorkloadProfile &prof = profiles[seg.profile].profile;
    auto prim = [&](std::uint32_t span, auto &&fn) {
        const std::int64_t t0 = nowNs();
        if (spans)
            spans->log.open(span, req);
        const bool ok = fn();
        if (spans)
            spans->log.close();
        const double dt = double(nowNs() - t0);
        ++t.prims;
        if (!ok)
            report.fail("primitive around " + prof.name + " rejected");
        if (fp && !fp->complete) {
            fp->latencySum += h.lastLatency();
            ++fp->ops;
        }
        return dt;
    };

    if (seg.enter)
        t.switchNs += prim(spans ? spans->enter : 0, [&] { return h.enter(); });

    const std::int64_t t0 = nowNs();
    if (spans)
        spans->log.open(spans->run, req);
    const RunStats r = core.run(*s.streams[seg.profile], seg.insts);
    if (spans)
        spans->log.close();
    double dt = double(nowNs() - t0);
    t.runNs += dt;
    if (profiles[seg.profile].hostile) {
        t.hostileNs += dt;
        t.hostileInsts += r.instructions;
    } else {
        t.residentNs += dt;
        t.residentInsts += r.instructions;
    }
    t.stats.add(r);
    ++t.chunks;
    if (r.instructions != seg.insts || r.faults != 0) {
        report.fail(fmt("%s retired %llu of %llu instructions, %llu "
                        "faults",
                        prof.name.c_str(),
                        (unsigned long long)r.instructions,
                        (unsigned long long)seg.insts,
                        (unsigned long long)r.faults));
    }
    if (fp && !fp->complete) {
        ++fp->ops;
        fp->ticks += r.ticks;
        fp->insts += r.instructions;
        fp->tlbMisses += r.tlbMisses;
        fp->mix(r.cycles);
        fp->mix(r.mispredicts);
        fp->mix(r.loads + r.stores);
    }

    if (seg.aex) {
        dt += prim(spans ? spans->aex : 0, [&] {
            s.sys->emCall(0).asyncExit(ExcCause::TimerInterrupt, 0);
            core.hierarchy().l1().invalidateAll();
            return h.resume();
        });
    }
    if (!profiles[seg.profile].hostile)
        t.residentChunkNs.push_back(dt);
    if (seg.exit)
        t.switchNs += prim(spans ? spans->exit : 0, [&] { return h.exit(); });
}

/** Simulated counters of the core, for per-layer ratios. */
struct CoreCounters
{
    std::uint64_t tlbHits, tlbMisses, tlbFlushes, stlbHits, bitmapChecks;
    std::uint64_t l1Hits, l1Misses, l2Hits, l2Misses, dram;
    std::uint64_t requests, poolGrants;

    static CoreCounters
    read(HyperTeeSystem &sys)
    {
        Core &core = sys.core(0);
        Mmu &mmu = core.mmu();
        MemHierarchy &mem = core.hierarchy();
        return {mmu.tlb().hits(),
                mmu.tlb().misses(),
                mmu.tlb().flushes(),
                mmu.stlbHits(),
                mmu.bitmapRetrievals(),
                mem.l1().hits(),
                mem.l1().misses(),
                mem.l2().hits(),
                mem.l2().misses(),
                mem.dramAccesses(),
                sys.emCall(0).requestsIssued(),
                sys.osPoolGrants()};
    }
};

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

Report
runExec(const Options &opts)
{
    Report report;
    const std::vector<ExecProfile> profiles = execProfiles(1.0);
    SetupTimes setup;
    ExecSetup s = repeatedSetup(setup, [&] {
        return makeExecSetup(profiles, opts.seed, report);
    });
    Scheduler sched(profiles, opts.seed, s.quantum);
    ExecTotals t;
    const std::uint64_t l2_misses0 = s.sys->core(0).hierarchy().l2().misses();

    // Closed loop: slices run back to back until the time is up; the
    // loop only stops at a slice boundary (after its EEXIT). Each
    // segment is a timing window.
    WindowLog windows;
    double rss_mb = 0;
    std::int64_t timed_ns = 0;
    const std::int64_t budget = std::int64_t(opts.seconds * 1e9);
    bool done = false;
    for (std::uint64_t round = 0; !done; ++round) {
        for (const Segment &seg : sched.nextRound()) {
            windows.open(t.residentChunkNs.size());
            const std::int64_t t0 = nowNs();
            executeSegment(s, profiles, seg, round, t, report, nullptr,
                           &report.fingerprint);
            const std::int64_t dt = nowNs() - t0;
            timed_ns += dt;
            windows.add(double(dt), double(seg.insts));
            windows.close(t.residentChunkNs.size(),
                          profiles[seg.profile].hostile ? 1 : 0);
            if (seg.exit && timed_ns >= budget) {
                done = true;
                break;
            }
        }
        if (!report.fingerprint.complete && !done) {
            report.fingerprint.l2Misses =
                s.sys->core(0).hierarchy().l2().misses() - l2_misses0;
            report.fingerprint.complete = true;
            rss_mb = peakRssMb();
        }
    }

    const WindowLog::Summary summary = windows.summarize(t.residentChunkNs);
    const double insts_per_s = summary.work / (summary.ns * 1e-9);
    const double p50_us = quantile(summary.samples, 0.50) * 1e-3;
    const double p99_us = quantile(summary.samples, 0.99) * 1e-3;
    report.attempted = t.chunks + t.prims;
    report.add("setup_s", setup.medianS(), "s");
    report.add("throughput_per_s", insts_per_s, "1/s");
    report.add("latency_p50_us", p50_us, "us");
    report.add("latency_p99_us", p99_us, "us");
    report.add("peak_rss_mb", rss_mb > 0 ? rss_mb : peakRssMb(), "MiB");

    report.line(fmt("sim_insts_per_s %.4g insts/s at reference host speed "
                    "(%.4g insts/s as timed: %llu simulated instructions "
                    "in %zu chunks, %.3f s)",
                    insts_per_s, summary.work / (summary.rawNs * 1e-9),
                    (unsigned long long)t.stats.instructions, windows.size(),
                    summary.rawNs * 1e-9));
    report.line(fmt("  whole run: resident half %.4g insts/s over %.3f s, "
                    "TLB-hostile half %.4g insts/s over %.3f s",
                    ratio(double(t.residentInsts), t.residentNs * 1e-9),
                    t.residentNs * 1e-9,
                    ratio(double(t.hostileInsts), t.hostileNs * 1e-9),
                    t.hostileNs * 1e-9));
    report.line(fmt("resident chunk latency (one Core::run of %llu insts) "
                    "p50 %.1f us, p99 %.1f us over %zu chunks",
                    (unsigned long long)chunkInsts, p50_us, p99_us,
                    summary.samples.size()));
    report.line(fmt("host speed: median probe pass %.1f us (%.1f us after "
                    "resident chunks, %.1f us after TLB-hostile chunks), "
                    "reference %.1f us; host times above are scaled to the "
                    "reference",
                    windows.medianPassNs() * 1e-3,
                    windows.medianPassNs(0) * 1e-3,
                    windows.medianPassNs(1) * 1e-3,
                    HostSpeed::referencePassNs * 1e-3));
    report.line(setup.line());
    report.line(fmt("error_rate %.6g (%llu failed of %llu attempted)",
                    double(report.failed) / double(report.attempted),
                    (unsigned long long)report.failed,
                    (unsigned long long)report.attempted));
    return report;
}

/** Memory-layer replay of the schedule; returns host ns. */
double
replayMem(ExecSetup &s, const std::vector<std::vector<Segment>> &rounds,
          bool access, std::uint64_t &mem_ops,
          std::vector<std::pair<Addr, const PageTable *>> *walks)
{
    Core &core = s.sys->core(0);
    Mmu &mmu = core.mmu();
    MemHierarchy &mem = core.hierarchy();
    const PageTable *pt = nullptr;
    std::uint64_t sink = 0;
    double ns = 0;
    mem_ops = 0;
    for (const auto &round : rounds) {
        for (const Segment &seg : round) {
            if (seg.enter) {
                // What EENTER's context switch does to the core.
                pt = s.sys->ems().enclavePageTable(
                    s.enclaves[seg.profile].id());
                mmu.setPageTable(pt);
                mmu.setEnclaveMode(true);
                mmu.flushTlbs();
            }
            SyntheticWorkload &stream = *s.streams[seg.profile];
            MicroOp op;
            const std::int64_t t0 = nowNs();
            for (std::uint64_t i = 0; i < seg.insts; ++i) {
                stream.next(op);
                if (op.type != OpType::Load && op.type != OpType::Store)
                    continue;
                const bool write = op.type == OpType::Store;
                ++mem_ops;
                const TranslateResult tr = mmu.translate(op.addr, write, false);
                if (walks && !tr.tlbHit && tr.ptwLevels > 0)
                    walks->push_back({op.addr, pt});
                if (access)
                    sink += mem.access(tr.pa, write, tr.keyId);
                else
                    sink += tr.pa;
            }
            ns += double(nowNs() - t0);
            if (seg.aex) {
                mmu.flushTlbs();
                mem.l1().invalidateAll();
            }
            if (seg.exit) {
                mmu.setPageTable(&s.sys->hostPageTable());
                mmu.setEnclaveMode(false);
                mmu.flushTlbs();
            }
        }
    }
    replaySink = sink;
    return ns;
}

/**
 * The traced data-plane run. @p own: this is enclave_exec's own traced
 * run (adds the untraced pass for the overhead, the attribution, the
 * span log and the gate counters); otherwise a smaller probe for
 * another workload's traced run.
 */
void
traceDataPlane(const Options &opts, double scale, std::uint64_t round_count,
               bool own, Report &report)
{
    const std::vector<ExecProfile> profiles = execProfiles(scale);

    // A: the real run, with spans.
    ExecSetup sa = makeExecSetup(profiles, opts.seed, report);
    std::vector<std::vector<Segment>> rounds;
    {
        Scheduler sched(profiles, opts.seed, sa.quantum);
        for (std::uint64_t r = 0; r < round_count; ++r)
            rounds.push_back(sched.nextRound());
    }
    ExecSpans spans;
    ExecTotals a;
    const CoreCounters c0 = CoreCounters::read(*sa.sys);
    const std::int64_t a0 = nowNs();
    for (std::uint64_t r = 0; r < rounds.size(); ++r) {
        if (own)
            spans.log.open(spans.round, r);
        for (const Segment &seg : rounds[r]) {
            executeSegment(sa, profiles, seg, r, a, report,
                           own ? &spans : nullptr, nullptr);
        }
        if (own)
            spans.log.close();
    }
    const double wall_a = double(nowNs() - a0);
    const CoreCounters c1 = CoreCounters::read(*sa.sys);
    report.attempted += a.chunks + a.prims;

    // B: instruction generation alone, same streams from the same point.
    double gen_ns = 0;
    std::uint64_t gen_ops = 0;
    {
        auto streams = makeStreams(profiles, sa.sparseBases, opts.seed);
        MicroOp op;
        std::uint64_t sink = 0;
        for (auto &stream : streams) {
            for (std::uint64_t i = 0; i < warmupInsts; ++i)
                stream->next(op);
        }
        for (const auto &round : rounds) {
            for (const Segment &seg : round) {
                SyntheticWorkload &stream = *streams[seg.profile];
                const std::int64_t t0 = nowNs();
                for (std::uint64_t i = 0; i < seg.insts; ++i) {
                    stream.next(op);
                    sink += op.addr;
                }
                gen_ns += double(nowNs() - t0);
                gen_ops += seg.insts;
            }
        }
        replaySink = sink;
    }

    // C1/C2: generation + translate, then + hierarchy access, on fresh
    // SoCs in the same state; D: the page walks of C1's TLB misses.
    std::uint64_t mem_ops = 0;
    std::vector<std::pair<Addr, const PageTable *>> walks;
    ExecSetup sc1 = makeExecSetup(profiles, opts.seed, report);
    const double translate_ns = replayMem(sc1, rounds, false, mem_ops, &walks);
    double walk_ns = 0;
    {
        std::uint64_t sink = 0;
        const std::int64_t t0 = nowNs();
        for (auto [va, pt] : walks)
            sink += pt->walk(va).pa;
        walk_ns = double(nowNs() - t0);
        replaySink = sink;
    }
    sc1 = {};
    ExecSetup sc2 = makeExecSetup(profiles, opts.seed, report);
    const double access_ns = replayMem(sc2, rounds, true, mem_ops, nullptr);
    sc2 = {};

    const double insts = double(a.stats.instructions);
    const double kinst = insts / 1000.0;
    report.add("workload.emit_ns", ratio(gen_ns, double(gen_ops)), "ns");
    report.add("cpu.run_ns_per_inst", ratio(a.runNs, insts), "ns");
    report.add("cpu.self_ns_per_inst", ratio(a.runNs - access_ns, insts),
               "ns");
    report.add("cpu.resident_ns_per_inst",
               ratio(a.residentNs, double(a.residentInsts)), "ns");
    report.add("cpu.hostile_ns_per_inst",
               ratio(a.hostileNs, double(a.hostileInsts)), "ns");
    report.add("cpu.ipc", ratio(insts, double(a.stats.cycles)), "ratio");
    report.add("cpu.mispredict_rate",
               ratio(double(a.stats.mispredicts), double(a.stats.branches)),
               "fraction");
    report.add("mem.translate_ns",
               ratio(translate_ns - gen_ns, double(mem_ops)), "ns");
    report.add("mem.access_ns",
               ratio(access_ns - translate_ns, double(mem_ops)), "ns");
    report.add("mem.ptw_ns", ratio(walk_ns, double(walks.size())), "ns");
    const double tlb_misses = double(c1.tlbMisses - c0.tlbMisses);
    const double stlb_hits = double(c1.stlbHits - c0.stlbHits);
    report.add("mem.dtlb_miss_rate",
               ratio(tlb_misses, double(c1.tlbHits - c0.tlbHits) + tlb_misses),
               "fraction");
    report.add("mem.stlb_hit_rate", ratio(stlb_hits, tlb_misses), "fraction");
    report.add("mem.ptw_per_kinst", ratio(tlb_misses - stlb_hits, kinst),
               "count");
    report.add("mem.bitmap_checks_per_kinst",
               ratio(double(c1.bitmapChecks - c0.bitmapChecks), kinst),
               "count");
    const double l1_miss = double(c1.l1Misses - c0.l1Misses);
    const double l2_miss = double(c1.l2Misses - c0.l2Misses);
    report.add("mem.l1d_miss_rate",
               ratio(l1_miss, l1_miss + double(c1.l1Hits - c0.l1Hits)),
               "fraction");
    report.add("mem.l2_miss_rate",
               ratio(l2_miss, l2_miss + double(c1.l2Hits - c0.l2Hits)),
               "fraction");
    report.add("mem.dram_per_kinst", ratio(double(c1.dram - c0.dram), kinst),
               "count");
    report.add("mem.tlb_flushes",
               ratio(double(c1.tlbFlushes - c0.tlbFlushes), insts / 1e6),
               "1/Minst");
    if (!own)
        return;

    report.add("emcall.requests", double(c1.requests - c0.requests), "count");
    report.add("ems.os_pool_grants", double(c1.poolGrants - c0.poolGrants),
               "count");

    // U: the same rounds untraced, for the tracing overhead.
    sa = {};
    ExecSetup su = makeExecSetup(profiles, opts.seed, report);
    ExecTotals u;
    const std::int64_t u0 = nowNs();
    for (std::uint64_t r = 0; r < rounds.size(); ++r) {
        for (const Segment &seg : rounds[r])
            executeSegment(su, profiles, seg, r, u, report, nullptr, nullptr);
    }
    const double wall_u = double(nowNs() - u0);
    report.attempted += u.chunks + u.prims;
    if (u.stats.ticks != a.stats.ticks ||
        u.stats.instructions != a.stats.instructions)
        report.errors.push_back("untraced replay simulated differently");
    report.add("trace.overhead_ratio", wall_a / wall_u, "ratio");

    const double workload_self = gen_ns;
    const double mem_self = access_ns - gen_ns;
    const double cpu_self = a.runNs - access_ns;
    const double unattributed = wall_a - a.runNs - a.switchNs;
    report.line(fmt("traced: %zu rounds, %.0f simulated instructions; "
                    "tracing overhead %.2f%%",
                    rounds.size(), insts, (wall_a / wall_u - 1.0) * 100.0));
    report.line(fmt("attribution of %.3f ms traced wall time: workload "
                    "%.3f, mem %.3f (translate %.3f, access %.3f), cpu self "
                    "%.3f, sdk+emcall+ems (EENTER/EEXIT/AEX+ERESUME) %.3f, "
                    "unattributed %.3f ms",
                    wall_a * 1e-6, workload_self * 1e-6, mem_self * 1e-6,
                    (translate_ns - gen_ns) * 1e-6,
                    (access_ns - translate_ns) * 1e-6, cpu_self * 1e-6,
                    a.switchNs * 1e-6, unattributed * 1e-6));
    const std::string path = opts.outDir + "/spans-" + opts.workload + ".tsv";
    if (!spans.log.write(path))
        report.errors.push_back("cannot write " + path);
    else
        report.line(fmt("spans: %zu written to %s", spans.log.spans().size(),
                        path.c_str()));
}

} // namespace

void
probeDataPlane(const Options &opts, Report &report)
{
    traceDataPlane(opts, 0.125, 1, false, report);
}

Report
runEnclaveExec(const Options &opts)
{
    if (!opts.trace)
        return runExec(opts);
    Report report;
    traceDataPlane(opts, 1.0,
                   std::max<std::uint64_t>(1, std::uint64_t(opts.seconds / 10)),
                   true, report);
    probeManagement(opts, "", report);
    probeCrypto(opts, report);
    return report;
}

} // namespace perfbench
