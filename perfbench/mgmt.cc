/**
 * @file
 * Management-plane workloads: mgmt_attest and mgmt_churn.
 *
 * Both are closed loops with one client that drive the real
 * EmCall -> mailbox -> EmsRuntime path through the SDK, as the
 * untrusted OS and HostApp would. A workload is written once against
 * the Level interface, so the traced run can replay the identical op
 * stream entering one level lower each time: through EnclaveHandle
 * (the SDK), through EmCall::invoke, and through EmsRuntime::handle.
 * Because the simulator is deterministic, each level sees the same
 * enclave ids, VAs and quotes, which the replay checks.
 */

#include <array>
#include <memory>
#include <unordered_map>

#include "common.hh"
#include "core/sdk.hh"
#include "core/system.hh"
#include "crypto/aes128.hh"
#include "crypto/ed25519.hh"
#include "crypto/sha256.hh"
#include "crypto/x25519.hh"

namespace perfbench
{

using namespace hypertee;

namespace
{

/** The SDK calls the management workloads make. */
enum class SdkOp : std::uint8_t
{
    Create,
    AddPage,
    Measure,
    Enter,
    Exit,
    Alloc,
    Free,
    ShmCreate,
    ShmShare,
    ShmAttach,
    ShmDetach,
    ShmDestroy,
    Attest,
    Destroy,
};

constexpr std::size_t sdkOpCount = 14;

const char *const sdkOpNames[sdkOpCount] = {
    "create",     "add_page",   "measure",    "enter",     "exit",
    "alloc",      "free",       "shm_create", "shm_share", "shm_attach",
    "shm_detach", "shm_destroy", "attest",    "destroy",
};

/** Whether the SDK call hands its first result word back. */
bool
returnsValue(SdkOp op)
{
    return op == SdkOp::Create || op == SdkOp::Alloc ||
           op == SdkOp::ShmCreate || op == SdkOp::ShmAttach;
}

struct Wire
{
    PrimitiveOp op;
    PrivMode mode;
};

/** The primitive and privilege each SDK call uses (core/sdk.cc). */
Wire
wireOf(SdkOp op)
{
    switch (op) {
      case SdkOp::Create: return {PrimitiveOp::ECreate, PrivMode::Supervisor};
      case SdkOp::AddPage: return {PrimitiveOp::EAdd, PrivMode::Supervisor};
      case SdkOp::Measure: return {PrimitiveOp::EMeas, PrivMode::Supervisor};
      case SdkOp::Enter: return {PrimitiveOp::EEnter, PrivMode::Supervisor};
      case SdkOp::Exit: return {PrimitiveOp::EExit, PrivMode::User};
      case SdkOp::Alloc: return {PrimitiveOp::EAlloc, PrivMode::User};
      case SdkOp::Free: return {PrimitiveOp::EFree, PrivMode::User};
      case SdkOp::ShmCreate: return {PrimitiveOp::EShmGet, PrivMode::User};
      case SdkOp::ShmShare: return {PrimitiveOp::EShmShr, PrivMode::User};
      case SdkOp::ShmAttach: return {PrimitiveOp::EShmAt, PrivMode::User};
      case SdkOp::ShmDetach: return {PrimitiveOp::EShmDt, PrivMode::User};
      case SdkOp::ShmDestroy: return {PrimitiveOp::EShmDes, PrivMode::User};
      case SdkOp::Attest: return {PrimitiveOp::EAttest, PrivMode::User};
      case SdkOp::Destroy: return {PrimitiveOp::EDestroy, PrivMode::Supervisor};
    }
    return {PrimitiveOp::ECreate, PrivMode::Supervisor};
}

/**
 * One SDK call. @c args are the primitive's wire arguments exactly as
 * EnclaveHandle builds them; @c target is the handle the SDK call is
 * made on (the current enclave for user-mode primitives).
 */
struct Call
{
    SdkOp op;
    EnclaveId target;
    std::vector<std::uint64_t> args;
    const Bytes *payload = nullptr;
};

struct Reply
{
    bool ok = false;
    std::uint64_t value = 0; ///< first result word (id, VA)
    Bytes payload;           ///< measurement or quote
    Tick latency = 0;        ///< simulated round trip / service time
};

/** Where a call enters the simulator. */
class Level
{
  public:
    virtual ~Level() = default;
    virtual Reply issue(const Call &c) = 0;
};

/** Through the SDK: EnclaveHandle methods. */
class SdkLevel final : public Level
{
  public:
    explicit SdkLevel(HyperTeeSystem &sys) : _sys(sys) {}

    Reply
    issue(const Call &c) override
    {
        Reply r;
        if (c.op == SdkOp::Create) {
            EnclaveConfig cfg;
            cfg.stackPages = c.args[0];
            cfg.heapPages = c.args[1];
            cfg.maxShmPages = c.args[2];
            EnclaveHandle h(_sys, 0, cfg, /*charge_core=*/false);
            r.latency = h.lastLatency();
            r.ok = h.valid();
            r.value = h.id();
            if (r.ok)
                _handles.emplace(h.id(), h);
            return r;
        }
        auto it = _handles.find(c.target);
        if (it == _handles.end())
            return r;
        EnclaveHandle &h = it->second;
        switch (c.op) {
          case SdkOp::Create:
            break;
          case SdkOp::AddPage:
            r.ok = h.addPage(c.args[1], *c.payload, c.args[2]);
            break;
          case SdkOp::Measure:
            r.payload = h.measure();
            r.ok = !r.payload.empty();
            break;
          case SdkOp::Enter:
            r.ok = h.enter();
            break;
          case SdkOp::Exit:
            r.ok = h.exit();
            break;
          case SdkOp::Alloc:
            r.value = h.alloc(c.args[0]);
            r.ok = r.value != 0;
            break;
          case SdkOp::Free:
            r.ok = h.free(c.args[0], c.args[1]);
            break;
          case SdkOp::ShmCreate:
            r.value = h.shmCreate(c.args[0], c.args[1]);
            r.ok = r.value != 0;
            break;
          case SdkOp::ShmShare:
            r.ok = h.shmShare(ShmId(c.args[0]), EnclaveId(c.args[1]),
                              c.args[2]);
            break;
          case SdkOp::ShmAttach:
            r.value = h.shmAttach(ShmId(c.args[0]), c.args[1]);
            r.ok = r.value != 0;
            break;
          case SdkOp::ShmDetach:
            r.ok = h.shmDetach(ShmId(c.args[0]));
            break;
          case SdkOp::ShmDestroy:
            r.ok = h.shmDestroy(ShmId(c.args[0]));
            break;
          case SdkOp::Attest: {
            const Bytes &p = *c.payload;
            r.payload = h.attest(Bytes(p.begin(), p.begin() + 16),
                                 Bytes(p.begin() + 16, p.end()));
            r.ok = !r.payload.empty();
            break;
          }
          case SdkOp::Destroy:
            r.ok = h.destroy();
            break;
        }
        r.ok = r.ok && h.lastStatus() == PrimStatus::Ok;
        r.latency = h.lastLatency();
        if (c.op == SdkOp::Destroy && r.ok)
            _handles.erase(it);
        return r;
    }

  private:
    HyperTeeSystem &_sys;
    std::unordered_map<EnclaveId, EnclaveHandle> _handles;
};

/** One level lower: the core's EMCall gate. */
class EmCallLevel final : public Level
{
  public:
    explicit EmCallLevel(HyperTeeSystem &sys) : _gate(sys.emCall(0)) {}

    Reply
    issue(const Call &c) override
    {
        const Wire w = wireOf(c.op);
        InvokeResult res = _gate.invoke(w.op, w.mode, c.args,
                                        c.payload ? *c.payload : Bytes());
        Reply r;
        r.ok = res.accepted && res.response.status == PrimStatus::Ok;
        if (returnsValue(c.op) && !res.response.results.empty())
            r.value = res.response.results[0];
        r.payload = std::move(res.response.payload);
        r.latency = res.latency;
        return r;
    }

  private:
    EmCall &_gate;
};

/**
 * Two levels lower: EmsRuntime::handle, with the caller identity the
 * gate would have encapsulated tracked here.
 */
class EmsLevel final : public Level
{
  public:
    explicit EmsLevel(HyperTeeSystem &sys) : _ems(sys.ems()) {}

    Reply
    issue(const Call &c) override
    {
        const Wire w = wireOf(c.op);
        PrimitiveRequest req;
        req.reqId = ++_reqId;
        req.op = w.op;
        req.caller = _caller;
        req.mode = w.mode;
        req.args = c.args;
        if (c.payload)
            req.payload = *c.payload;
        PrimitiveResponse resp = _ems.handle(req);
        Reply r;
        r.ok = resp.status == PrimStatus::Ok;
        if (returnsValue(c.op) && !resp.results.empty())
            r.value = resp.results[0];
        if (r.ok && (resp.flags & kFlagEnterEnclave) &&
            !resp.results.empty())
            _caller = EnclaveId(resp.results[0]);
        else if (r.ok && (resp.flags & kFlagExitEnclave))
            _caller = invalidEnclaveId;
        r.payload = std::move(resp.payload);
        r.latency = resp.completedAt;
        return r;
    }

  private:
    EmsRuntime &_ems;
    EnclaveId _caller = invalidEnclaveId;
    std::uint64_t _reqId = 0;
};

enum class LevelKind
{
    Sdk,
    EmCall,
    Ems
};

std::unique_ptr<Level>
makeLevel(LevelKind kind, HyperTeeSystem &sys)
{
    switch (kind) {
      case LevelKind::Sdk: return std::make_unique<SdkLevel>(sys);
      case LevelKind::EmCall: return std::make_unique<EmCallLevel>(sys);
      case LevelKind::Ems: return std::make_unique<EmsLevel>(sys);
    }
    return nullptr;
}

/**
 * Issues calls on a level, times each one from outside, checks its
 * status and folds its results into the digests.
 */
class Driver
{
  public:
    Driver(Level &level, Report &report, SpanLog *spans)
        : _level(&level), _report(report), _spans(spans)
    {
        if (_spans) {
            for (std::size_t i = 0; i < sdkOpCount; ++i)
                _spanNames[i] =
                    _spans->nameId(std::string("sdk.") + sdkOpNames[i]);
        }
    }

    Reply
    call(const Call &c)
    {
        const auto op = static_cast<std::size_t>(c.op);
        std::int64_t t0 = 0;
        if (_spans)
            _spans->open(_spanNames[op], request);
        else
            t0 = nowNs();
        Reply r = _level->issue(c);
        const std::int64_t dt = _spans ? _spans->close() : nowNs() - t0;

        ++prims;
        if (c.op == SdkOp::Create || c.op == SdkOp::ShmCreate)
            ++keysAssigned;
        if (timing) {
            ++timedPrims;
            allNs.push_back(double(dt));
        }
        if (perOp) {
            opNs[op].push_back(double(dt));
            opSimUs[op].push_back(ticksToUs(r.latency));
        }
        if (!r.ok) {
            _report.fail(fmt("%s rejected (op %llu)", sdkOpNames[op],
                             (unsigned long long)prims));
        }
        replayDigest.mix(r.value);
        replayDigest.mixBytes(r.payload);
        if (fingerprint && !fingerprint->complete) {
            ++fingerprint->ops;
            fingerprint->latencySum += r.latency;
            fingerprint->mix(r.value);
            fingerprint->mixBytes(r.payload);
        }
        return r;
    }

    Report &report() { return _report; }
    SpanLog *spans() { return _spans; }

    /** Continue on another SoC's level. */
    void
    rebind(Level &level)
    {
        _level = &level;
        keysAssigned = 0;
    }

    /** Request id stamped on spans (the lifecycle or churn op). */
    std::uint64_t request = 0;
    /** Count this call's host time into allNs (the timed region). */
    bool timing = false;
    /** Keep per-op samples (the traced run's levels). */
    bool perOp = false;
    std::uint64_t prims = 0;
    std::uint64_t timedPrims = 0;
    /** ECREATE/ESHMGET calls on the current SoC; each takes a KeyID. */
    std::uint64_t keysAssigned = 0;
    std::vector<double> allNs;
    std::array<std::vector<double>, sdkOpCount> opNs;
    std::array<std::vector<double>, sdkOpCount> opSimUs;
    /** Results of every call, compared across replay levels. */
    Fingerprint replayDigest;
    Fingerprint *fingerprint = nullptr;

  private:
    Level *_level;
    Report &_report;
    SpanLog *_spans;
    std::array<std::uint32_t, sdkOpCount> _spanNames{};
};

/** Seeded page contents for enclave images. */
std::vector<Bytes>
makePages(Random &rng, std::size_t count)
{
    std::vector<Bytes> pages(count, Bytes(pageSize));
    for (Bytes &page : pages) {
        for (std::size_t i = 0; i < pageSize; i += 8) {
            std::uint64_t v = rng.next();
            for (std::size_t b = 0; b < 8; ++b)
                page[i + b] = std::uint8_t(v >> (8 * b));
        }
    }
    return pages;
}

/** Pool and system sizing shared by both management workloads. */
SystemParams
mgmtSystemParams()
{
    SystemParams p;
    p.csCoreCount = 1;
    p.ems.pool.initialPages = 16384; // 64 MiB warm pool
    p.ems.pool.refillBatch = 4096;
    return p;
}

constexpr std::size_t imagePages = 8;
constexpr std::uint64_t codePerms = PteRead | PteExec;

/** Create one enclave from an 8-page image and measure it. */
EnclaveId
createMeasured(Driver &d, const std::vector<Bytes> &image,
               std::uint64_t heap_pages, Bytes *measurement)
{
    Reply c = d.call({SdkOp::Create, 0, {16, heap_pages, 256}});
    if (!c.ok)
        return invalidEnclaveId;
    const EnclaveId id = EnclaveId(c.value);
    for (std::size_t p = 0; p < image.size(); ++p) {
        d.call({SdkOp::AddPage, id,
                {id, EnclaveLayout::codeBase + p * pageSize, codePerms},
                &image[p]});
    }
    Reply m = d.call({SdkOp::Measure, id, {id}});
    if (m.payload.size() != Sha256::digestSize)
        d.report().fail("EMEAS returned no 32-byte measurement");
    if (measurement)
        *measurement = std::move(m.payload);
    return id;
}

/**
 * A management workload: set-up ops, then timed steps, with untimed
 * turnover work due between some steps, then a checked teardown.
 */
class MgmtWorkload
{
  public:
    explicit MgmtWorkload(HyperTeeSystem &sys) : _sys(&sys) {}
    virtual ~MgmtWorkload() = default;
    /** Continue on a fresh SoC (after end(), before begin()). */
    void bind(HyperTeeSystem &sys) { _sys = &sys; }
    virtual void begin(Driver &d) = 0;
    virtual void step(Driver &d) = 0;
    /** Untimed work due after a step. */
    virtual void turnover(Driver &) {}
    virtual void end(Driver &d) = 0;
    /** Steps covered by the fingerprint. */
    virtual std::uint64_t fingerprintSteps() const = 0;
    /** Steps per timing window (see Window). */
    virtual std::uint64_t windowSteps() const = 0;
    virtual const char *stepName() const = 0;

  protected:
    HyperTeeSystem *_sys;
};

/**
 * mgmt_attest: back-to-back quickstart-style lifecycles. Each one is
 * ECREATE, EADD of an 8-page image, EMEAS, EENTER, a few small
 * EALLOC/EFREE, EATTEST for a fresh seeded RemoteVerifier, the
 * verifier's verify + sessionKey, EEXIT and EDESTROY.
 */
class AttestWorkload final : public MgmtWorkload
{
  public:
    AttestWorkload(HyperTeeSystem &sys, std::uint64_t seed, bool verify)
        : MgmtWorkload(sys), _rng(seed ^ 0xa77e57ULL), _verify(verify)
    {
        Random image_rng(seed ^ 0x1a6e5ULL);
        for (std::size_t i = 0; i < imageCount; ++i)
            _images.push_back(makePages(image_rng, imagePages));
        _measurements.resize(imageCount);
    }

    void begin(Driver &) override {}

    void
    step(Driver &d) override
    {
        SpanLog *spans = d.spans();
        if (spans) {
            if (!_spanIds[0]) {
                _spanIds[0] = spans->nameId("lifecycle");
                _spanIds[1] = spans->nameId("crypto.verifier_init");
                _spanIds[2] = spans->nameId("sdk.verify");
                _spanIds[3] = spans->nameId("crypto.session_key");
            }
            spans->open(_spanIds[0], d.request);
        }
        lifecycle(d);
        if (spans)
            spans->close();
        ++d.request;
    }

    void end(Driver &) override {}
    std::uint64_t fingerprintSteps() const override { return 200; }
    std::uint64_t windowSteps() const override { return 8; }
    const char *stepName() const override { return "lifecycles"; }

  private:
    static constexpr std::size_t imageCount = 16;

    void
    lifecycle(Driver &d)
    {
        const std::size_t img = _rng.below(imageCount);
        Bytes meas;
        const EnclaveId id = createMeasured(d, _images[img], 64, &meas);
        if (id == invalidEnclaveId)
            return;
        // The same image must always measure the same.
        if (_measurements[img].empty())
            _measurements[img] = meas;
        else if (_measurements[img] != meas)
            d.report().fail("measurement of an image changed");

        d.call({SdkOp::Enter, id, {id}});
        const std::uint64_t allocs = 1 + _rng.below(3);
        std::vector<std::pair<Addr, std::uint64_t>> regions;
        for (std::uint64_t i = 0; i < allocs; ++i) {
            const std::uint64_t n = 1ULL << _rng.below(4); // 1-8 pages
            Reply a = d.call({SdkOp::Alloc, id, {n}});
            if (a.ok)
                regions.push_back({a.value, n});
        }
        for (auto [va, n] : regions)
            d.call({SdkOp::Free, id, {va, n}});

        SpanLog *spans = d.spans();
        const std::uint64_t verifier_seed = _rng.next();
        if (spans)
            spans->open(_spanIds[1], d.request);
        RemoteVerifier verifier(verifier_seed);
        if (spans)
            spans->close();
        Bytes challenge = verifier.nonce();
        challenge.insert(challenge.end(), verifier.dhPublic().begin(),
                         verifier.dhPublic().end());
        Reply quote = d.call({SdkOp::Attest, id, {}, &challenge});
        if (_verify && quote.ok) {
            if (spans)
                spans->open(_spanIds[2], d.request);
            const std::int64_t t0 = nowNs();
            const bool trusted = verifier.verify(
                quote.payload, _sys->certifiedEkPublic(), meas);
            verifyNs.push_back(double(nowNs() - t0));
            if (spans)
                spans->close();
            if (!trusted)
                d.report().fail("quote did not verify");
            if (spans)
                spans->open(_spanIds[3], d.request);
            const Bytes key = verifier.sessionKey(quote.payload);
            if (spans)
                spans->close();
            if (key.size() != 32)
                d.report().fail("no session key derived");
        }
        d.call({SdkOp::Exit, id, {}});
        d.call({SdkOp::Destroy, id, {id}});
    }

  public:
    std::vector<double> verifyNs;

  private:
    Random _rng;
    bool _verify;
    std::vector<std::vector<Bytes>> _images;
    std::vector<Bytes> _measurements;
    std::array<std::uint32_t, 4> _spanIds{};
};

/**
 * mgmt_churn: 16 long-lived measured enclaves. Each op picks an
 * enclave (EEXIT/EENTER when it changes), then an EALLOC of 1-512
 * pages in powers of two, an EFREE of a live region, or the 5-call
 * ESHM sequence create, share, attach, detach, destroy. Nothing is
 * signed or hashed in the timed ops.
 *
 * Where the mix comes from: EALLOC and EFREE are equally likely, as
 * in Fig. 8(a), where every EALLOC is undone by one EFREE; a shared
 * region is the 64-page (256 KiB) channel of
 * examples/secure_inference.cpp.
 * The ESHM share and the cap on live regions per enclave have no
 * source in the paper; README.md gives their reasons and how much the
 * metrics depend on them.
 *
 * The EMS hands out heap and shared-memory VAs from per-enclave
 * cursors that never move back, so the enclaves are torn down and
 * re-created every epochOps ops, outside the timed region; the
 * teardown checks that every region and enclave was released.
 */
class ChurnWorkload final : public MgmtWorkload
{
  public:
    static constexpr std::size_t enclaveCount = 16;
    static constexpr std::uint64_t epochOps = 8192;
    static constexpr std::size_t maxLiveRegions = 8;
    static constexpr std::uint64_t heapPages = 64;
    /** Percent of ops that are an ESHM sequence. */
    static constexpr std::uint64_t shmPercent = 15;
    static constexpr std::uint64_t shmPages = 64;

    ChurnWorkload(HyperTeeSystem &sys, std::uint64_t seed)
        : MgmtWorkload(sys), _rng(seed ^ 0xc4012ULL)
    {
        Random image_rng(seed ^ 0x1a6e5ULL);
        _image = makePages(image_rng, imagePages);
    }

    void
    begin(Driver &d) override
    {
        _ownedBefore = _sys->ems().ownership().size();
        _ids.clear();
        for (std::size_t i = 0; i < enclaveCount; ++i)
            _ids.push_back(createMeasured(d, _image, heapPages, nullptr));
        _live.assign(enclaveCount, {});
        _heapUsed.assign(enclaveCount, 0);
        _current = -1;
        _opsInEpoch = 0;
    }

    void
    step(Driver &d) override
    {
        ++d.request;
        ++_opsInEpoch;
        const int e = int(_rng.below(enclaveCount));
        const EnclaveId id = _ids[std::size_t(e)];
        if (e != _current) {
            if (_current >= 0)
                d.call({SdkOp::Exit, _ids[std::size_t(_current)], {}});
            d.call({SdkOp::Enter, id, {id}});
            _current = e;
        }
        auto &regions = _live[std::size_t(e)];
        enum
        {
            Alloc,
            Free,
            Shm
        } kind = _rng.below(100) < shmPercent ? Shm
                 : _rng.below(2) == 0         ? Alloc
                                              : Free;
        if (kind == Alloc && regions.size() >= maxLiveRegions)
            kind = Free;
        if (kind == Free && regions.empty())
            kind = Alloc;
        std::uint64_t n = 0;
        if (kind == Alloc) {
            n = 1ULL << _rng.below(10); // 1-512 pages
            if (_heapUsed[std::size_t(e)] + n > heapVaPages)
                kind = regions.empty() ? Shm : Free;
        }

        if (kind == Alloc) {
            Reply a = d.call({SdkOp::Alloc, id, {n}});
            if (a.ok) {
                regions.push_back({a.value, n});
                _heapUsed[std::size_t(e)] += n;
            }
        } else if (kind == Free) {
            const std::size_t i = _rng.below(regions.size());
            d.call({SdkOp::Free, id, {regions[i].first, regions[i].second}});
            regions[i] = regions.back();
            regions.pop_back();
        } else {
            const std::size_t receiver =
                (std::size_t(e) + 1 + _rng.below(enclaveCount - 1)) %
                enclaveCount;
            Reply s = d.call({SdkOp::ShmCreate, id,
                              {shmPages, PteRead | PteWrite}});
            if (!s.ok)
                return;
            const std::uint64_t shm = s.value;
            _shms.push_back(ShmId(shm));
            d.call({SdkOp::ShmShare, id, {shm, _ids[receiver], PteRead}});
            d.call({SdkOp::ShmAttach, id, {shm, PteRead | PteWrite}});
            d.call({SdkOp::ShmDetach, id, {shm}});
            d.call({SdkOp::ShmDestroy, id, {shm}});
        }
    }

    void
    turnover(Driver &d) override
    {
        if (_opsInEpoch < epochOps)
            return;
        end(d);
        begin(d);
    }

    void
    end(Driver &d) override
    {
        if (_current >= 0)
            d.call({SdkOp::Exit, _ids[std::size_t(_current)], {}});
        _current = -1;
        for (EnclaveId id : _ids)
            d.call({SdkOp::Destroy, id, {id}});
        const EmsRuntime &ems = _sys->ems();
        for (EnclaveId id : _ids) {
            const EnclaveControl *enc = ems.enclave(id);
            if (enc && enc->state != EnclaveState::Destroyed)
                d.report().fail(fmt("enclave %u survived EDESTROY", id));
        }
        for (ShmId shm : _shms) {
            if (ems.shm(shm) != nullptr)
                d.report().fail(fmt("shared region %u not released", shm));
        }
        _shms.clear();
        if (_sys->ems().ownership().size() != _ownedBefore) {
            d.report().fail(fmt(
                "%zu pages still owned after teardown",
                _sys->ems().ownership().size() - _ownedBefore));
        }
    }

    std::uint64_t fingerprintSteps() const override { return epochOps; }
    std::uint64_t windowSteps() const override { return 1024; }
    const char *stepName() const override { return "ops"; }

  private:
    /** Heap VA between the initial heap and the shared-memory base. */
    static constexpr std::uint64_t heapVaPages =
        (EnclaveLayout::shmBase - EnclaveLayout::heapBase) / pageSize -
        heapPages;

    Random _rng;
    std::vector<Bytes> _image;
    std::vector<EnclaveId> _ids;
    std::vector<std::vector<std::pair<Addr, std::uint64_t>>> _live;
    std::vector<std::uint64_t> _heapUsed;
    std::vector<ShmId> _shms;
    std::size_t _ownedBefore = 0;
    std::uint64_t _opsInEpoch = 0;
    int _current = -1;
};

enum class MgmtKind
{
    Attest,
    Churn
};

struct MgmtInstance
{
    LevelKind levelKind = LevelKind::Sdk;
    /** SoCs used so far (see keyIdBudget). */
    std::uint64_t socs = 1;
    std::unique_ptr<HyperTeeSystem> sys;
    std::unique_ptr<MgmtWorkload> workload;
    std::unique_ptr<Level> level;
    std::unique_ptr<Driver> driver;
};

/**
 * The EMS numbers KeyIDs with a 16-bit counter that is never reused,
 * and assigning the 65536th one aborts the simulator ("KeyID 0 is the
 * plaintext domain"). Every ECREATE and ESHMGET takes one, so a long
 * run moves to a fresh SoC before the counter wraps.
 */
constexpr std::uint64_t keyIdBudget = 60000;

/** Build the SoC, the workload and its level, and run begin(). */
MgmtInstance
makeInstance(MgmtKind kind, LevelKind level, std::uint64_t seed,
             Report &report, SpanLog *spans)
{
    MgmtInstance m;
    m.levelKind = level;
    m.sys = std::make_unique<HyperTeeSystem>(mgmtSystemParams());
    if (kind == MgmtKind::Attest) {
        m.workload = std::make_unique<AttestWorkload>(
            *m.sys, seed, level == LevelKind::Sdk);
    } else {
        m.workload = std::make_unique<ChurnWorkload>(*m.sys, seed);
    }
    m.level = makeLevel(level, *m.sys);
    m.driver = std::make_unique<Driver>(*m.level, report, spans);
    m.workload->begin(*m.driver);
    return m;
}

/**
 * Untimed work between two steps: the workload's turnover, or a move
 * to a fresh SoC when the KeyID budget is spent.
 */
void
betweenSteps(MgmtInstance &m)
{
    if (m.driver->keysAssigned < keyIdBudget) {
        m.workload->turnover(*m.driver);
        return;
    }
    m.workload->end(*m.driver);
    ++m.socs;
    m.level.reset();
    m.sys = std::make_unique<HyperTeeSystem>(mgmtSystemParams());
    m.level = makeLevel(m.levelKind, *m.sys);
    m.driver->rebind(*m.level);
    m.workload->bind(*m.sys);
    m.workload->begin(*m.driver);
}

/** The end-to-end (untraced) run of a management workload. */
Report
runMgmt(MgmtKind kind, const Options &opts)
{
    Report report;
    SetupTimes setup;
    MgmtInstance m = repeatedSetup(setup, [&] {
        return makeInstance(kind, LevelKind::Sdk, opts.seed, report,
                            nullptr);
    });
    Driver &d = *m.driver;
    MgmtWorkload &wl = *m.workload;
    d.fingerprint = &report.fingerprint;
    const std::uint64_t setup_prims = d.prims;

    // Closed loop, one client. Per-step host time is the lifecycle
    // latency on mgmt_attest; per-call host time the primitive latency
    // on mgmt_churn. Epoch turnover is untimed.
    std::vector<double> step_ns;
    std::vector<double> &lat_ns =
        kind == MgmtKind::Attest ? step_ns : d.allNs;
    WindowLog windows;
    windows.open(0);
    double rss_mb = 0;
    std::int64_t timed_ns = 0;
    std::uint64_t steps = 0;
    const std::int64_t budget_ns = std::int64_t(opts.seconds * 1e9);
    while (timed_ns < budget_ns) {
        d.timing = true;
        const std::uint64_t prims0 = d.timedPrims;
        const std::int64_t t0 = nowNs();
        wl.step(d);
        const std::int64_t dt = nowNs() - t0;
        d.timing = false;
        timed_ns += dt;
        step_ns.push_back(double(dt));
        windows.add(double(dt), double(d.timedPrims - prims0));
        ++steps;
        if (steps % wl.windowSteps() == 0) {
            windows.close(lat_ns.size());
            windows.open(lat_ns.size());
        }
        if (steps == wl.fingerprintSteps()) {
            report.fingerprint.complete = true;
            rss_mb = peakRssMb();
        }
        betweenSteps(m);
    }
    wl.end(d);
    if (windows.size() == 0) // a run shorter than one window
        windows.close(lat_ns.size());

    const WindowLog::Summary summary = windows.summarize(lat_ns);
    const double p50_us = quantile(summary.samples, 0.50) * 1e-3;
    const double p99_us = quantile(summary.samples, 0.99) * 1e-3;
    const double prims_per_s = summary.work / (summary.ns * 1e-9);

    report.attempted = d.prims - setup_prims;
    report.add("setup_s", setup.medianS(), "s");
    report.add("throughput_per_s", prims_per_s, "1/s");
    report.add("latency_p50_us", p50_us, "us");
    report.add("latency_p99_us", p99_us, "us");
    report.add("peak_rss_mb", rss_mb > 0 ? rss_mb : peakRssMb(), "MiB");

    report.line(fmt("prims_per_s %.1f prims/s at reference host speed "
                    "(%.1f prims/s as timed: %llu EMCALLs in %.3f s, "
                    "%zu windows of %llu %s)",
                    prims_per_s, summary.work / (summary.rawNs * 1e-9),
                    (unsigned long long)d.timedPrims,
                    double(timed_ns) * 1e-9, windows.size(),
                    (unsigned long long)wl.windowSteps(), wl.stepName()));
    if (kind == MgmtKind::Attest) {
        report.line(fmt("lifecycle_ms_p50 %.4f ms, lifecycle_ms_p99 %.4f "
                        "ms over %zu lifecycles",
                        p50_us * 1e-3, p99_us * 1e-3, summary.samples.size()));
    } else {
        report.line(fmt("prim_us_p50 %.3f us, prim_us_p99 %.3f us over "
                        "%zu primitive calls",
                        p50_us, p99_us, summary.samples.size()));
    }
    report.line(fmt("host speed: median probe pass %.1f us, reference "
                    "%.1f us; host times above are scaled to the reference",
                    windows.medianPassNs() * 1e-3,
                    HostSpeed::referencePassNs * 1e-3));
    report.line(setup.line());
    report.line(fmt("error_rate %.6g (%llu failed of %llu attempted)",
                    double(report.failed) / double(report.attempted),
                    (unsigned long long)report.failed,
                    (unsigned long long)report.attempted));
    return report;
}

/** One replay of a fixed number of steps on a fresh SoC. */
struct LevelRun
{
    double wallNs = 0;
    std::uint64_t steps = 0;
    std::uint64_t prims = 0;
    std::array<std::vector<double>, sdkOpCount> opNs;
    std::array<std::vector<double>, sdkOpCount> opSimUs;
    std::vector<double> verifyNs;
    std::uint64_t digest = 0;
    std::uint64_t requests = 0;
    std::uint64_t poolGrants = 0;

    double
    opTotal(std::size_t op) const
    {
        double sum = 0;
        for (double v : opNs[op])
            sum += v;
        return sum;
    }
};

LevelRun
runLevel(MgmtKind kind, LevelKind level, std::uint64_t seed,
         std::uint64_t steps, bool per_op, Report &report, SpanLog *spans)
{
    MgmtInstance m = makeInstance(kind, level, seed, report, spans);
    Driver &d = *m.driver;
    d.perOp = per_op;
    HyperTeeSystem &sys0 = *m.sys;
    const std::uint64_t prims0 = d.prims;
    const std::uint64_t req0 = sys0.emCall(0).requestsIssued();
    const std::uint64_t grants0 = sys0.osPoolGrants();

    LevelRun run;
    const std::int64_t t0 = nowNs();
    for (; run.steps < steps; ++run.steps) {
        m.workload->step(d);
        betweenSteps(m);
    }
    run.wallNs = double(nowNs() - t0);
    m.workload->end(d);

    run.prims = d.prims - prims0;
    run.opNs = std::move(d.opNs);
    run.opSimUs = std::move(d.opSimUs);
    if (auto *attest = dynamic_cast<AttestWorkload *>(m.workload.get()))
        run.verifyNs = std::move(attest->verifyNs);
    run.digest = d.replayDigest.digest;
    // Counters of the last SoC; runs short enough for one SoC report
    // their whole run.
    HyperTeeSystem &sys = *m.sys;
    const bool one_soc = m.socs == 1;
    run.requests = sys.emCall(0).requestsIssued() - (one_soc ? req0 : 0);
    run.poolGrants = sys.osPoolGrants() - (one_soc ? grants0 : 0);
    return run;
}

/**
 * The traced run of one management workload: the op stream through
 * the SDK with spans (A), again without spans (U, for the tracing
 * overhead), through EmCall::invoke (B) and through
 * EmsRuntime::handle (C). Per-op p50s come from A, B and C; layer self
 * times from their differences. With @p attribute set it also prints
 * the attribution of A's wall time and the overhead.
 */
void
traceMgmt(MgmtKind kind, const Options &opts, std::uint64_t steps,
          bool attribute, Report &report)
{
    SpanLog spans;
    SpanLog *span_ptr = attribute ? &spans : nullptr;
    LevelRun a = runLevel(kind, LevelKind::Sdk, opts.seed, steps, true,
                          report, span_ptr);
    LevelRun b = runLevel(kind, LevelKind::EmCall, opts.seed, steps, true,
                          report, nullptr);
    LevelRun c = runLevel(kind, LevelKind::Ems, opts.seed, steps, true,
                          report, nullptr);
    if (a.digest != b.digest || a.digest != c.digest)
        report.errors.push_back("replay levels returned different results");
    report.attempted += a.prims + b.prims + c.prims;

    for (std::size_t op = 0; op < sdkOpCount; ++op) {
        if (a.opNs[op].empty())
            continue; // left to the other management workload's probe
        const std::string name = sdkOpNames[op];
        const double sdk_us = median(a.opNs[op]) * 1e-3;
        const double invoke_us = median(b.opNs[op]) * 1e-3;
        const double handle_us = median(c.opNs[op]) * 1e-3;
        report.add("sdk." + name + "_us", sdk_us, "us");
        report.add("sdk.sim_latency_us." + name, median(a.opSimUs[op]),
                   "us");
        report.add("emcall.invoke_us." + name, invoke_us, "us");
        report.add("emcall.self_us." + name, invoke_us - handle_us, "us");
        report.add("ems.handle_us." + name, handle_us, "us");
    }
    if (!a.verifyNs.empty())
        report.add("sdk.verify_us", median(a.verifyNs) * 1e-3, "us");

    if (!attribute)
        return;
    report.add("emcall.requests", double(a.requests), "count");
    report.add("ems.os_pool_grants", double(a.poolGrants), "count");

    LevelRun u = runLevel(kind, LevelKind::Sdk, opts.seed, steps, false,
                          report, nullptr);
    report.attempted += u.prims;
    if (u.digest != a.digest)
        report.errors.push_back("untraced replay returned different results");
    report.add("trace.overhead_ratio", a.wallNs / u.wallNs, "ratio");

    double sdk_total = 0, emcall_total = 0, ems_total = 0;
    for (std::size_t op = 0; op < sdkOpCount; ++op) {
        sdk_total += a.opTotal(op);
        emcall_total += b.opTotal(op);
        ems_total += c.opTotal(op);
    }
    double crypto = 0;
    for (const SpanLog::Span &s : spans.spans()) {
        const std::string &n = spans.names()[s.name];
        if (n.rfind("crypto.", 0) == 0 || n == "sdk.verify")
            crypto += double(s.end - s.start);
    }
    const double unattributed = a.wallNs - sdk_total - crypto;
    report.line(fmt("traced: %llu %s, %llu EMCALLs per level; tracing "
                    "overhead %.2f%%",
                    (unsigned long long)a.steps,
                    kind == MgmtKind::Attest ? "lifecycles" : "ops",
                    (unsigned long long)a.prims,
                    (a.wallNs / u.wallNs - 1.0) * 100.0));
    report.line(fmt("attribution of %.3f ms traced wall time: "
                    "sdk self %.3f, emcall+fabric self %.3f, "
                    "ems (incl. in-EMS crypto) %.3f, crypto (verifier) "
                    "%.3f, unattributed %.3f ms",
                    a.wallNs * 1e-6, (sdk_total - emcall_total) * 1e-6,
                    (emcall_total - ems_total) * 1e-6, ems_total * 1e-6,
                    crypto * 1e-6, unattributed * 1e-6));
    const std::string path =
        opts.outDir + "/spans-" + opts.workload + ".tsv";
    if (!spans.write(path))
        report.errors.push_back("cannot write " + path);
    else
        report.line(fmt("spans: %zu written to %s", spans.spans().size(),
                        path.c_str()));
}

/** Steps of the workload's own traced run for a --seconds budget. */
std::uint64_t
tracedSteps(MgmtKind kind, double seconds)
{
    if (kind == MgmtKind::Attest)
        return std::max<std::uint64_t>(100, std::uint64_t(seconds * 40));
    return ChurnWorkload::epochOps *
           std::max<std::uint64_t>(1, std::uint64_t(seconds / 4));
}

Report
traceMgmtWorkload(MgmtKind kind, const Options &opts)
{
    Report report;
    traceMgmt(kind, opts, tracedSteps(kind, opts.seconds), true, report);
    probeManagement(opts, kind == MgmtKind::Attest ? "mgmt_attest"
                                                    : "mgmt_churn",
                    report);
    probeDataPlane(opts, report);
    probeCrypto(opts, report);
    return report;
}

/** Keeps the probed crypto results observable to the optimiser. */
volatile std::uint64_t cryptoSink = 0;

} // namespace

void
probeManagement(const Options &opts, const std::string &skip,
                Report &report)
{
    if (skip != "mgmt_attest")
        traceMgmt(MgmtKind::Attest, opts, 30, false, report);
    if (skip != "mgmt_churn")
        traceMgmt(MgmtKind::Churn, opts, 2048, false, report);
}

void
probeCrypto(const Options &opts, Report &report)
{
    // Called at the sizes the primitives use: a 4 KiB page for
    // SHA-256 (EADD/EMEAS) and AES-CTR, a quote-sized message for
    // Ed25519, and one X25519 scalar multiplication (SIGMA DH).
    Random rng(opts.seed ^ 0xc0ffeeULL);
    auto random_bytes = [&](std::size_t n) {
        Bytes b(n);
        for (auto &x : b)
            x = std::uint8_t(rng.next());
        return b;
    };
    const Bytes page = random_bytes(pageSize);
    const Bytes key16 = random_bytes(16);
    const Bytes seed32 = random_bytes(32);
    const Bytes message = random_bytes(200);
    const Bytes point = x25519Base(random_bytes(32));
    const Bytes pub = ed25519PublicKey(seed32);
    const Bytes sig = ed25519Sign(seed32, message);
    std::uint64_t sink = 0;

    auto time_calls = [&](int count, auto &&fn) {
        std::vector<double> ns;
        for (int i = 0; i < count; ++i) {
            const std::int64_t t0 = nowNs();
            fn();
            ns.push_back(double(nowNs() - t0));
        }
        return median(ns) * 1e-3;
    };
    report.add("crypto.sha256_us_per_page", time_calls(400, [&] {
                   sink += Sha256::digest(page)[0];
               }),
               "us");
    const Aes128 aes(key16);
    report.add("crypto.aes_ctr_us_per_page", time_calls(400, [&] {
                   sink += aes.ctrTransform(page, sink, 0)[0];
               }),
               "us");
    report.add("crypto.ed25519_sign_us", time_calls(40, [&] {
                   sink += ed25519Sign(seed32, message)[0];
               }),
               "us");
    bool verified = true;
    report.add("crypto.ed25519_verify_us", time_calls(40, [&] {
                   verified = verified && ed25519Verify(pub, message, sig);
               }),
               "us");
    report.add("crypto.x25519_us", time_calls(40, [&] {
                   sink += x25519(seed32, point)[0];
               }),
               "us");
    if (!verified)
        report.errors.push_back("crypto probe: signature did not verify");
    report.attempted += 920;
    cryptoSink = sink;
}

Report
runMgmtAttest(const Options &opts)
{
    return opts.trace ? traceMgmtWorkload(MgmtKind::Attest, opts)
                      : runMgmt(MgmtKind::Attest, opts);
}

Report
runMgmtChurn(const Options &opts)
{
    return opts.trace ? traceMgmtWorkload(MgmtKind::Churn, opts)
                      : runMgmt(MgmtKind::Churn, opts);
}

} // namespace perfbench
