/**
 * @file
 * Workload `compile_stream`: an open-loop stream of compile requests
 * into service::CompileService (3 workers) from one generator thread.
 *
 * Inputs (all drawn from --seed):
 *  - a hot set of kHot valid programs, requested round-robin (the
 *    repeat share, kHotShare, so the median request is a cache hit);
 *  - a cold ring of kCold valid programs, requested in a fixed cyclic
 *    order. The ring is far larger than the cache (kCacheCapacity), so
 *    every cold request is a miss that inserts and evicts: p99 is a
 *    miss;
 *  - kBadShare malformed IR and Fortran requests that must fail with
 *    their expected pass and a located diagnostic.
 * Programs are the five paper kernels plus generated Fortran sources,
 * varied over grid, z depth, timesteps, ablation toggles,
 * forceNumChunks and wse2/wse3.
 *
 * Each phase starts a fresh service (timed as set-up: construction plus
 * warming the hot set), sends a fixed number of requests and waits for
 * every reply. A request's latency runs from when it was due to its
 * reply (generator lag + queue + work), so generator stalls count.
 * Open-loop phases send at one Poisson arrival rate: kLowRate (light
 * load) and kSegments segments at kHighRate (loaded, below the knee).
 * Saturated phases keep kDepth requests in flight, each due when the
 * one before it leaves the window, so the workers never wait for work.
 *
 * The end-to-end latencies and the throughput come from the saturated
 * phases; the open-loop ones are per-layer numbers. On a shared VM an
 * idle worker's wake-up waits on the host: open-loop p50 read 0.21 ms
 * on most runs and 0.4-0.6 ms whenever the host was busy for the whole
 * run, while saturated numbers moved by a few percent at those times.
 *
 * The tail is p90. A fifth of the requests are misses, so p90 is the
 * typical miss.
 *
 * Every successful reply is byte-compared with a cold single-threaded
 * compile of the same request in a fresh context; hit and miss counts
 * must equal the counts the request sequence implies.
 */

#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <future>
#include <optional>
#include <sstream>

#include "dialects/all.h"
#include "frontends/benchmarks.h"
#include "frontends/fortran_frontend.h"
#include "ir/module_hash.h"

namespace pb {
namespace {

constexpr int kWorkers = 3;
constexpr size_t kHot = 18;
constexpr size_t kCold = 480;
/** Far below the key space, so every cold request misses and evicts,
 *  yet with room enough that a burst of cold inserts never pushes out a
 *  hot key: hit and miss counts follow from the request sequence. */
constexpr size_t kCacheCapacity = 160;
constexpr double kHotShare = 0.78;
constexpr double kBadShare = 0.02;
/** Light and loaded arrival rates (requests/s). */
constexpr double kLowRate = 500.0;
constexpr double kHighRate = 3000.0;
/** The tail percentile. */
constexpr double kTail = 0.90;
/** Share of --seconds spent in each kind of phase. */
constexpr double kLowShare = 0.15;
constexpr double kHighShare = 0.3;
constexpr double kSaturatedShare = 0.55;
/** Separate loaded (kHighRate) segments of a run, and saturated ones
 *  (one after every second loaded segment). */
constexpr int kSegments = 20;
constexpr int kSaturatedSegments = kSegments / 2;
/** Requests in flight in a saturated phase: enough that the queue
 *  stays full while the generator collects replies. */
constexpr size_t kDepth = 4 * kWorkers;
/** Sizes the saturated segments to fill their share of the run at
 *  about the service's capacity on the baseline machine. */
constexpr double kCapacityGuess = 7500.0;
/** A failed request's latency: it misses every limit. */
constexpr double kFailedLatencyMs = 1e6;

/** One distinct request of the stream and its expected outcome. */
struct Variant
{
    std::string name;
    Source source;
    transforms::PipelineOptions options;
    wse::ArchParams arch = wse::ArchParams::wse3();
    bool valid = true;
    /** Malformed only: expected failing pass, message and location. */
    std::string expectPass;
    std::string expectMessage;
    std::string expectLocation;
    /** Cold-compile oracle bytes (valid variants). */
    codegen::EmittedCsl oracle;
    /** Fails after the cache lookup (counts as a miss). */
    bool looksUp = false;
};

//===----------------------------------------------------------------------===
// Seeded request mix
//===----------------------------------------------------------------------===

std::string
fortranStar(Rng &rng, int64_t nx, int64_t ny, int64_t nz, int64_t steps)
{
    // A radius-1 star update with seeded coefficients and an optional z
    // stencil: the shape the Fortran frontend's Listing 1 form takes.
    std::uniform_int_distribution<int> coeff(1, 99);
    bool zAxis = rng() % 2;
    double c0 = coeff(rng) / 100.0;
    double cx = coeff(rng) / 800.0;
    double cy = coeff(rng) / 800.0;
    double cz = coeff(rng) / 800.0;
    std::ostringstream src;
    if (steps > 1)
        src << "do step = 1, " << steps << "\n";
    src << " do i = 2, " << nx - 1 << "\n"
        << "  do j = 2, " << ny - 1 << "\n"
        << "   do k = 2, " << nz - 1 << "\n"
        << "    a(k,j,i) = " << c0 << " * a(k,j,i) + " << cx
        << " * (a(k,j,i-1) + a(k,j,i+1)) + " << cy
        << " * (a(k,j-1,i) + a(k,j+1,i))";
    if (zAxis)
        src << " + " << cz << " * (a(k-1,j,i) + a(k+1,j,i))";
    src << "\n   enddo\n  enddo\n enddo\n";
    if (steps > 1)
        src << "enddo\n";
    return src.str();
}

/** Program kinds; the mix cycles through them so every seed has the
 *  same share of each. */
constexpr int kKinds = 6;

Variant
drawValid(Rng &rng, int k)
{
    std::uniform_int_distribution<int64_t> grid(6, 16);
    std::uniform_int_distribution<int64_t> depth(2, 8);
    const int64_t stepChoices[] = {1, 2, 4};
    const int64_t chunkChoices[] = {0, 0, 1, 2};
    Variant v;
    int64_t nx = grid(rng), ny = grid(rng), nz = 8 * depth(rng);
    int64_t steps = stepChoices[rng() % 3];
    std::ostringstream name;
    switch (k) {
    case 0: {
        fe::Benchmark b = fe::makeJacobian(nx, ny, steps, nz);
        v.source.fortran = b.dslSource;
        v.source.fortranConfig = {nx, ny, nz, steps};
        name << "jacobian";
        break;
    }
    case 1:
        v.source.program = std::make_shared<fe::Program>(
            fe::makeDiffusion(nx, ny, steps, nz).program);
        name << "diffusion";
        break;
    case 2:
        v.source.program = std::make_shared<fe::Program>(
            fe::makeAcoustic(nx, ny, steps, nz).program);
        name << "acoustic";
        break;
    case 3:
        v.source.program = std::make_shared<fe::Program>(
            fe::makeSeismic(nx, ny, steps, nz).program);
        name << "seismic";
        break;
    case 4:
        v.source.program = std::make_shared<fe::Program>(
            fe::makeUvkbe(nx, ny, nz).program);
        name << "uvkbe";
        break;
    default:
        v.source.fortran = fortranStar(rng, nx, ny, nz, steps);
        v.source.fortranConfig = {nx, ny, nz, steps};
        name << "fortran-star";
        break;
    }
    auto toggle = [&rng] { return rng() % 5 != 0; };
    v.options.enableStencilInlining = toggle();
    v.options.enableVarithFusion = toggle();
    v.options.enableCoeffPromotion = toggle();
    v.options.enableOneShotReduction = toggle();
    v.options.enableFmacFusion = toggle();
    v.options.forceNumChunks = chunkChoices[rng() % 4];
    if (rng() % 2)
        v.arch = wse::ArchParams::wse2();
    name << " " << nx << "x" << ny << "x" << nz << " t" << steps
         << " opts" << v.options.fingerprint() % 100000 << " "
         << v.arch.name;
    v.name = name.str();
    return v;
}

/** Malformed requests (the diagnostics corpus of tests/test_service). */
std::vector<Variant>
malformedVariants(Rng &rng)
{
    std::vector<Variant> out;
    std::uniform_int_distribution<int64_t> grid(6, 16);
    auto badIr = [&](const char *name, int dx, int dy, int dz, bool mul,
                     const char *pass, const char *message) {
        fe::Program p(fe::Grid{grid(rng), grid(rng), 16});
        p.setTimesteps(2);
        fe::Field u = p.addField("u");
        p.setUpdate(u, mul ? u.at(dx, dy, dz) * u.at(0, 0, 0)
                           : u.at(dx, dy, dz));
        Variant v;
        v.name = name;
        v.source.program = std::make_shared<fe::Program>(std::move(p));
        v.valid = false;
        v.expectPass = pass;
        v.expectMessage = message;
        v.looksUp = true;
        out.push_back(std::move(v));
    };
    badIr("bad-ir diagonal access", 1, 1, 0, false, "distribute-stencil",
          "box-shaped");
    badIr("bad-ir remote z offset", 1, 0, 1, false, "distribute-stencil",
          "z offset");
    badIr("bad-ir multiplicative mix", 1, 0, 0, true,
          "convert-stencil-to-csl-stencil", "addition");

    auto badFortran = [&](const char *name, std::string source,
                          const char *message, const char *location) {
        Variant v;
        v.name = name;
        v.source.fortran = std::move(source);
        v.source.fortranConfig = {12, 12, 32, 2};
        v.valid = false;
        v.expectPass = "frontend";
        v.expectMessage = message;
        v.expectLocation = location;
        out.push_back(std::move(v));
    };
    badFortran("bad-fortran unexpected character",
               "do i = 2, 11\n do j = 2, 11\n  do k = 2, 31\n"
               "   a(k,j,i) = @\n  enddo\n enddo\nenddo\n",
               "unexpected character '@'", "fortran:4:15");
    badFortran("bad-fortran absolute index",
               "do i = 2, 11\n do j = 2, 11\n  do k = 2, 31\n"
               "   a(k,j,i) = a(1,j,i)\n  enddo\n enddo\nenddo\n",
               "absolute indices", "fortran:4");
    badFortran("bad-fortran off-centre target",
               "do i = 2, 11\n do j = 2, 11\n  do k = 2, 31\n"
               "   a(k,j,i+1) = a(k,j,i)\n  enddo\n enddo\nenddo\n",
               "centre point", "fortran:4");
    badFortran("bad-fortran missing enddo",
               "do i = 2, 11\n do j = 2, 11\n  do k = 2, 31\n"
               "   a(k,j,i) = a(k-1,j,i)\n",
               "enddo", "fortran:");
    return out;
}

/** The service request for a variant; traced runs span the frontend. */
service::CompileRequest
makeRequest(const Variant &v, uint64_t req, uint64_t parent)
{
    service::CompileRequest r;
    r.name = v.name;
    r.options = v.options;
    r.arch = v.arch;
    Source source = v.source;
    r.build = [source, req, parent](ir::Context &ctx) {
        Span span("service.build", "frontends", req, parent);
        if (source.program)
            return source.program->emit(ctx);
        fe::FortranParseResult parsed = fe::parseFortranStencilChecked(
            source.fortran, source.fortranConfig);
        if (!parsed) {
            ctx.diagnostics().report(std::move(parsed.diagnostic));
            return ir::OwningOp();
        }
        return parsed.program->emit(ctx);
    };
    return r;
}

/** The module fingerprint + request hash the service will key on. */
service::CacheKey
cacheKeyOf(const Variant &v)
{
    ir::Context ctx;
    dialects::registerAllDialects(ctx);
    service::CompileRequest r = makeRequest(v, 0, 0);
    ir::OwningOp module = r.build(ctx);
    if (!module)
        return {};
    return service::makeCacheKey(ir::fingerprintModule(module.get()), r);
}

/** Hot set, cold ring and malformed corpus of one seed. */
struct Mix
{
    std::vector<Variant> hot;
    std::vector<Variant> cold;
    std::vector<Variant> bad;
};

Mix
drawMix(Rng &rng)
{
    Mix mix;
    std::vector<service::CacheKey> keys;
    for (int k = 0; mix.hot.size() + mix.cold.size() < kHot + kCold;) {
        Variant v = drawValid(rng, k);
        service::CacheKey key = cacheKeyOf(v);
        if (std::find(keys.begin(), keys.end(), key) != keys.end())
            continue; // the sequence needs distinct cache keys
        keys.push_back(key);
        (mix.hot.size() < kHot ? mix.hot : mix.cold).push_back(std::move(v));
        k = (k + 1) % kKinds;
    }
    // The ring order must carry no pattern from the draw order.
    std::shuffle(mix.cold.begin(), mix.cold.end(), rng);
    mix.bad = malformedVariants(rng);
    return mix;
}

/** A request of the stream: which variant, and when it is due. */
struct Planned
{
    const Variant *variant;
    double dueS; // seconds after the phase start
};

/** Seeded sequence of `n` requests at Poisson rate `rate`. */
std::vector<Planned>
planPhase(const Mix &mix, uint64_t seed, int phase, double rate, size_t n,
          uint64_t &hotExpected, uint64_t &missExpected)
{
    Rng rng(seed * 1000003ULL + static_cast<uint64_t>(phase));
    std::uniform_real_distribution<double> u(0.0, 1.0);
    std::exponential_distribution<double> gap(rate);
    size_t hot = rng() % mix.hot.size();
    size_t cold = rng() % mix.cold.size();
    size_t bad = rng() % mix.bad.size();
    std::vector<Planned> plan;
    plan.reserve(n);
    double t = 0.0;
    hotExpected = 0;
    missExpected = mix.hot.size(); // the warm-up inserts
    for (size_t i = 0; i < n; ++i) {
        t += gap(rng);
        double draw = u(rng);
        const Variant *v;
        if (draw < kBadShare) {
            v = &mix.bad[bad++ % mix.bad.size()];
            missExpected += v->looksUp;
        } else if (draw < 1.0 - kHotShare) {
            v = &mix.cold[cold++ % mix.cold.size()];
            ++missExpected;
        } else {
            v = &mix.hot[hot++ % mix.hot.size()];
            ++hotExpected;
        }
        plan.push_back({v, t});
    }
    return plan;
}

//===----------------------------------------------------------------------===
// One phase: fresh service, warm-up, open-loop stream, drain
//===----------------------------------------------------------------------===

struct PhaseResult
{
    double rate = 0.0;
    size_t requests = 0;
    double setupS = 0.0;
    std::vector<double> latencyMs;
    std::vector<double> queueMs;
    std::vector<double> workMs;
    std::vector<double> hitWorkMs;
    std::vector<double> missWorkMs;
    std::vector<double> lagMs;
    size_t inFlightAtEnd = 0;
    service::ServiceStats stats;
    uint64_t hitsExpected = 0;
    uint64_t missesExpected = 0;

    double p50() const { return percentile(latencyMs, 0.50); }
    double tail() const { return percentile(latencyMs, kTail); }
    double p99() const { return percentile(latencyMs, 0.99); }
};

/** Check one reply against its variant; false when it differs. */
bool
replyMatches(const Variant &v, const service::CompileReply &reply,
             std::string &why)
{
    if (v.valid) {
        if (!reply.ok || !reply.artifact) {
            why = v.name + ": " + reply.error;
            return false;
        }
        const codegen::EmittedCsl &got = reply.artifact->csl;
        if (got.programFile != v.oracle.programFile ||
            got.layoutFile != v.oracle.layoutFile) {
            why = v.name + ": CSL differs from the cold compile";
            return false;
        }
        return true;
    }
    const ir::Diagnostic *err = reply.pipeline.firstError();
    bool ok = !reply.ok && err && reply.pipeline.failedPass == v.expectPass &&
              err->message.find(v.expectMessage) != std::string::npos &&
              !err->location.empty() &&
              err->location.rfind(v.expectLocation, 0) == 0;
    if (!ok)
        why = v.name + ": expected failure in '" + v.expectPass +
              "', got '" + reply.pipeline.failedPass + "' " +
              (err ? err->location + " " + err->message : reply.error);
    return ok;
}

/** Run one phase: open loop at `rate`, or, when `depth` is non-zero,
 *  saturated with `depth` requests in flight (`rate` then only seeds
 *  the sequence, and the result's rate is the completion rate). */
PhaseResult
runPhase(const Mix &mix, uint64_t seed, int phase, double rate, size_t n,
         Report &out, size_t depth = 0)
{
    PhaseResult res;
    res.rate = rate;
    res.requests = n;
    std::vector<Planned> plan = planPhase(mix, seed, phase, rate, n,
                                          res.hitsExpected,
                                          res.missesExpected);

    Clock::time_point setupStart = Clock::now();
    std::optional<service::CompileService> svc;
    {
        Span span("service.start+warmup", "service");
        service::ServiceConfig config;
        config.threads = kWorkers;
        config.cacheCapacity = kCacheCapacity;
        svc.emplace(config);
        std::vector<std::future<service::CompileReply>> warm;
        for (const Variant &v : mix.hot)
            warm.push_back(svc->submit(makeRequest(v, 0, span.id())));
        for (size_t i = 0; i < warm.size(); ++i) {
            std::string why;
            out.op(replyMatches(mix.hot[i], warm[i].get(), why), why);
        }
    }
    res.setupS = sBetween(setupStart, Clock::now());

    struct Sent
    {
        const Variant *variant;
        int64_t dueNs;
        double lagMs;
        uint64_t req;
        uint64_t span;     ///< the request span
        uint64_t workSpan; ///< its work span, parent of the frontend span
        std::future<service::CompileReply> reply;
    };
    std::deque<Sent> pending;
    auto finish = [&](Sent &s) {
        service::CompileReply reply = s.reply.get();
        std::string why;
        bool ok = replyMatches(*s.variant, reply, why);
        out.op(ok, why);
        double queue = reply.queueMicros / 1e3;
        double work = reply.workMicros / 1e3;
        double latency = ok ? s.lagMs + queue + work : kFailedLatencyMs;
        res.latencyMs.push_back(latency);
        res.queueMs.push_back(queue);
        res.workMs.push_back(work);
        (reply.cacheHit ? res.hitWorkMs : res.missWorkMs).push_back(work);
        if (Tracer::enabled()) {
            int64_t sent = s.dueNs + static_cast<int64_t>(s.lagMs * 1e6);
            int64_t picked = sent + static_cast<int64_t>(queue * 1e6);
            int64_t done = picked + static_cast<int64_t>(work * 1e6);
            Tracer::record("request " + s.variant->name, "service",
                           s.dueNs, done, s.req, 0, s.span);
            Tracer::record("queue", "service", sent, picked, s.req, s.span);
            Tracer::record(reply.cacheHit ? "work (hit)" : "work (miss)",
                           "service", picked, done, s.req, s.span,
                           s.workSpan);
        }
    };
    auto drainReady = [&] {
        while (!pending.empty() &&
               pending.front().reply.wait_for(std::chrono::seconds(0)) ==
                   std::future_status::ready) {
            finish(pending.front());
            pending.pop_front();
        }
    };

    // The generator: send each request when due, never waiting for
    // replies (open loop). It spins rather than sleeps, so a timer
    // wake-up never delays a send, and collects replies while idle.
    Clock::time_point start = Clock::now();
    int64_t startNs = nowNs();
    for (const Planned &p : plan) {
        Clock::time_point due =
            start + std::chrono::nanoseconds(
                        static_cast<int64_t>(p.dueS * 1e9));
        if (depth) {
            while (pending.size() >= depth)
                drainReady();
            due = Clock::now();
        }
        while (Clock::now() < due)
            drainReady();
        Sent s;
        s.variant = p.variant;
        s.dueNs = startNs + std::chrono::duration_cast<std::chrono::nanoseconds>(
                                due - start)
                                .count();
        s.lagMs = msBetween(due, Clock::now());
        // The request and work spans are recorded at the reply; the
        // worker-side frontend span names its parent through a reserved
        // id.
        s.req = Tracer::enabled() ? Tracer::newRequest() : 0;
        s.span = Tracer::enabled() ? Tracer::newSpanId() : 0;
        s.workSpan = Tracer::enabled() ? Tracer::newSpanId() : 0;
        res.lagMs.push_back(s.lagMs);
        {
            Span span("CompileService::submit", "service", s.req, s.span);
            s.reply =
                svc->submit(makeRequest(*p.variant, s.req, s.workSpan));
        }
        pending.push_back(std::move(s));
    }
    service::ServiceStats atEnd = svc->stats();
    res.inFlightAtEnd = atEnd.submitted - atEnd.completed;
    while (!pending.empty()) {
        finish(pending.front());
        pending.pop_front();
    }
    if (depth)
        res.rate = static_cast<double>(n) / sBetween(start, Clock::now());
    res.stats = svc->stats();
    {
        Span span("service.shutdown", "service");
        svc.reset();
    }
    return res;
}

void
describe(const char *label, const PhaseResult &r)
{
    std::fprintf(stderr,
                 "  %-8s %7.0f req/s  n=%-6zu p50 %.3f  p90 %.3f  p99 %.3f ms  "
                 "hits %llu misses %llu evictions %llu  in-flight@end %zu  "
                 "setup %.1f ms\n",
                 label, r.rate, r.requests, r.p50(), r.tail(), r.p99(),
                 static_cast<unsigned long long>(r.stats.cache.hits),
                 static_cast<unsigned long long>(r.stats.cache.misses),
                 static_cast<unsigned long long>(r.stats.cache.evictions),
                 r.inFlightAtEnd, r.setupS * 1e3);
}

/** Hit/miss counts must be the ones the request sequence implies. */
void
checkCounts(const PhaseResult &r, Report &out)
{
    if (r.stats.cache.hits != r.hitsExpected ||
        r.stats.cache.misses != r.missesExpected)
        out.broken("cache counts at " + std::to_string(r.rate) +
                   " req/s: hits " + std::to_string(r.stats.cache.hits) +
                   " (expected " + std::to_string(r.hitsExpected) +
                   "), misses " + std::to_string(r.stats.cache.misses) +
                   " (expected " + std::to_string(r.missesExpected) + ")");
}

} // namespace

void
runCompileStream(const Args &args, Report &out)
{
    Rng rng(args.seed);
    Mix mix = drawMix(rng);

    // Oracle: cold single-threaded compiles, which also time every
    // compile layer (frontends, passes, verifier, codegen, ir).
    CompileLayers layers;
    uint64_t bytes = 0;
    size_t valid = 0;
    for (std::vector<Variant> *set : {&mix.hot, &mix.cold})
        for (Variant &v : *set) {
            ColdResult cold = coldCompile(v.source, v.options, layers);
            out.op(cold.ok, v.name + ": cold compile failed in '" +
                                cold.failedPass + "': " + cold.message);
            v.oracle = std::move(cold.csl);
            bytes += v.oracle.programFile.size() + v.oracle.layoutFile.size();
            ++valid;
        }

    const double s = args.seconds;
    auto count = [](double rate, double seconds) {
        return static_cast<size_t>(std::max(200.0, rate * seconds));
    };
    std::fprintf(stderr, "compile_stream: %zu hot, %zu cold, %zu malformed "
                         "programs; cache capacity %zu\n",
                 mix.hot.size(), mix.cold.size(), mix.bad.size(),
                 kCacheCapacity);

    // Phases: the light rate, then kSegments loaded segments
    // interleaved with the saturated ones, so a host stall of a few
    // seconds hits a minority of either kind.
    std::vector<double> setups;
    // Each phase's request sequence is seeded by its fixed id, so the
    // counts of a phase repeat whatever ran before it.
    auto run = [&](const char *label, int phase, double rate,
                   double seconds) {
        PhaseResult r = runPhase(mix, args.seed, phase, rate,
                                 count(rate, seconds), out);
        describe(label, r);
        setups.push_back(r.setupS);
        checkCounts(r, out);
        return r;
    };
    double untracedLowP50 = 0.0;
    if (args.trace) {
        // Tracing overhead: the light phase untraced first, on the same
        // request sequence.
        Tracer::enable(false);
        untracedLowP50 = runPhase(mix, args.seed, 0, kLowRate,
                                  count(kLowRate, kLowShare * s), out)
                             .p50();
        Tracer::enable(true);
    }
    PhaseResult low = run("low", 0, kLowRate, kLowShare * s);

    // Saturated segments are skipped when tracing: they feed only the
    // end-to-end metrics, which a traced run does not report.
    const int saturated = args.trace ? 0 : kSaturatedSegments;
    std::vector<PhaseResult> loaded;
    std::vector<double> satRates, satP50s, satTails;
    for (int i = 0; i < kSegments; ++i) {
        loaded.push_back(run("loaded", 1 + i, kHighRate,
                             kHighShare * s / kSegments));
        if (i % 2 == 0 || i / 2 >= saturated)
            continue;
        PhaseResult r = runPhase(
            mix, args.seed, 100 + i / 2, kHighRate,
            count(kCapacityGuess, kSaturatedShare * s / kSaturatedSegments),
            out, kDepth);
        describe("saturated", r);
        setups.push_back(r.setupS);
        checkCounts(r, out);
        satRates.push_back(r.rate);
        satP50s.push_back(r.p50());
        satTails.push_back(r.tail());
    }

    std::vector<double> p50s, p99s;
    PhaseResult high; // every loaded segment's samples together
    for (const PhaseResult &r : loaded) {
        p50s.push_back(r.p50());
        p99s.push_back(r.p99());
        for (auto [to, from] :
             {std::pair{&high.latencyMs, &r.latencyMs},
              {&high.queueMs, &r.queueMs}, {&high.workMs, &r.workMs},
              {&high.hitWorkMs, &r.hitWorkMs},
              {&high.missWorkMs, &r.missWorkMs}, {&high.lagMs, &r.lagMs}})
            to->insert(to->end(), from->begin(), from->end());
        high.stats.cache.hits += r.stats.cache.hits;
        high.stats.cache.misses += r.stats.cache.misses;
        high.stats.cache.evictions += r.stats.cache.evictions;
        high.stats.contextsCreated =
            std::max(high.stats.contextsCreated, r.stats.contextsCreated);
    }

    out.set("setup_s", median(setups), "s");
    out.set("latency_ms", median(satP50s), "ms");
    out.set("tail_ms", median(satTails), "ms");
    out.set("throughput_per_s", median(satRates), "1/s");
    out.set("code_bytes",
            valid ? static_cast<double>(bytes) / static_cast<double>(valid)
                  : 0.0,
            "bytes");

    // Per-layer view.
    layers.report(out);
    out.set("compile.p50_ms.low", low.p50(), "ms");
    out.set("compile.p99_ms.low", low.p99(), "ms");
    out.set("compile.p50_ms.high", median(p50s), "ms");
    out.set("compile.p99_ms.high", median(p99s), "ms");
    out.set("service.queue_ms.p50", percentile(high.queueMs, 0.5), "ms");
    out.set("service.queue_ms.p99", percentile(high.queueMs, 0.99), "ms");
    out.set("service.work_ms.p50", percentile(high.workMs, 0.5), "ms");
    out.set("service.work_ms.p99", percentile(high.workMs, 0.99), "ms");
    out.set("service.hit_work_ms", median(high.hitWorkMs), "ms");
    out.set("service.miss_work_ms", median(high.missWorkMs), "ms");
    const service::CacheStats &c = high.stats.cache;
    out.set("cache.hit_ratio",
            c.hits + c.misses ? static_cast<double>(c.hits) /
                                    static_cast<double>(c.hits + c.misses)
                              : 0.0,
            "ratio");
    out.set("cache.evictions", static_cast<double>(c.evictions), "count");
    out.set("pool.contexts_created",
            static_cast<double>(high.stats.contextsCreated), "count");
    out.set("gen.lag_ms", percentile(high.lagMs, 0.99), "ms");
    if (args.trace)
        out.set("trace.overhead_ms", low.p50() - untracedLowP50, "ms");

    std::ostringstream record;
    record << low.requests << " requests: hits " << low.stats.cache.hits
           << " misses " << low.stats.cache.misses << " evictions "
           << low.stats.cache.evictions << "; ";
    for (const PhaseResult &r : loaded)
        record << r.requests << " requests: hits " << r.stats.cache.hits
               << " misses " << r.stats.cache.misses << " evictions "
               << r.stats.cache.evictions << "; ";
    record << "code bytes " << bytes;
    std::string key = "compile_stream-" + std::to_string(args.seed) + "-" +
                      std::to_string(low.requests) + "-" +
                      std::to_string(loaded.front().requests);
    if (!checkDeterminism(args, key, record.str()))
        out.broken("compile_stream counts differ from an earlier run");
}

} // namespace pb
