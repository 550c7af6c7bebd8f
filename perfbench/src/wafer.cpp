/**
 * @file
 * Workloads `wafer_wide_sharded` and `wafer_deep_seq`: one compiled
 * stencil program simulated on the wafer, repeated for --seconds.
 *
 *  - wafer_wide_sharded: acoustic (r=2 star) on 256x256 PEs, z=8,
 *    2 timesteps, SimOptions::threads = 4 (auto 2x2 tiling). Thousands
 *    of events land on each simulated cycle, so the event queue, fabric
 *    hops, the sharded window/barrier loop and configure() dominate.
 *  - wafer_deep_seq: seismic (25-point, r=4) on 32x32 PEs, z=256,
 *    6 timesteps, threads = 1. Few events per cycle over long DSD
 *    vectors: interpreter dispatch, DSD ops and StarComm chunked
 *    exchanges dominate, and the sharded loop is never entered. Four
 *    such simulations run side by side, one per host thread, so a run
 *    samples every core instead of the one a single thread lands on.
 *
 * Repetitions run in rounds, one repetition per worker thread at once.
 * Each repetition compiles the program in a fresh context, builds the
 * Simulator, configures and launches the program (set-up), runs it to
 * completion (runWithReport must say Completed) and reads every field
 * back. The first repetition is checked against model::ReferenceExecutor
 * at the test suite's tolerance; every later one must reproduce its
 * cycles, SimStats and field bytes exactly. Initial field values come
 * from --seed.
 */

#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "comms/star_comm.h"
#include "frontends/benchmarks.h"
#include "interp/csl_interpreter.h"
#include "model/reference.h"
#include "wse/simulator.h"

namespace pb {
namespace {

struct WaferSpec
{
    int n;
    int64_t z;
    int64_t steps;
    int threads;
    /** Simulations run side by side in each round, one per host thread. */
    int workers;
    /** Max relative error against the reference executor. */
    double tolerance;
    fe::Benchmark (*make)(int64_t, int64_t, int64_t, int64_t);
};

constexpr uint64_t kEventBudget = 4000000000ULL;
constexpr int kMinReps = 3;
/** Events in the event-queue replay. */
constexpr double kReplayEvents = 400000.0;

/** Seeded smooth initial condition, one phase set per field. */
fe::InitFn
seededInit(uint64_t seed)
{
    Rng rng(seed);
    std::uniform_real_distribution<double> amp(0.5, 1.5);
    std::uniform_real_distribution<double> freq(0.03, 0.15);
    std::uniform_real_distribution<double> phase(0.0, 6.283185307179586);
    struct Wave
    {
        double a, kx, px, b, ky, py, c, kz, pz;
    };
    std::vector<Wave> waves;
    for (int f = 0; f < 4; ++f)
        waves.push_back({amp(rng), freq(rng), phase(rng), amp(rng),
                         freq(rng), phase(rng), 0.5 * amp(rng), freq(rng),
                         phase(rng)});
    return [waves](int f, int64_t x, int64_t y, int64_t z) -> float {
        const Wave &w = waves[static_cast<size_t>(f) % waves.size()];
        return static_cast<float>(
            w.a * std::sin(w.kx * static_cast<double>(x) + w.px) +
            w.b * std::cos(w.ky * static_cast<double>(y) + w.py) +
            w.c * std::sin(w.kz * static_cast<double>(z) + w.pz));
    };
}

/** What one repetition measured. */
struct Rep
{
    double setupS = 0.0;
    double ctorMs = 0.0;
    double configureS = 0.0;
    double launchMs = 0.0;
    double runS = 0.0;
    double cpuUtil = 0.0;
    wse::SimOutcome outcome = wse::SimOutcome::Completed;
    wse::Cycles finalCycle = 0;
    wse::SimStats stats;
    uint64_t fabricHops = 0;
    wse::ShardingTelemetry telemetry;
    comms::StarCommStats comms;
    uint64_t unblocks = 0;
    size_t cslBytes = 0;
    /** Every host-visible field column, in (field, x, y) order. */
    std::vector<float> fields;
};

Rep
runRep(const WaferSpec &spec, const fe::Benchmark &bench, int threads,
       CompileLayers &layers)
{
    Rep rep;
    Clock::time_point t0 = Clock::now();
    Source source;
    source.program = std::make_shared<fe::Program>(bench.program);
    ColdResult compiled =
        coldCompile(source, transforms::PipelineOptions{}, layers, true);
    if (!compiled.ok)
        throw std::runtime_error("compile failed in '" +
                                 compiled.failedPass +
                                 "': " + compiled.message);
    rep.cslBytes =
        compiled.csl.programFile.size() + compiled.csl.layoutFile.size();

    Clock::time_point t1 = Clock::now();
    std::optional<wse::Simulator> sim;
    {
        Span s("wse::Simulator ctor", "wse");
        wse::SimOptions options;
        options.threads = threads;
        sim.emplace(wse::ArchParams::wse3(), spec.n, spec.n, options);
    }
    Clock::time_point t2 = Clock::now();
    std::optional<interp::CslProgramInstance> instance;
    {
        Span s("interp::CslProgramInstance::configure", "interp");
        instance.emplace(*sim, compiled.module.get());
        for (size_t f = 0; f < bench.program.numFields(); ++f) {
            int fi = static_cast<int>(f);
            fe::InitFn init = bench.init;
            instance->setFieldInit(bench.program.fieldName(f),
                                   [init, fi](int x, int y, int z) {
                                       return init(fi, x, y, z);
                                   });
        }
        instance->configure();
    }
    Clock::time_point t3 = Clock::now();
    {
        Span s("interp::CslProgramInstance::launch", "interp");
        instance->launch();
    }
    Clock::time_point t4 = Clock::now();
    rep.setupS = sBetween(t0, t4);
    rep.ctorMs = msBetween(t1, t2);
    rep.configureS = sBetween(t2, t3);
    rep.launchMs = msBetween(t3, t4);

    // A sequential simulator runs on this thread alone, beside the
    // other workers' simulators.
    auto cpuSeconds = threads == 1 ? threadCpuSeconds : processCpuSeconds;
    double cpu0 = cpuSeconds();
    {
        Span s("wse::Simulator::runWithReport", "wse");
        const wse::SimReport &report = sim->runWithReport(kEventBudget);
        rep.outcome = report.outcome;
        rep.finalCycle = report.finalCycle;
        rep.stats = report.stats;
    }
    Clock::time_point t5 = Clock::now();
    rep.runS = sBetween(t4, t5);
    rep.cpuUtil = (cpuSeconds() - cpu0) /
                  (rep.runS * static_cast<double>(sim->threads()));

    {
        Span s("wse::Simulator::telemetry", "shard");
        rep.telemetry = sim->telemetry();
        rep.fabricHops = sim->fabricHops();
    }
    {
        Span s("comms::StarComm::stats", "comms");
        for (const auto &site : instance->commSites()) {
            const comms::StarCommStats &cs = site->stats();
            rep.comms.exchangesStarted += cs.exchangesStarted;
            rep.comms.chunksDelivered += cs.chunksDelivered;
            rep.comms.recvCallbacks += cs.recvCallbacks;
        }
    }
    rep.unblocks = instance->unblockCount();
    {
        Span s("interp::CslProgramInstance::readFieldColumn", "interp");
        for (size_t f = 0; f < bench.program.numFields(); ++f) {
            if (bench.program.isIntermediate(f))
                continue;
            const std::string &name = bench.program.fieldName(f);
            for (int x = 0; x < spec.n; ++x)
                for (int y = 0; y < spec.n; ++y) {
                    std::vector<float> col =
                        instance->readFieldColumn(name, x, y);
                    rep.fields.insert(rep.fields.end(), col.begin(),
                                      col.end());
                }
        }
    }
    {
        Span s("teardown", "wse");
        instance.reset();
        sim.reset();
    }
    return rep;
}

/** One round: a repetition on each of `layers.size()` threads at once. */
std::vector<Rep>
runRound(const WaferSpec &spec, const fe::Benchmark &bench,
         std::vector<CompileLayers> &layers)
{
    std::vector<Rep> reps(layers.size());
    if (reps.size() == 1) {
        reps[0] = runRep(spec, bench, spec.threads, layers[0]);
        return reps;
    }
    std::vector<std::exception_ptr> errors(reps.size());
    std::vector<std::thread> pool;
    for (size_t w = 0; w < reps.size(); ++w)
        pool.emplace_back([&, w] {
            try {
                reps[w] = runRep(spec, bench, spec.threads, layers[w]);
            } catch (...) {
                errors[w] = std::current_exception();
            }
        });
    for (std::thread &t : pool)
        t.join();
    for (const std::exception_ptr &e : errors)
        if (e)
            std::rethrow_exception(e);
    return reps;
}

/** Max relative error of the read-back fields against the reference. */
double
referenceError(const WaferSpec &spec, const fe::Benchmark &bench,
               const Rep &rep)
{
    model::ReferenceExecutor ref(bench.program, bench.init);
    ref.run(spec.steps);
    double maxErr = 0.0;
    size_t i = 0;
    for (size_t f = 0; f < bench.program.numFields(); ++f) {
        if (bench.program.isIntermediate(f))
            continue;
        for (int x = 0; x < spec.n; ++x)
            for (int y = 0; y < spec.n; ++y)
                for (int64_t z = 0; z < spec.z; ++z, ++i) {
                    if (i >= rep.fields.size())
                        return INFINITY;
                    double r = ref.at(f, x, y, z);
                    double err = std::abs(rep.fields[i] - r) /
                                 std::max(1.0, std::abs(r));
                    maxErr = std::max(maxErr, err);
                }
    }
    return i == rep.fields.size() ? maxErr : INFINITY;
}

/** Everything that must repeat exactly, as one line. */
std::string
exactRecord(const Rep &rep)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    const auto *bytes =
        reinterpret_cast<const unsigned char *>(rep.fields.data());
    for (size_t i = 0; i < rep.fields.size() * sizeof(float); ++i)
        h = (h ^ bytes[i]) * 0x100000001b3ULL;
    std::ostringstream os;
    os << "cycles " << rep.finalCycle << " events "
       << rep.stats.eventsProcessed << " wavelets " << rep.stats.waveletsSent
       << " tasks " << rep.stats.taskActivations << " dsd "
       << rep.stats.dsdOps << " flops " << rep.stats.flops << " mem "
       << rep.stats.memBytes << " hops " << rep.fabricHops << " exchanges "
       << rep.comms.exchangesStarted << " chunks "
       << rep.comms.chunksDelivered << " csl " << rep.cslBytes
       << " fields " << std::hex << h;
    return os.str();
}

/** Event-queue replay: `perCycle` no-op events on each of `cycles`
 *  cycles through Simulator::schedule/run; host ns per event. */
double
eventQueueNsPerEvent(int perCycle, int cycles)
{
    Span s("wse event-queue replay", "wse");
    wse::Simulator sim(wse::ArchParams::wse3(), 1, 1);
    struct Tick
    {
        wse::Simulator *sim;
        int left;
        void
        operator()()
        {
            if (left > 0)
                sim->schedule(sim->now() + 1, Tick{sim, left - 1});
        }
    };
    for (int i = 0; i < perCycle; ++i)
        sim.schedule(0, Tick{&sim, cycles});
    Clock::time_point t0 = Clock::now();
    sim.run();
    double ns = std::chrono::duration<double, std::nano>(Clock::now() - t0)
                    .count();
    return ns / (static_cast<double>(perCycle) * (cycles + 1));
}

} // namespace

void
runWafer(const Args &args, Report &out)
{
    const bool wide = args.workload == "wafer_wide_sharded";
    const WaferSpec spec =
        wide ? WaferSpec{256, 8, 2, 4, 1, 1e-4, &fe::makeAcoustic}
             : WaferSpec{32, 256, 6, 1, 4, 1e-3, &fe::makeSeismic};
    fe::Benchmark bench = spec.make(spec.n, spec.n, spec.steps, spec.z);
    bench.init = seededInit(args.seed);

    std::vector<CompileLayers> workerLayers(
        static_cast<size_t>(spec.workers));
    std::vector<Rep> reps;
    std::vector<std::string> records;
    Clock::time_point start = Clock::now();
    while (reps.size() < static_cast<size_t>(kMinReps) ||
           sBetween(start, Clock::now()) < args.seconds) {
        for (Rep &r : runRound(spec, bench, workerLayers)) {
            records.push_back(exactRecord(r));
            std::fprintf(
                stderr,
                "  rep %zu: setup %.3f s (configure %.3f s)  run %.3f s"
                " (cpu/wall/threads %.2f)  cycles %llu  events %llu\n",
                records.size(), r.setupS, r.configureS, r.runS, r.cpuUtil,
                static_cast<unsigned long long>(r.finalCycle),
                static_cast<unsigned long long>(r.stats.eventsProcessed));
            if (!reps.empty()) // compared through the record below
                std::vector<float>().swap(r.fields);
            reps.push_back(std::move(r));
        }
    }
    const CompileLayers &layers = workerLayers.front();

    // Output checks: every repetition completes and reproduces the
    // first exactly; the first matches the reference executor.
    const Rep &first = reps.front();
    double err = referenceError(spec, bench, first);
    std::fprintf(stderr, "  max relative error vs reference: %.3g\n", err);
    out.op(err <= spec.tolerance,
           "fields differ from the reference executor (max rel. error " +
               std::to_string(err) + ")");
    const std::string &record = records.front();
    const uint64_t pes = static_cast<uint64_t>(spec.n) * spec.n;
    for (size_t i = 0; i < reps.size(); ++i) {
        const Rep &r = reps[i];
        out.op(r.outcome == wse::SimOutcome::Completed &&
                   r.unblocks == pes && records[i] == record,
               "repetition " + std::to_string(i) +
                   " did not complete identically: " + records[i]);
    }
    if (!checkDeterminism(args,
                          args.workload + "-" + std::to_string(args.seed),
                          record))
        out.broken(args.workload + " results differ from an earlier run");

    std::vector<double> setup, runMs, ctor, configure, launch, cpu, steals;
    for (const Rep &r : reps) {
        setup.push_back(r.setupS);
        runMs.push_back(r.runS * 1e3);
        ctor.push_back(r.ctorMs);
        configure.push_back(r.configureS);
        launch.push_back(r.launchMs);
        cpu.push_back(r.cpuUtil);
        steals.push_back(static_cast<double>(r.telemetry.steals));
    }
    // Run time is the lower quartile over repetitions, which barely moves
    // when a slow host period covers fewer than three quarters of them.
    double events = static_cast<double>(first.stats.eventsProcessed);
    double runQ1Ms = percentile(runMs, 0.25);
    out.set("setup_s", median(setup), "s");
    out.set("latency_ms", runQ1Ms, "ms");
    out.set("tail_ms", percentile(runMs, 0.9), "ms");
    out.set("throughput_per_s", events / (runQ1Ms / 1e3), "1/s");
    out.set("code_bytes", static_cast<double>(first.cslBytes), "bytes");

    // Per-layer view.
    layers.report(out);
    out.set("sim.cycles", static_cast<double>(first.finalCycle), "cycles");
    out.set("interp.configure_s", median(configure), "s");
    out.set("interp.launch_ms", median(launch), "ms");
    out.set("wse.ctor_ms", median(ctor), "ms");
    out.set("wse.events", events, "count");
    out.set("wse.task_activations",
            static_cast<double>(first.stats.taskActivations), "count");
    out.set("wse.dsd_ops", static_cast<double>(first.stats.dsdOps), "count");
    out.set("wse.wavelets", static_cast<double>(first.stats.waveletsSent),
            "count");
    out.set("wse.fabric_hops", static_cast<double>(first.fabricHops),
            "count");
    out.set("wse.ns_per_event", median(runMs) * 1e6 / events, "ns");
    out.set("shard.windows", static_cast<double>(first.telemetry.windows),
            "count");
    out.set("shard.window_cycles",
            static_cast<double>(first.telemetry.windowCycles), "cycles");
    out.set("shard.steals", median(steals), "count");
    out.set("shard.outbox_reallocs",
            static_cast<double>(first.telemetry.outboxReallocs), "count");
    out.set("shard.cpu_util", median(cpu), "ratio");
    out.set("comms.exchanges",
            static_cast<double>(first.comms.exchangesStarted), "count");
    out.set("comms.chunks", static_cast<double>(first.comms.chunksDelivered),
            "count");
    out.set("comms.recv_callbacks",
            static_cast<double>(first.comms.recvCallbacks), "count");

    if (!args.trace)
        return;
    // Tracing overhead: one more round, untraced, against the traced
    // median.
    Tracer::enable(false);
    std::vector<CompileLayers> untracedLayers(workerLayers.size());
    std::vector<double> untracedMs;
    for (const Rep &r : runRound(spec, bench, untracedLayers))
        untracedMs.push_back(r.runS * 1e3);
    Tracer::enable(true);
    out.set("trace.overhead_ms", median(runMs) - median(untracedMs), "ms");
    // The replay takes the shape of this workload's own run: its events
    // per simulated cycle.
    int perCycle = std::max(
        1, static_cast<int>(std::lround(
               events / static_cast<double>(std::max<wse::Cycles>(
                            1, first.finalCycle)))));
    out.set("wse.evq_ns_per_event",
            eventQueueNsPerEvent(
                perCycle, std::max(1, static_cast<int>(kReplayEvents /
                                                       perCycle))),
            "ns");
    if (spec.threads > 1) {
        // Sharded determinism: threads=1 must reproduce threads=4.
        reps.front().fields.clear();
        reps.front().fields.shrink_to_fit();
        CompileLayers seqLayers;
        Rep seq = runRep(spec, bench, 1, seqLayers);
        out.op(exactRecord(seq) == record,
               "threads=1 differs from threads=" +
                   std::to_string(spec.threads) + ": " + exactRecord(seq) +
                   " vs " + record);
        out.set("shard.speedup", seq.runS * 1e3 / median(runMs), "ratio");
    }
}

} // namespace pb
