/**
 * @file
 * PR 5 + PR 10 coverage: the sharded parallel simulator.
 *
 * The determinism contract (docs/architecture.md §4): a threads=N run
 * under ANY shard tiling must be cycle-identical and bit-identical in
 * SimStats, step marks and field contents to the threads=1 run. These
 * tests pin that contract on all five paper workloads across 1-D strips
 * and several 2-D tilings, exercise cross-shard boundary delivery
 * ordering directly at the fabric level, check the fixed-window
 * scheduler through its telemetry (which may vary; results may not), and
 * cover the allocation-recycling rings (activation frames, payload
 * slots, cross-shard outbox lanes).
 *
 * The ShardedDeterminism suite is also wired to `ctest -L sharded`;
 * the large-grid runs live in ShardedScale (same label, own budget).
 */

#include "test_helpers.h"

#include "wse/payload.h"

namespace wsc::test {
namespace {

/** Everything observable about one simulated run. */
struct RunResult
{
    wse::Cycles finalCycle = 0;
    wse::SimStats stats;
    uint64_t fabricHops = 0;
    uint64_t unblocks = 0;
    /** Concatenated per-PE step marks, row-major. */
    std::vector<wse::Cycles> marks;
    /** Concatenated bytes of the first field's columns, row-major. */
    std::vector<float> fields;

    bool
    operator==(const RunResult &o) const
    {
        return finalCycle == o.finalCycle &&
               stats.eventsProcessed == o.stats.eventsProcessed &&
               stats.waveletsSent == o.stats.waveletsSent &&
               stats.taskActivations == o.stats.taskActivations &&
               stats.dsdOps == o.stats.dsdOps &&
               stats.flops == o.stats.flops &&
               stats.memBytes == o.stats.memBytes &&
               fabricHops == o.fabricHops && unblocks == o.unblocks &&
               marks == o.marks && fields == o.fields;
    }
};

/** Compile once, run with the given options, capture everything.
 *  Also returns the run's scheduler telemetry through `telemetry`
 *  (execution shape — never part of the equality contract). */
RunResult
runWorkloadOpts(ir::Operation *module, fe::Benchmark &bench, int nx,
                int ny, wse::SimOptions options,
                wse::ShardingTelemetry *telemetry = nullptr)
{
    wse::Simulator sim(wse::ArchParams::wse3(), nx, ny,
                       std::move(options));
    interp::CslProgramInstance instance(sim, module);
    for (size_t f = 0; f < bench.program.numFields(); ++f) {
        int fi = static_cast<int>(f);
        auto init = bench.init;
        instance.setFieldInit(bench.program.fieldName(f),
                              [init, fi](int x, int y, int z) {
                                  return init(fi, x, y, z);
                              });
    }
    instance.configure();
    instance.launch();

    RunResult r;
    r.finalCycle = sim.run(4000000000ULL);
    r.stats = sim.stats();
    r.fabricHops = sim.fabric().waveletHops();
    r.unblocks = instance.unblockCount();
    const std::string &field = bench.program.fieldName(0);
    for (int x = 0; x < nx; ++x)
        for (int y = 0; y < ny; ++y) {
            const auto &m = instance.stepMarks(x, y);
            r.marks.insert(r.marks.end(), m.begin(), m.end());
            std::vector<float> col = instance.readFieldColumn(field, x, y);
            r.fields.insert(r.fields.end(), col.begin(), col.end());
        }
    if (telemetry)
        *telemetry = sim.telemetry();
    return r;
}

/** Compile once, run at the given thread count, capture everything. */
RunResult
runWorkload(ir::Operation *module, fe::Benchmark &bench, int nx, int ny,
            int threads)
{
    return runWorkloadOpts(module, bench, nx, ny,
                           wse::SimOptions{threads});
}

/** Expect a == b with per-member messages (tiling named in `what`). */
void
expectRunsEqual(const RunResult &sequential, const RunResult &other,
                const char *what)
{
    EXPECT_EQ(sequential.finalCycle, other.finalCycle) << what;
    EXPECT_EQ(sequential.stats.eventsProcessed,
              other.stats.eventsProcessed)
        << what;
    EXPECT_EQ(sequential.stats.waveletsSent, other.stats.waveletsSent)
        << what;
    EXPECT_EQ(sequential.stats.taskActivations,
              other.stats.taskActivations)
        << what;
    EXPECT_EQ(sequential.stats.dsdOps, other.stats.dsdOps) << what;
    EXPECT_EQ(sequential.stats.flops, other.stats.flops) << what;
    EXPECT_EQ(sequential.stats.memBytes, other.stats.memBytes) << what;
    EXPECT_EQ(sequential.fabricHops, other.fabricHops) << what;
    EXPECT_EQ(sequential.unblocks, other.unblocks) << what;
    EXPECT_EQ(sequential.marks, other.marks) << what;
    EXPECT_EQ(sequential.fields, other.fields) << what;
    EXPECT_TRUE(sequential == other) << what;
}

/**
 * threads=1 vs threads=4 (auto-tiled), 1-D column strips and three
 * distinct explicit 2-D tilings must all agree bit-for-bit.
 */
void
expectShardedEquivalence(fe::Benchmark bench, int nx, int ny)
{
    ir::Context ctx;
    dialects::registerAllDialects(ctx);
    ir::OwningOp module = bench.program.emit(ctx);
    transforms::runPipeline(module.get());

    RunResult sequential = runWorkload(module.get(), bench, nx, ny, 1);
    expectRunsEqual(sequential,
                    runWorkload(module.get(), bench, nx, ny, 4),
                    "threads=4 (auto tiling)");

    struct TilingCase
    {
        wse::ShardGrid grid;
        const char *what;
    };
    const TilingCase tilings[] = {
        {{1, 4}, "1-D strips 1x4"},
        {{2, 2}, "2-D tiles 2x2"},
        {{4, 2}, "2-D tiles 4x2"},
        {{2, 4}, "2-D tiles 2x4"},
    };
    for (const TilingCase &t : tilings) {
        wse::SimOptions options{4};
        options.shardGrid = t.grid;
        expectRunsEqual(sequential,
                        runWorkloadOpts(module.get(), bench, nx, ny,
                                        options),
                        t.what);
    }
}

TEST(ShardedDeterminism, Jacobian)
{
    expectShardedEquivalence(fe::makeJacobian(7, 7, 4, 64), 7, 7);
}

TEST(ShardedDeterminism, Diffusion)
{
    expectShardedEquivalence(fe::makeDiffusion(7, 7, 4, 16), 7, 7);
}

TEST(ShardedDeterminism, Acoustic)
{
    expectShardedEquivalence(fe::makeAcoustic(8, 8, 3, 32), 8, 8);
}

TEST(ShardedDeterminism, Seismic)
{
    expectShardedEquivalence(fe::makeSeismic(8, 8, 3, 20), 8, 8);
}

TEST(ShardedDeterminism, Uvkbe)
{
    expectShardedEquivalence(fe::makeUvkbe(8, 8, 24), 8, 8);
}

TEST(ShardedDeterminism, ThreadCountsBeyondWidthClamp)
{
    // threads > width used to clamp to one column strip per column;
    // with 2-D tiling threads=16 on a 5x5 grid auto-derives a 4x4
    // tiling (25 PEs across 16 tiles) and still matches bit-for-bit.
    fe::Benchmark bench = fe::makeDiffusion(5, 5, 2, 16);
    ir::Context ctx;
    dialects::registerAllDialects(ctx);
    ir::OwningOp module = bench.program.emit(ctx);
    transforms::runPipeline(module.get());
    RunResult a = runWorkload(module.get(), bench, 5, 5, 1);
    RunResult b = runWorkload(module.get(), bench, 5, 5, 16);
    EXPECT_TRUE(a == b);
}

//===----------------------------------------------------------------------===
// 2-D tiling resolution and the scheduler knobs (PR 10)
//===----------------------------------------------------------------------===

TEST(ShardedDeterminism, AutoShardGridDerivation)
{
    wse::ArchParams arch = wse::ArchParams::wse3();
    {
        // threads=4 on a square grid: most-square 2x2 tiling.
        wse::Simulator sim(arch, 8, 8, wse::SimOptions{4});
        EXPECT_EQ(sim.shardRows(), 2);
        EXPECT_EQ(sim.shardCols(), 2);
        EXPECT_EQ(sim.shardCount(), 4);
        EXPECT_EQ(sim.threads(), 4);
    }
    {
        // Height-1 grids degenerate to the classic column strips.
        wse::Simulator sim(arch, 6, 1, wse::SimOptions{6});
        EXPECT_EQ(sim.shardRows(), 1);
        EXPECT_EQ(sim.shardCols(), 6);
    }
    {
        // Width-1 grids tile along rows instead of clamping to 1.
        wse::Simulator sim(arch, 1, 6, wse::SimOptions{4});
        EXPECT_EQ(sim.shardRows(), 4);
        EXPECT_EQ(sim.shardCols(), 1);
    }
    {
        // threads=16 on 5x5: the largest fitting factorisation, 4x4.
        wse::Simulator sim(arch, 5, 5, wse::SimOptions{16});
        EXPECT_EQ(sim.shardRows(), 4);
        EXPECT_EQ(sim.shardCols(), 4);
        EXPECT_EQ(sim.threads(), 16);
    }
    {
        // Explicit tiling decouples shards from workers: six tiles can
        // be driven by two workers (each window deals shards s = w,
        // w + 2, ... to worker w).
        wse::SimOptions options{2};
        options.shardGrid = {2, 3};
        wse::Simulator sim(arch, 6, 6, options);
        EXPECT_EQ(sim.shardCount(), 6);
        EXPECT_EQ(sim.shardRows(), 2);
        EXPECT_EQ(sim.shardCols(), 3);
        EXPECT_EQ(sim.threads(), 2);
    }
    {
        // Explicit tilings clamp to the grid extents.
        wse::SimOptions options{4};
        options.shardGrid = {9, 2};
        wse::Simulator sim(arch, 4, 3, options);
        EXPECT_EQ(sim.shardRows(), 3);
        EXPECT_EQ(sim.shardCols(), 2);
    }
}

TEST(ShardedDeterminism, TilingStressMatrix)
{
    // The tsan-gated stress matrix: one workload re-run under every
    // tiling shape in {1x4, 2x2, 4x2} must match threads=1 bit-for-bit,
    // including with fewer workers than shards (each worker then runs
    // several shard-windows per window).
    fe::Benchmark bench = fe::makeDiffusion(8, 8, 4, 16);
    ir::Context ctx;
    dialects::registerAllDialects(ctx);
    ir::OwningOp module = bench.program.emit(ctx);
    transforms::runPipeline(module.get());
    RunResult sequential = runWorkload(module.get(), bench, 8, 8, 1);
    const wse::Cycles hopCycles = wse::ArchParams::wse3().hopCycles;
    const wse::ShardGrid tilings[] = {{1, 4}, {2, 2}, {4, 2}};
    for (const wse::ShardGrid &g : tilings) {
        for (int threads : {2, 4}) {
            wse::SimOptions options{threads};
            options.shardGrid = g;
            wse::ShardingTelemetry telemetry;
            RunResult run = runWorkloadOpts(module.get(), bench, 8, 8,
                                            options, &telemetry);
            expectRunsEqual(sequential, run, "tiling stress");
            EXPECT_GT(telemetry.windows, 0u);
            // Every window is exactly one hop long.
            EXPECT_EQ(telemetry.windowCycles, telemetry.windows * hopCycles);
            EXPECT_GT(telemetry.shardWindowsRun, 0u);
        }
    }
}

TEST(ShardedDeterminism, OutboxSteadyStateAllocationFree)
{
    // Satellite contract: outbox lanes are cleared (capacity kept)
    // between windows, so lane growth happens only while reaching the
    // high-water mark — a long run must see a realloc count bounded by
    // the working set, orders of magnitude below the window count.
    fe::Benchmark bench = fe::makeDiffusion(8, 8, 8, 16);
    ir::Context ctx;
    dialects::registerAllDialects(ctx);
    ir::OwningOp module = bench.program.emit(ctx);
    transforms::runPipeline(module.get());

    // The one-hop window means one drain per hop: many windows.
    wse::SimOptions options{4};
    wse::ShardingTelemetry telemetry;
    runWorkloadOpts(module.get(), bench, 8, 8, options, &telemetry);
    EXPECT_GT(telemetry.windows, 100u);
    // Growth to a high-water mark H costs O(log H) reallocations per
    // lane; 12 lanes (2x2 tiling) x a generous log bound still sits
    // far below one realloc per window.
    EXPECT_LT(telemetry.outboxReallocs, 150u);
    EXPECT_LT(telemetry.outboxReallocs, telemetry.windows / 4)
        << "windows=" << telemetry.windows
        << " reallocs=" << telemetry.outboxReallocs;
}

//===----------------------------------------------------------------------===
// Large-grid scenarios (ShardedScale: same `sharded` gate, own budget)
//===----------------------------------------------------------------------===

TEST(ShardedScale, Acoustic96Grid)
{
    // The paper-scale trajectory scenario: a 96x96 acoustic grid (the
    // README scenario table's large-grid run; examples/
    // large_grid_acoustic.cpp drives the same shape standalone) must
    // stay bit-identical across threads=1, 1-D strips and three
    // distinct 2-D tilings.
    fe::Benchmark bench = fe::makeAcoustic(96, 96, 2, 8);
    ir::Context ctx;
    dialects::registerAllDialects(ctx);
    ir::OwningOp module = bench.program.emit(ctx);
    transforms::runPipeline(module.get());

    RunResult sequential =
        runWorkload(module.get(), bench, 96, 96, 1);
    struct TilingCase
    {
        wse::ShardGrid grid;
        const char *what;
    };
    const TilingCase tilings[] = {
        {{1, 4}, "96x96 1-D strips 1x4"},
        {{2, 2}, "96x96 2-D tiles 2x2"},
        {{4, 2}, "96x96 2-D tiles 4x2"},
        {{2, 4}, "96x96 2-D tiles 2x4"},
    };
    for (const TilingCase &t : tilings) {
        wse::SimOptions options{4};
        options.shardGrid = t.grid;
        wse::ShardingTelemetry telemetry;
        RunResult run = runWorkloadOpts(module.get(), bench, 96, 96,
                                        options, &telemetry);
        expectRunsEqual(sequential, run, t.what);
        EXPECT_GT(telemetry.windows, 0u);
    }
}

TEST(ShardedScale, Stress256Smoke)
{
    // Smoke-scale 256x256 stress config: one step, shallow columns —
    // enough to push 64k PEs through the cross-shard machinery at a
    // 4x4 tiling without blowing the CI budget.
    fe::Benchmark bench = fe::makeAcoustic(256, 256, 1, 8);
    ir::Context ctx;
    dialects::registerAllDialects(ctx);
    ir::OwningOp module = bench.program.emit(ctx);
    transforms::runPipeline(module.get());

    RunResult sequential =
        runWorkload(module.get(), bench, 256, 256, 1);
    wse::SimOptions options{4};
    options.shardGrid = {4, 4};
    wse::ShardingTelemetry telemetry;
    RunResult tiled = runWorkloadOpts(module.get(), bench, 256, 256,
                                      options, &telemetry);
    expectRunsEqual(sequential, tiled, "256x256 4x4 tiles");
    EXPECT_GT(telemetry.windows, 0u);
    EXPECT_GT(telemetry.shardWindowsRun, telemetry.windows)
        << "a 16-shard window should run several shard-windows";
}

//===----------------------------------------------------------------------===
// Cross-shard boundary deliveries at the fabric level
//===----------------------------------------------------------------------===

struct Recorded
{
    int x;
    int distance;
    wse::Cycles at;
    float head;

    bool operator==(const Recorded &) const = default;
};

/**
 * Drives two overlapping eastward multicast streams across every shard
 * boundary of a 6x1 strip and records the deliveries. With one column
 * per shard every hop is a cross-shard mailbox handoff.
 */
std::vector<Recorded>
runBoundaryStreams(int threads)
{
    wse::Simulator sim(wse::ArchParams::wse3(), 6, 1,
                       wse::SimOptions{threads});
    // Recording is only touched by events owned by the receiving PEs;
    // collecting per-PE then flattening keeps the observation race-free.
    std::vector<std::vector<Recorded>> perPe(6);
    auto deliver = std::make_shared<const wse::DeliveryFn>(
        [&perPe](const wse::StreamDelivery &d,
                 const std::vector<float> &payload) {
            perPe[static_cast<size_t>(d.peX)].push_back(
                {d.peX, d.distance, d.completeAt, payload[0]});
        });
    std::vector<float> first(40, 1.0f);
    std::vector<float> second(40, 2.0f);
    std::vector<float> third(40, 3.0f);
    // Same link chain, same injection cycle: contention must resolve
    // identically at every thread count.
    sim.fabric().sendStream(0, 0, wse::Direction::East, {1, 3, 5}, first,
                            0, *deliver);
    sim.fabric().sendStream(0, 0, wse::Direction::East, {2, 4}, second, 0,
                            *deliver);
    sim.fabric().sendStream(1, 0, wse::Direction::East, {2, 4}, third, 10,
                            *deliver);
    sim.run();
    std::vector<Recorded> flat;
    for (const auto &pe : perPe)
        flat.insert(flat.end(), pe.begin(), pe.end());
    return flat;
}

TEST(ShardedDeterminism, BoundaryDeliveryOrdering)
{
    std::vector<Recorded> sequential = runBoundaryStreams(1);
    std::vector<Recorded> sharded = runBoundaryStreams(6);
    // Stream 1 delivers at 3 hops, streams 2 and 3 at 2 each.
    ASSERT_EQ(sequential.size(), 7u);
    EXPECT_EQ(sequential, sharded);

    // Per stream, farther hops land strictly later.
    for (size_t i = 0; i < sequential.size(); ++i)
        for (size_t j = 0; j < sequential.size(); ++j)
            if (sequential[i].head == sequential[j].head &&
                sequential[i].distance < sequential[j].distance)
                EXPECT_LT(sequential[i].at, sequential[j].at);
}

TEST(ShardedDeterminism, HostSendsConvergingAcrossShardsTieBreak)
{
    // Two host-initiated streams from senders living in different
    // shards converge on the middle PE at the same cycle with identical
    // (cycle, owner, creator=host) key prefixes: the tie must break by
    // the single host sequence counter, not by per-shard counters
    // (regression: per-shard host sequences made this order depend on
    // the thread count).
    std::vector<std::pair<float, wse::Cycles>> trace[2];
    for (int i = 0; i < 2; ++i) {
        wse::Simulator sim(wse::ArchParams::wse3(), 3, 1,
                           wse::SimOptions{i == 0 ? 1 : 3});
        auto record = [&trace, i](const wse::StreamDelivery &,
                                  const std::vector<float> &p) {
            // All deliveries land on PE (1,0): single-owner recording.
            trace[i].push_back({p[0], 0});
        };
        std::vector<float> fromEast(50, 2.0f);
        std::vector<float> fromWest(50, 1.0f);
        sim.fabric().sendStream(2, 0, wse::Direction::West, {1},
                                fromEast, 0, record);
        sim.fabric().sendStream(0, 0, wse::Direction::East, {1},
                                fromWest, 0, record);
        trace[i].back().second = sim.run();
    }
    ASSERT_EQ(trace[0].size(), 2u);
    EXPECT_EQ(trace[0], trace[1]);
}

TEST(ShardedDeterminism, ContendedLinkSerializesAcrossShards)
{
    // Two streams from the same sender crossing a shard boundary: the
    // second cannot land earlier than m cycles after the first.
    for (int threads : {1, 3}) {
        wse::Simulator sim(wse::ArchParams::wse3(), 3, 1,
                           wse::SimOptions{threads});
        const wse::Cycles m = 100;
        std::vector<wse::Cycles> landed;
        auto deliver = [&landed](const wse::StreamDelivery &d,
                                 const std::vector<float> &) {
            landed.push_back(d.completeAt);
        };
        std::vector<float> payload(m, 1.0f);
        sim.fabric().sendStream(0, 0, wse::Direction::East, {2}, payload,
                                0, deliver);
        sim.fabric().sendStream(0, 0, wse::Direction::East, {2}, payload,
                                0, deliver);
        sim.run();
        ASSERT_EQ(landed.size(), 2u);
        EXPECT_GE(std::max(landed[0], landed[1]),
                  std::min(landed[0], landed[1]) + m);
    }
}

//===----------------------------------------------------------------------===
// Recycling rings: activation frames and payload slots
//===----------------------------------------------------------------------===

TEST(ShardedDeterminism, FrameArenaRecyclesAcrossNestedActivations)
{
    // A stepped workload dispatches hundreds of compiled activations per
    // PE, each of which may nest further frames through csl.call. Each
    // shard's frame stack must serve virtually all of them from recycled
    // storage: fresh allocations are bounded by the nesting working set
    // of each shard, not by the PE count or the activation count.
    fe::Benchmark bench = fe::makeJacobian(5, 5, 20, 32);
    ir::Context ctx;
    dialects::registerAllDialects(ctx);
    ir::OwningOp module = bench.program.emit(ctx);
    transforms::runPipeline(module.get());

    for (int threads : {1, 4}) {
        SCOPED_TRACE(::testing::Message() << "threads=" << threads);
        wse::SimOptions options;
        options.threads = threads;
        wse::Simulator sim(wse::ArchParams::wse3(), 5, 5, options);
        interp::CslProgramInstance instance(sim, module.get());
        auto init = bench.init;
        instance.setFieldInit(bench.program.fieldName(0),
                              [init](int x, int y, int z) {
                                  return init(0, x, y, z);
                              });
        instance.configure();
        instance.launch();
        sim.run(4000000000ULL);

        auto [acquires, fresh] = instance.frameStats();
        EXPECT_GT(acquires, sim.stats().taskActivations);
        EXPECT_GT(acquires, 8 * fresh)
            << "activation frames are not being recycled (acquires="
            << acquires << ", fresh=" << fresh << ")";
        // Every shard needs a frame per nesting level, and a recycled
        // frame may grow once for a larger body: the bound is the
        // nesting depth times the shard count (the run reads 5 per
        // shard).
        const uint64_t nestingDepth = 8;
        EXPECT_LE(fresh, nestingDepth * static_cast<uint64_t>(
                                            sim.shardCount()));
    }
}

TEST(ShardedDeterminism, PayloadRingRecyclesSlots)
{
    // A chunked exchange workload acquires one payload slot per chunk
    // per sender. The ring's high-water mark tracks the genuine
    // in-flight working set (boundary PEs run ahead of interior PEs,
    // so early-arrival stashes legitimately pin slots — the hardware
    // equivalent of wavelets queued at the input ramps); recycling must
    // still serve most acquires, and every slot must come back once
    // the run drains.
    fe::Benchmark bench = fe::makeDiffusion(5, 5, 20, 16);
    ir::Context ctx;
    dialects::registerAllDialects(ctx);
    ir::OwningOp module = bench.program.emit(ctx);
    transforms::runPipeline(module.get());

    wse::Simulator sim(wse::ArchParams::wse3(), 5, 5);
    interp::CslProgramInstance instance(sim, module.get());
    auto init = bench.init;
    instance.setFieldInit(bench.program.fieldName(0),
                          [init](int x, int y, int z) {
                              return init(0, x, y, z);
                          });
    instance.configure();
    instance.launch();
    sim.run(4000000000ULL);

    wse::PayloadPool &pool = sim.pe(0, 0).payloadPool();
    EXPECT_GT(pool.acquires(), 0u);
    EXPECT_GT(pool.acquires(), 2 * pool.created())
        << "payload slots are not being recycled (acquires="
        << pool.acquires() << ", created=" << pool.created() << ")";
    EXPECT_EQ(pool.liveSlots(), 0u)
        << "payload slots leaked past the end of the run";
}

TEST(ShardedDeterminism, PayloadRefCountingReturnsSlots)
{
    wse::Simulator sim(wse::ArchParams::wse3(), 1, 1);
    wse::PayloadPool &pool = sim.pe(0, 0).payloadPool();
    {
        wse::PayloadRef a = pool.acquire();
        a.mutableData() = {1.0f, 2.0f};
        wse::PayloadRef b = a; // second reference pins the slot
        a.reset();
        EXPECT_TRUE(b.valid());
        EXPECT_EQ(b.data()[1], 2.0f);
    }
    // Both references dropped: the next acquire reuses the slot.
    wse::PayloadRef c = pool.acquire();
    EXPECT_EQ(pool.slotCount(), 1u);
    EXPECT_TRUE(c.data().empty()); // recycled slots come back cleared
}

TEST(ShardedDeterminism, SameCycleEventsOrderByOwnerPe)
{
    // The deterministic key orders same-cycle events of different PEs by
    // the owner's dense grid id, independent of activation order.
    wse::Simulator sim(wse::ArchParams::wse3(), 2, 1);
    std::vector<int> order;
    sim.pe(0, 0).registerTask("t", wse::TaskKind::Local,
                              [&](wse::TaskContext &) {
                                  order.push_back(0);
                              });
    sim.pe(1, 0).registerTask("t", wse::TaskKind::Local,
                              [&](wse::TaskContext &) {
                                  order.push_back(1);
                              });
    sim.pe(1, 0).activate("t", 100); // activated first, runs second
    sim.pe(0, 0).activate("t", 100);
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

} // namespace
} // namespace wsc::test
