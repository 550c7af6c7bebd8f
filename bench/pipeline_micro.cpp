/**
 * Compile-time micro-benchmarks (google-benchmark): cost of the
 * individual pipeline stages and the full lowering per benchmark.
 */

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "codegen/csl_emitter.h"
#include "dialects/all.h"
#include "interp/csl_interpreter.h"
#include "transforms/pipeline.h"
#include "wse/simulator.h"

using namespace wsc;

namespace {

void
BM_FrontendEmit(benchmark::State &state)
{
    fe::Benchmark bench = fe::makeSeismic(100, 100, 12);
    for (auto _ : state) {
        ir::Context ctx;
        dialects::registerAllDialects(ctx);
        ir::OwningOp module = bench.program.emit(ctx);
        benchmark::DoNotOptimize(module.get());
    }
}
BENCHMARK(BM_FrontendEmit);

void
BM_IrConstruction(benchmark::State &state)
{
    // Raw IR build/teardown cost with a warm context: every iteration
    // creates a module, a 2000-op chain with constants and attributes,
    // and destroys it, so steady state is served entirely from the
    // arena free lists (see ir/arena.h).
    namespace bt = wsc::dialects::builtin;
    namespace ar = wsc::dialects::arith;
    ir::Context ctx;
    dialects::registerAllDialects(ctx);
    for (auto _ : state) {
        ir::OwningOp module = bt::createModule(ctx);
        ir::OpBuilder b(ctx);
        b.setInsertionPointToEnd(&module->region(0).front());
        ir::Value acc = ar::createConstantF32(b, 1.0);
        for (int i = 0; i < 999; ++i) {
            ir::Value c = ar::createConstantF32(b, (i & 7) * 0.5);
            acc = ar::createAddF(b, acc, c);
        }
        benchmark::DoNotOptimize(module.get());
    }
    state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_IrConstruction);

void
BM_FullPipeline(benchmark::State &state)
{
    const char *names[] = {"Jacobian", "Diffusion", "Acoustic",
                           "Seismic", "UVKBE"};
    const char *name = names[state.range(0)];
    fe::Benchmark bench = bench::paperBenchmark(name, 100, 100, 12);
    for (auto _ : state) {
        ir::Context ctx;
        dialects::registerAllDialects(ctx);
        ir::OwningOp module = bench.program.emit(ctx);
        transforms::runPipeline(module.get());
        benchmark::DoNotOptimize(module.get());
    }
    state.SetLabel(name);
}
BENCHMARK(BM_FullPipeline)->DenseRange(0, 4);

void
BM_CslEmission(benchmark::State &state)
{
    fe::Benchmark bench = fe::makeSeismic(100, 100, 12);
    ir::Context ctx;
    dialects::registerAllDialects(ctx);
    ir::OwningOp module = bench.program.emit(ctx);
    transforms::runPipeline(module.get());
    for (auto _ : state) {
        codegen::EmittedCsl csl = codegen::emitCsl(module.get());
        benchmark::DoNotOptimize(csl.programFile.data());
    }
}
BENCHMARK(BM_CslEmission);

void
BM_SchedulerThroughput(benchmark::State &state)
{
    // Raw event-queue throughput: schedule and run N no-op events per
    // iteration, spread over 64 cycles. The schedule path must not
    // allocate for inline-sized callbacks, so this measures the calendar
    // queue's bucket append, per-cycle sort and drain plus dispatch.
    const int64_t n = state.range(0);
    wse::Simulator sim(wse::ArchParams::wse3(), 1, 1);
    uint64_t sink = 0;
    for (auto _ : state) {
        wse::Cycles base = sim.now();
        for (int64_t i = 0; i < n; ++i)
            sim.schedule(base + static_cast<wse::Cycles>(i % 64),
                         [&sink] { sink++; });
        sim.run();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SchedulerThroughput)->Arg(1 << 14);

void
BM_ShardedTimestep2D(benchmark::State &state)
{
    // The paper-scale trajectory bench: a 96x96 acoustic grid under
    // different shard tilings. Args: (rows, cols, threads). Row 0/0
    // encodes the sequential baseline. Results are bit-identical across
    // every row (pinned by ShardedScale.Acoustic96Grid); only host time
    // changes with the tiling.
    const int rows = static_cast<int>(state.range(0));
    const int cols = static_cast<int>(state.range(1));
    const int threads = static_cast<int>(state.range(2));
    fe::Benchmark bench = fe::makeAcoustic(96, 96, 2, 8);
    ir::Context ctx;
    dialects::registerAllDialects(ctx);
    ir::OwningOp module = bench.program.emit(ctx);
    transforms::runPipeline(module.get());
    uint64_t windows = 0;
    for (auto _ : state) {
        wse::SimOptions options{threads};
        options.shardGrid = {rows, cols};
        wse::Simulator sim(wse::ArchParams::wse3(), 96, 96, options);
        interp::CslProgramInstance instance(sim, module.get());
        auto init = bench.init;
        instance.setFieldInit("p", [init](int x, int y, int z) {
            return init(0, x, y, z);
        });
        instance.configure();
        instance.launch();
        sim.run(4000000000ULL);
        benchmark::DoNotOptimize(sim.now());
        windows = sim.telemetry().windows;
    }
    state.SetLabel(rows == 0 ? "acoustic 96x96 sequential"
                             : "acoustic 96x96 tiled");
    state.counters["shard_rows"] = rows;
    state.counters["shard_cols"] = cols;
    // Not "threads": that key is google-benchmark's own JSON field.
    state.counters["sim_threads"] = threads;
    state.counters["windows"] = static_cast<double>(windows);
}
BENCHMARK(BM_ShardedTimestep2D)
    ->Args({0, 0, 1})  // sequential baseline
    ->Args({1, 4, 4})  // 1-D strips
    ->Args({2, 2, 4})  // square tiles
    ->Args({4, 4, 4})  // over-decomposed: 4 shards per worker
    ->Unit(benchmark::kMillisecond);

void
BM_SimulatedTimestep(benchmark::State &state)
{
    // Simulator throughput: one steady-state timestep of Jacobian on a
    // 7x7 sub-grid (host wall-clock per simulated step).
    fe::Benchmark bench = fe::makeJacobian(7, 7, 64, 64);
    ir::Context ctx;
    dialects::registerAllDialects(ctx);
    ir::OwningOp module = bench.program.emit(ctx);
    transforms::runPipeline(module.get());
    for (auto _ : state) {
        wse::Simulator sim(wse::ArchParams::wse3(), 7, 7);
        interp::CslProgramInstance instance(sim, module.get());
        auto init = bench.init;
        instance.setFieldInit("a", [init](int x, int y, int z) {
            return init(0, x, y, z);
        });
        instance.configure();
        instance.launch();
        sim.run(4000000000ULL);
        benchmark::DoNotOptimize(sim.now());
    }
    state.counters["steps"] = 64;
}
BENCHMARK(BM_SimulatedTimestep)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
