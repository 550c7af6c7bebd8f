/**
 * Large-grid acoustic scenario: the paper-scale sharded-simulation
 * trajectory (2-D shard tiles, one-hop conservative windows). Runs a
 * 96x96-PE acoustic wave kernel — the README scenario
 * table's large-grid row — under several tilings and prints the
 * scheduler telemetry next to the (identical) simulation results.
 *
 * Build & run:  ./build/example_large_grid_acoustic
 * Environment:  WSC_GRID=N      grid edge (default 96)
 *               WSC_STEPS=N     timesteps (default 2)
 *               WSC_Z=N         column depth (default 8)
 */

#include <cstdio>

#include "dialects/all.h"
#include "frontends/benchmarks.h"
#include "interp/csl_interpreter.h"
#include "support/env.h"
#include "transforms/pipeline.h"
#include "wse/simulator.h"

using namespace wsc;

namespace {

struct Config
{
    const char *label;
    wse::ShardGrid grid;
    int threads;
};

void
runConfig(const Config &cfg, const fe::Benchmark &bench,
          ir::Operation *module, int n)
{
    wse::SimOptions options{cfg.threads};
    options.shardGrid = cfg.grid;
    wse::Simulator sim(wse::ArchParams::wse3(), n, n, options);
    interp::CslProgramInstance instance(sim, module);
    auto init = bench.init;
    instance.setFieldInit("p", [init](int x, int y, int z) {
        return init(0, x, y, z);
    });
    instance.configure();
    instance.launch();
    wse::Cycles final = sim.run(4000000000ULL);
    wse::ShardingTelemetry t = sim.telemetry();
    printf("  %-24s %2dx%-2d tiles  cycles=%-8llu events=%-10llu "
           "windows=%llu\n",
           cfg.label, sim.shardRows(), sim.shardCols(),
           static_cast<unsigned long long>(final),
           static_cast<unsigned long long>(sim.stats().eventsProcessed),
           static_cast<unsigned long long>(t.windows));
}

} // namespace

int
main()
{
    const int n = static_cast<int>(envU64("WSC_GRID", 96));
    const int steps = static_cast<int>(envU64("WSC_STEPS", 2));
    const int z = static_cast<int>(envU64("WSC_Z", 8));
    printf("Acoustic wave (r=2 star) on %dx%d PEs, z=%d, %d steps\n", n,
           n, z, steps);

    fe::Benchmark bench = fe::makeAcoustic(n, n, steps, z);
    ir::Context ctx;
    dialects::registerAllDialects(ctx);
    ir::OwningOp module = bench.program.emit(ctx);
    ir::PipelineResult result = transforms::runPipeline(module.get());
    if (!result) {
        fprintf(stderr, "%s\n", result.str().c_str());
        return 1;
    }

    // Every row simulates the same wafer: cycles and events are
    // bit-identical by the sharded determinism contract — only the
    // scheduler telemetry (windows) changes with the tiling.
    const Config configs[] = {
        {"sequential", {1, 1}, 1},
        {"1-D strips", {1, 4}, 4},
        {"2x2 tiles", {2, 2}, 4},
        {"4x4 tiles, 4 workers", {4, 4}, 4},
    };
    for (const Config &cfg : configs)
        runConfig(cfg, bench, module.get(), n);
    return 0;
}
