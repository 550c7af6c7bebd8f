/**
 * @file
 * The dispatch-equivalence gate (`ctest -L interp`): the compiled
 * interpreter (the pre-decoded switch loop) must be bit-identical to the
 * reference tree-walking evaluator on all five workloads, at threads=1
 * and threads=4.
 */

#include "test_helpers.h"

namespace wsc::test {
namespace {

//===----------------------------------------------------------------------===
// Harness
//===----------------------------------------------------------------------===

/** One run's observable outcome: cycle-exact and bit-exact state. */
struct InterpRun
{
    wse::Cycles finalCycle = 0;
    uint64_t unblocks = 0;
    std::vector<std::vector<float>> columns;
    std::vector<std::vector<wse::Cycles>> marks;

    bool operator==(const InterpRun &o) const
    {
        if (finalCycle != o.finalCycle || unblocks != o.unblocks ||
            columns.size() != o.columns.size() ||
            marks.size() != o.marks.size())
            return false;
        // Bit-exact float comparison, not approximate: both paths must
        // execute the same arithmetic in the same order.
        for (size_t i = 0; i < columns.size(); ++i)
            if (columns[i] != o.columns[i])
                return false;
        return marks == o.marks;
    }
};

/** Run the lowered `module` once, on the reference evaluator or the
 *  compiled path, and capture everything. */
InterpRun
runInterp(ir::Operation *module, fe::Benchmark &bench, int nx, int ny,
          bool reference, int threads)
{
    wse::Simulator sim(wse::ArchParams::wse3(), nx, ny,
                       wse::SimOptions{threads});
    interp::CslProgramInstance instance(sim, module);
    instance.setReferenceMode(reference);
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

    InterpRun run;
    run.finalCycle = sim.run(4000000000ULL);
    run.unblocks = instance.unblockCount();
    for (size_t f = 0; f < bench.program.numFields(); ++f)
        for (int x = 0; x < nx; ++x)
            for (int y = 0; y < ny; ++y) {
                run.columns.push_back(instance.readFieldColumn(
                    bench.program.fieldName(f), x, y));
                run.marks.push_back(instance.stepMarks(x, y));
            }
    return run;
}

/**
 * The dispatch-equivalence contract: the reference run and the compiled
 * runs at threads=1 and threads=4 of `bench` all produce bit-identical
 * fields, step marks, unblock counts and final cycles.
 */
void
expectMatchesReference(fe::Benchmark bench, int nx, int ny)
{
    ir::Context ctx;
    dialects::registerAllDialects(ctx);
    ir::OwningOp module = bench.program.emit(ctx);
    transforms::runPipeline(module.get());

    InterpRun oracle = runInterp(module.get(), bench, nx, ny,
                                 /*reference=*/true, /*threads=*/1);
    for (int threads : {1, 4}) {
        InterpRun run = runInterp(module.get(), bench, nx, ny,
                                  /*reference=*/false, threads);
        EXPECT_TRUE(run == oracle) << bench.name << " diverged at threads="
                                   << threads;
    }
}

//===----------------------------------------------------------------------===
// Dispatch equivalence across all five workloads
//===----------------------------------------------------------------------===

TEST(InterpTiers, JacobianAllTiersBitIdentical)
{
    expectMatchesReference(fe::makeJacobian(6, 6, 3, 24), 6, 6);
}

TEST(InterpTiers, DiffusionAllTiersBitIdentical)
{
    expectMatchesReference(fe::makeDiffusion(7, 7, 4, 16), 7, 7);
}

TEST(InterpTiers, AcousticAllTiersBitIdentical)
{
    expectMatchesReference(fe::makeAcoustic(6, 6, 3, 20), 6, 6);
}

TEST(InterpTiers, SeismicAllTiersBitIdentical)
{
    expectMatchesReference(fe::makeSeismic(8, 8, 3, 20), 8, 8);
}

TEST(InterpTiers, UvkbeAllTiersBitIdentical)
{
    expectMatchesReference(fe::makeUvkbe(8, 8, 16), 8, 8);
}

} // namespace
} // namespace wsc::test
