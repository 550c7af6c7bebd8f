#include "test_helpers.h"

namespace wsc::test {
namespace {

/** (arch factory, label) x benchmark sweep. */
struct ArchCase
{
    const char *label;
    wse::ArchParams (*make)();
};

// Print the label, not gtest's default byte dump: the dump holds two
// pointers, so under ASLR the discovered ctest names would change on
// every build.
void PrintTo(const ArchCase &c, std::ostream *os)
{
    *os << c.label;
}

class EndToEnd : public ::testing::TestWithParam<ArchCase>
{
};

TEST_P(EndToEnd, JacobianMatchesReference)
{
    fe::Benchmark bench = fe::makeJacobian(8, 8, 5, 16);
    EXPECT_LT(endToEndError(bench, GetParam().make(), 8, 8, 5), 1e-4);
}

TEST_P(EndToEnd, DiffusionMatchesReference)
{
    fe::Benchmark bench = fe::makeDiffusion(9, 8, 5, 20);
    EXPECT_LT(endToEndError(bench, GetParam().make(), 9, 8, 5), 1e-4);
}

TEST_P(EndToEnd, AcousticMatchesReference)
{
    fe::Benchmark bench = fe::makeAcoustic(8, 9, 5, 20);
    EXPECT_LT(endToEndError(bench, GetParam().make(), 8, 9, 5), 1e-4);
}

TEST_P(EndToEnd, SeismicMatchesReference)
{
    // r=4 needs at least a 9x9 grid to have interior PEs.
    fe::Benchmark bench = fe::makeSeismic(10, 10, 4, 24);
    EXPECT_LT(endToEndError(bench, GetParam().make(), 10, 10, 4), 1e-4);
}

TEST_P(EndToEnd, UvkbeMatchesReference)
{
    fe::Benchmark bench = fe::makeUvkbe(8, 8, 16);
    // Fused kernels compute on the joint interior (see endToEndError).
    EXPECT_LT(endToEndError(bench, GetParam().make(), 8, 8, 1,
                            /*compareMargin=*/1),
              1e-4);
}

INSTANTIATE_TEST_SUITE_P(
    BothGenerations, EndToEnd,
    ::testing::Values(ArchCase{"WSE2", &wse::ArchParams::wse2},
                      ArchCase{"WSE3", &wse::ArchParams::wse3}),
    [](const ::testing::TestParamInfo<ArchCase> &info) {
        return info.param.label;
    });

TEST(EndToEndExtras, NonSquareGrids)
{
    fe::Benchmark bench = fe::makeJacobian(12, 5, 4, 16);
    EXPECT_LT(endToEndError(bench, wse::ArchParams::wse3(), 12, 5, 4),
              1e-4);
}

TEST(EndToEndExtras, LongerRuns)
{
    fe::Benchmark bench = fe::makeDiffusion(7, 7, 24, 12);
    EXPECT_LT(endToEndError(bench, wse::ArchParams::wse3(), 7, 7, 24),
              1e-3);
}

TEST(EndToEndExtras, MultiChunkExecutionIsCorrect)
{
    fe::Benchmark bench = fe::makeJacobian(8, 8, 5, 24);
    ir::Context ctx;
    dialects::registerAllDialects(ctx);
    ir::OwningOp module = bench.program.emit(ctx);
    transforms::PipelineOptions options;
    options.forceNumChunks = 3; // 22 interior / 3 -> uneven last chunk
    transforms::runPipeline(module.get(), options);

    wse::Simulator sim(wse::ArchParams::wse3(), 8, 8);
    interp::CslProgramInstance instance(sim, module.get());
    auto init = bench.init;
    instance.setFieldInit("a", [init](int x, int y, int z) {
        return init(0, x, y, z);
    });
    instance.configure();
    instance.launch();
    sim.run(4000000000ULL);

    model::ReferenceExecutor ref(bench.program, bench.init);
    ref.run(5);
    double maxErr = 0;
    for (int x = 0; x < 8; ++x)
        for (int y = 0; y < 8; ++y) {
            std::vector<float> col = instance.readFieldColumn("a", x, y);
            for (size_t z = 0; z < col.size(); ++z)
                maxErr = std::max(
                    maxErr,
                    static_cast<double>(std::abs(
                        col[z] -
                        ref.at(0, x, y, static_cast<int64_t>(z)))));
        }
    EXPECT_LT(maxErr, 1e-4);
}

TEST(EndToEndExtras, DisabledOptimizationsStayCorrect)
{
    // All four §5.7 optimizations off: slower but identical results.
    fe::Benchmark bench = fe::makeAcoustic(8, 8, 4, 16);
    ir::Context ctx;
    dialects::registerAllDialects(ctx);
    ir::OwningOp module = bench.program.emit(ctx);
    transforms::PipelineOptions options;
    options.enableStencilInlining = false;
    options.enableVarithFusion = false;
    options.enableCoeffPromotion = false;
    options.enableOneShotReduction = false;
    options.enableFmacFusion = false;
    transforms::runPipeline(module.get(), options);

    wse::Simulator sim(wse::ArchParams::wse3(), 8, 8);
    interp::CslProgramInstance instance(sim, module.get());
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
    sim.run(4000000000ULL);

    model::ReferenceExecutor ref(bench.program, bench.init);
    ref.run(4);
    double maxErr = 0;
    for (int x = 0; x < 8; ++x)
        for (int y = 0; y < 8; ++y) {
            std::vector<float> col = instance.readFieldColumn("u", x, y);
            for (size_t z = 0; z < col.size(); ++z)
                maxErr = std::max(
                    maxErr,
                    static_cast<double>(std::abs(
                        col[z] -
                        ref.at(0, x, y, static_cast<int64_t>(z)))));
        }
    EXPECT_LT(maxErr, 1e-4);
}

TEST(EndToEndExtras, PeMemoryStaysWithinBudgetForPaperColumns)
{
    // The real seismic column (z=450, 16 sections) must fit 48 kB.
    fe::Benchmark bench = fe::makeSeismic(10, 10, 2);
    ir::Context ctx;
    dialects::registerAllDialects(ctx);
    ir::OwningOp module = bench.program.emit(ctx);
    transforms::runPipeline(module.get());
    wse::Simulator sim(wse::ArchParams::wse2(), 10, 10);
    interp::CslProgramInstance instance(sim, module.get());
    for (size_t f = 0; f < bench.program.numFields(); ++f) {
        int fi = static_cast<int>(f);
        auto init = bench.init;
        instance.setFieldInit(bench.program.fieldName(f),
                              [init, fi](int x, int y, int z) {
                                  return init(fi, x, y, z);
                              });
    }
    EXPECT_NO_THROW(instance.configure());
    size_t bytes = instance.memoryBytesUsed(5, 5);
    EXPECT_LE(bytes, 48u * 1024u);
    EXPECT_GT(bytes, 30u * 1024u); // the single-chunk layout is large
}

} // namespace
} // namespace wsc::test
