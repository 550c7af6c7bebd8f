#include <gtest/gtest.h>

#include <map>

#include "comms/star_comm.h"
#include "support/error.h"
#include "wse/simulator.h"

namespace wsc::test {
namespace {

using comms::Access;
using comms::StarComm;
using comms::StarCommConfig;
using wse::ArchParams;

/** Value stamped into PE (x, y)'s column at element z. */
float
stamp(int x, int y, int z)
{
    return static_cast<float>(1000 * x + 100 * y + z);
}

/**
 * Harness: every PE owns a stamped send column and a driver task that
 * starts one exchange; receive/done callbacks count activations.
 */
class StarCommTest : public ::testing::Test
{
  protected:
    void
    build(int w, int h, StarCommConfig config,
          ArchParams params = ArchParams::wse3())
    {
        sim = std::make_unique<wse::Simulator>(params, w, h);
        comm = std::make_unique<StarComm>(*sim, config);
        for (int x = 0; x < w; ++x) {
            for (int y = 0; y < h; ++y) {
                wse::Pe &pe = sim->pe(x, y);
                std::vector<float> &send = pe.allocBuffer(
                    "send", static_cast<size_t>(config.zSize));
                for (int64_t z = 0; z < config.zSize; ++z)
                    send[static_cast<size_t>(z)] =
                        stamp(x, y, static_cast<int>(z));
                pe.registerTask("driver", wse::TaskKind::Local,
                                [this](wse::TaskContext &ctx) {
                                    comm->exchange(ctx, "send", "recv",
                                                   "done");
                                });
                pe.registerTask(
                    "recv", wse::TaskKind::Local,
                    [this, x, y](wse::TaskContext &ctx) {
                        if (comm->config().perSectionCallbacks) {
                            auto [section, offset] =
                                comm->popCompletedSection(ctx.pe());
                            (void)section;
                            (void)offset;
                        } else {
                            offsets[{x, y}].push_back(
                                comm->popCompletedChunkOffset(ctx.pe()));
                        }
                        recvCount[{x, y}]++;
                    });
                pe.registerTask("done", wse::TaskKind::Local,
                                [this, x, y](wse::TaskContext &) {
                                    doneCount[{x, y}]++;
                                });
            }
        }
        comm->setup();
    }

    void
    runExchange()
    {
        for (int x = 0; x < sim->width(); ++x)
            for (int y = 0; y < sim->height(); ++y)
                sim->pe(x, y).activate("driver", 0);
        sim->run();
    }

    std::unique_ptr<wse::Simulator> sim;
    std::unique_ptr<StarComm> comm;
    std::map<std::pair<int, int>, int> recvCount;
    std::map<std::pair<int, int>, int> doneCount;
    std::map<std::pair<int, int>, std::vector<int64_t>> offsets;
};

StarCommConfig
fourNeighbourConfig(int64_t z, int64_t chunks = 1)
{
    StarCommConfig config;
    config.accesses = comms::canonicalAccessOrder(
        {{1, 0}, {-1, 0}, {0, -1}, {0, 1}});
    config.zSize = z;
    config.numChunks = chunks;
    return config;
}

TEST_F(StarCommTest, InteriorPeReceivesAllNeighbourColumns)
{
    build(3, 3, fourNeighbourConfig(8));
    runExchange();
    wse::Pe &pe = sim->pe(1, 1);
    std::vector<float> &recv = pe.buffer("recv_buffer");
    int64_t chunk = comm->chunkElems();
    for (size_t s = 0; s < 4; ++s) {
        const Access &a = comm->config().accesses[s];
        for (int64_t zIdx = 0; zIdx < chunk; ++zIdx) {
            EXPECT_EQ(recv[s * chunk + zIdx],
                      stamp(1 + a.dx, 1 + a.dy, static_cast<int>(zIdx)))
                << "section " << s << " z " << zIdx;
        }
    }
    EXPECT_EQ((recvCount[{1, 1}]), 1);
    EXPECT_EQ((doneCount[{1, 1}]), 1);
}

TEST_F(StarCommTest, BoundaryPeSkipsReceiveButFinishes)
{
    build(3, 3, fourNeighbourConfig(8));
    runExchange();
    EXPECT_EQ(comm->expectedSections(0, 0), 0);
    EXPECT_EQ((recvCount[{0, 0}]), 0);
    EXPECT_EQ((doneCount[{0, 0}]), 1);
    // Every PE finishes.
    for (int x = 0; x < 3; ++x)
        for (int y = 0; y < 3; ++y)
            EXPECT_EQ((doneCount[{x, y}]), 1);
}

TEST_F(StarCommTest, ChunkingSplitsCallbacks)
{
    build(3, 3, fourNeighbourConfig(8, /*chunks=*/2));
    runExchange();
    EXPECT_EQ((recvCount[{1, 1}]), 2);
    EXPECT_EQ((doneCount[{1, 1}]), 1);
    EXPECT_EQ((offsets[{1, 1}]), (std::vector<int64_t>{0, 4}));
    EXPECT_EQ(comm->chunkElems(), 4);
    // The landing buffer only holds one chunk per section.
    EXPECT_EQ(comm->recvBufferBytes(), 4 * 4 * 4);
}

TEST_F(StarCommTest, TrimsShortenTheStream)
{
    StarCommConfig config = fourNeighbourConfig(10);
    config.trimFirst = 2;
    config.trimLast = 2;
    build(3, 3, config);
    runExchange();
    EXPECT_EQ(comm->commElems(), 6);
    std::vector<float> &recv = sim->pe(1, 1).buffer("recv_buffer");
    // Section 0 is the east source (2, 1); its stream starts at z=2.
    EXPECT_EQ(recv[0], stamp(2, 1, 2));
    // Wavelet accounting shows the trimmed length.
    EXPECT_EQ(sim->stats().waveletsSent % 6, 0u);
}

TEST_F(StarCommTest, PromotedCoefficientsApplyWhileLanding)
{
    StarCommConfig config = fourNeighbourConfig(6);
    config.coeffs = {0.5, 0.5, 2.0, 2.0};
    build(3, 3, config);
    runExchange();
    std::vector<float> &recv = sim->pe(1, 1).buffer("recv_buffer");
    const Access &a0 = comm->config().accesses[0];
    EXPECT_FLOAT_EQ(recv[0], 0.5f * stamp(1 + a0.dx, 1 + a0.dy, 0));
}

TEST_F(StarCommTest, MultiDistanceStarDeliversPerDistance)
{
    StarCommConfig config;
    config.accesses = comms::canonicalAccessOrder(
        {{1, 0}, {2, 0}, {-1, 0}, {-2, 0}, {0, 1}, {0, 2}, {0, -1},
         {0, -2}});
    config.zSize = 6;
    build(5, 5, config);
    runExchange();
    wse::Pe &pe = sim->pe(2, 2);
    std::vector<float> &recv = pe.buffer("recv_buffer");
    int64_t chunk = comm->chunkElems();
    for (size_t s = 0; s < config.accesses.size(); ++s) {
        const Access &a = comm->config().accesses[s];
        EXPECT_EQ(recv[static_cast<int64_t>(s) * chunk],
                  stamp(2 + a.dx, 2 + a.dy, 0))
            << "section " << s;
    }
    EXPECT_EQ((doneCount[{2, 2}]), 1);
}

TEST_F(StarCommTest, AsymmetricPatternOnlySendsWhatIsAccessed)
{
    StarCommConfig config;
    config.accesses = {{1, 0}}; // only the east source
    config.zSize = 4;
    build(3, 1, config);
    runExchange();
    // Each eligible sender ships one 4-element stream one hop.
    // Receivers: (0,0) and (1,0) have an east source; (2,0) does not.
    EXPECT_EQ((recvCount[{0, 0}]), 1);
    EXPECT_EQ((recvCount[{1, 0}]), 1);
    EXPECT_EQ((recvCount[{2, 0}]), 0);
    EXPECT_EQ(sim->stats().waveletsSent, 8u);
}

TEST_F(StarCommTest, PerSectionCallbacksDoubleTaskTraffic)
{
    StarCommConfig perChunk = fourNeighbourConfig(8);
    build(3, 3, perChunk);
    runExchange();
    int chunkCallbacks = recvCount[{1, 1}];

    recvCount.clear();
    doneCount.clear();
    StarCommConfig perSection = fourNeighbourConfig(8);
    perSection.perSectionCallbacks = true;
    build(3, 3, perSection);
    runExchange();
    EXPECT_EQ((recvCount[{1, 1}]), 4);
    EXPECT_GT((recvCount[{1, 1}]), chunkCallbacks);
}

TEST_F(StarCommTest, BackToBackExchangesKeepEpochsSeparate)
{
    StarCommConfig config = fourNeighbourConfig(6);
    build(3, 3, config);
    // Drive two exchanges: the done callback of the first immediately
    // starts the second (continuation style).
    for (int x = 0; x < 3; ++x)
        for (int y = 0; y < 3; ++y) {
            wse::Pe &pe = sim->pe(x, y);
            pe.registerTask("driver2", wse::TaskKind::Local,
                            [this](wse::TaskContext &ctx) {
                                comm->exchange(ctx, "send", "recv",
                                               "done2");
                            });
            pe.registerTask("done2", wse::TaskKind::Local,
                            [this, x, y](wse::TaskContext &) {
                                doneCount[{x, y}] += 10;
                            });
        }
    for (int x = 0; x < 3; ++x)
        for (int y = 0; y < 3; ++y)
            sim->pe(x, y).activate("driver", 0);
    // Chain: when the first done fires, start the second exchange.
    // Re-register done by driving again after the first run completes.
    sim->run();
    for (int x = 0; x < 3; ++x)
        for (int y = 0; y < 3; ++y)
            sim->pe(x, y).activate("driver2", sim->now());
    sim->run();
    EXPECT_EQ((doneCount[{1, 1}]), 1 + 10);
    EXPECT_EQ((recvCount[{1, 1}]), 2);
}

TEST_F(StarCommTest, OverlappingExchangeOnSameSiteIsRejected)
{
    build(3, 3, fourNeighbourConfig(6));
    wse::Pe &pe = sim->pe(1, 1);
    pe.registerTask("bad", wse::TaskKind::Local,
                    [this](wse::TaskContext &ctx) {
                        comm->exchange(ctx, "send", "recv", "done");
                        comm->exchange(ctx, "send", "recv", "done");
                    });
    pe.activate("bad", 0);
    EXPECT_THROW(sim->run(), PanicError);
}

TEST_F(StarCommTest, AccessesMustBeCanonical)
{
    StarCommConfig config;
    config.accesses = {{0, 1}, {1, 0}}; // wrong order (S before E)
    config.zSize = 4;
    wse::Simulator s(ArchParams::wse3(), 2, 2);
    EXPECT_THROW(StarComm(s, config), PanicError);
}

TEST_F(StarCommTest, RoutersAreConfiguredForAllTravelDirections)
{
    build(3, 3, fourNeighbourConfig(6));
    // Routes do not depend on the PE: corners carry the same colors.
    for (auto [x, y] : {std::pair{1, 1}, std::pair{0, 0}, std::pair{2, 0},
                        std::pair{0, 2}, std::pair{2, 2}}) {
        const wse::Router &router = comm->router(x, y);
        for (int c = 0; c < 4; ++c)
            EXPECT_TRUE(router.hasRoute(static_cast<wse::Color>(c)))
                << "PE (" << x << ", " << y << ") color " << c;
    }
    EXPECT_THROW(comm->router(3, 0), PanicError);
    EXPECT_THROW(comm->router(0, -1), PanicError);
}

TEST_F(StarCommTest, Wse2ExchangeTakesLongerThanWse3)
{
    build(3, 3, fourNeighbourConfig(64), ArchParams::wse3());
    runExchange();
    wse::Cycles wse3End = sim->now();

    recvCount.clear();
    doneCount.clear();
    build(3, 3, fourNeighbourConfig(64), ArchParams::wse2());
    runExchange();
    wse::Cycles wse2End = sim->now();
    EXPECT_GT(wse2End, wse3End);
}

} // namespace
} // namespace wsc::test
