/**
 * @file
 * The dense-handle simulator core. SimStats equivalence of the compiled
 * interpreter against the reference evaluator under the handle-based
 * Pe/StarComm/fabric paths, Pe handle semantics (id resolution,
 * unknown-name errors, buffer free/realloc reuse), grid-wide handles
 * (one name table per simulator, frozen during runs), host data
 * transfer at configure (one field evaluation per PE), the
 * calendar event queue's ordering (against a reference key set on
 * seeded random schedules) and callback fallback behaviour, and the
 * worklist driver's per-pattern counters.
 */

#include "test_helpers.h"

#include <array>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <tuple>

#include "ir/pattern.h"

namespace wsc::test {
namespace {

namespace ar = dialects::arith;
namespace bt = dialects::builtin;

//===----------------------------------------------------------------------===
// SimStats equivalence: compiled vs reference under dense handles
//===----------------------------------------------------------------------===

/**
 * Runs `bench` end to end in both interpreter modes and asserts the
 * aggregate SimStats (events, wavelets, activations, DSD ops, flops,
 * memory traffic) and the final cycle count are identical — the
 * dense-handle core must not change what is simulated, only how fast
 * the simulation runs.
 */
void
expectStatsEquivalence(fe::Benchmark &bench, int nx, int ny)
{
    ir::Context ctx;
    dialects::registerAllDialects(ctx);
    ir::OwningOp module = bench.program.emit(ctx);
    transforms::runPipeline(module.get());

    struct Run
    {
        wse::Cycles finalCycle = 0;
        wse::SimStats stats;
    };
    auto runOnce = [&](bool reference) {
        wse::Simulator sim(wse::ArchParams::wse3(), nx, ny);
        interp::CslProgramInstance instance(sim, module.get());
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
        Run run;
        run.finalCycle = sim.run(4000000000ULL);
        run.stats = sim.stats();
        return run;
    };

    Run compiled = runOnce(false);
    Run reference = runOnce(true);

    EXPECT_EQ(compiled.finalCycle, reference.finalCycle);
    EXPECT_EQ(compiled.stats.eventsProcessed,
              reference.stats.eventsProcessed);
    EXPECT_EQ(compiled.stats.waveletsSent, reference.stats.waveletsSent);
    EXPECT_EQ(compiled.stats.taskActivations,
              reference.stats.taskActivations);
    EXPECT_EQ(compiled.stats.dsdOps, reference.stats.dsdOps);
    EXPECT_EQ(compiled.stats.flops, reference.stats.flops);
    EXPECT_EQ(compiled.stats.memBytes, reference.stats.memBytes);
}

TEST(DenseHandleEquivalence, SeismicStatsMatchReference)
{
    fe::Benchmark bench = fe::makeSeismic(8, 8, 3, 20);
    expectStatsEquivalence(bench, 8, 8);
}

TEST(DenseHandleEquivalence, DiffusionStatsMatchReference)
{
    fe::Benchmark bench = fe::makeDiffusion(7, 7, 4, 16);
    expectStatsEquivalence(bench, 7, 7);
}

//===----------------------------------------------------------------------===
// Pe handle semantics
//===----------------------------------------------------------------------===

class PeHandleTest : public ::testing::Test
{
  protected:
    PeHandleTest() : sim(wse::ArchParams::wse3(), 1, 1) {}

    wse::Simulator sim;
};

TEST_F(PeHandleTest, TaskIdResolution)
{
    wse::Pe &pe = sim.pe(0, 0);
    int fired = 0;
    wse::TaskId id = pe.registerTask("t", wse::TaskKind::Local,
                                     [&](wse::TaskContext &) { fired++; });
    EXPECT_TRUE(id.valid());
    EXPECT_EQ(pe.taskId("t"), id);
    EXPECT_EQ(pe.findTask("t"), id);
    EXPECT_TRUE(pe.hasTask("t"));
    EXPECT_FALSE(pe.findTask("ghost").valid());
    EXPECT_FALSE(pe.hasTask("ghost"));

    pe.activate(id, 0);
    sim.run();
    EXPECT_EQ(fired, 1);
}

TEST_F(PeHandleTest, UnknownNamesPanic)
{
    wse::Pe &pe = sim.pe(0, 0);
    EXPECT_THROW(pe.taskId("ghost"), PanicError);
    EXPECT_THROW(pe.activate("ghost", 0), PanicError);
    EXPECT_THROW(pe.bufferId("nope"), PanicError);
    EXPECT_THROW(pe.buffer("nope"), PanicError);
    EXPECT_THROW(pe.freeBuffer("nope"), PanicError);
    EXPECT_THROW(pe.activate(wse::TaskId{}, 0), PanicError);
    EXPECT_THROW(pe.buffer(wse::BufferId{}), PanicError);
}

TEST_F(PeHandleTest, BufferIdResolutionAndAliasing)
{
    wse::Pe &pe = sim.pe(0, 0);
    wse::BufferId a = pe.allocBufferId("a", 100);
    EXPECT_TRUE(a.valid());
    EXPECT_EQ(pe.bufferId("a"), a);
    EXPECT_EQ(pe.findBuffer("a"), a);
    EXPECT_EQ(&pe.buffer(a), &pe.buffer("a"));
    EXPECT_EQ(pe.bufferName(a), "a");
    EXPECT_EQ(pe.buffer(a).size(), 100u);
    EXPECT_EQ(pe.memoryBytesUsed(), 400u);
    // Double allocation of a live name is an error.
    EXPECT_THROW(pe.allocBufferId("a", 10), PanicError);
}

TEST_F(PeHandleTest, BufferFreeReallocReusesHandle)
{
    wse::Pe &pe = sim.pe(0, 0);
    wse::BufferId a = pe.allocBufferId("a", 100);
    pe.buffer(a)[0] = 42.0f;
    pe.freeBuffer(a);
    EXPECT_FALSE(pe.hasBuffer("a"));
    EXPECT_EQ(pe.memoryBytesUsed(), 0u);
    EXPECT_THROW(pe.buffer(a), PanicError); // Stale handle use.
    EXPECT_THROW(pe.bufferId("a"), PanicError);

    // Re-allocation reuses the slot: same handle, fresh zeroed contents.
    wse::BufferId again = pe.allocBufferId("a", 50);
    EXPECT_EQ(again, a);
    EXPECT_TRUE(pe.hasBuffer("a"));
    EXPECT_EQ(pe.buffer(a).size(), 50u);
    EXPECT_EQ(pe.buffer(a)[0], 0.0f);
    EXPECT_EQ(pe.memoryBytesUsed(), 200u);

    // Other buffers keep their handles across the free/realloc cycle.
    wse::BufferId b = pe.allocBufferId("b", 10);
    EXPECT_NE(b, a);
    EXPECT_EQ(pe.bufferId("b"), b);
}

TEST_F(PeHandleTest, ScalarIdInterning)
{
    wse::Pe &pe = sim.pe(0, 0);
    EXPECT_FALSE(pe.hasScalar("x"));
    EXPECT_FALSE(pe.findScalar("x").valid());
    wse::ScalarId x = pe.scalarId("x");
    EXPECT_TRUE(x.valid());
    EXPECT_TRUE(pe.hasScalar("x"));
    EXPECT_EQ(pe.scalarId("x"), x); // Idempotent interning.
    EXPECT_EQ(pe.findScalar("x"), x);
    pe.scalar(x) = 7.0;
    EXPECT_EQ(pe.scalar("x"), 7.0);
    wse::ScalarId y = pe.scalarId("y");
    EXPECT_NE(y, x);
    EXPECT_EQ(pe.scalar(y), 0.0);
}

//===----------------------------------------------------------------------===
// Grid-wide handles: one name table per simulator
//===----------------------------------------------------------------------===

class GridHandleTest : public ::testing::Test
{
  protected:
    GridHandleTest() : sim(wse::ArchParams::wse3(), 3, 3) {}

    wse::Simulator sim;
};

TEST_F(GridHandleTest, SameNameSameHandleOnEveryPe)
{
    wse::TaskId task = sim.pe(0, 0).registerTask(
        "t", wse::TaskKind::Local, [](wse::TaskContext &) {});
    wse::BufferId buf = sim.pe(0, 0).allocBufferId("buf", 4);
    wse::ScalarId scalar = sim.pe(0, 0).scalarId("s");
    for (int x = 0; x < 3; ++x)
        for (int y = 0; y < 3; ++y) {
            if (x == 0 && y == 0)
                continue;
            wse::Pe &pe = sim.pe(x, y);
            EXPECT_EQ(pe.registerTask("t", wse::TaskKind::Local,
                                      [](wse::TaskContext &) {}),
                      task);
            EXPECT_EQ(pe.allocBufferId("buf", 4), buf);
            EXPECT_EQ(pe.scalarId("s"), scalar);
        }
    EXPECT_EQ(sim.taskNames().intern("t"), task);
    EXPECT_EQ(sim.bufferNames().intern("buf"), buf);
    EXPECT_EQ(sim.scalarNames().intern("s"), scalar);
    EXPECT_EQ(sim.taskNames().size(), 1u);
    EXPECT_EQ(sim.bufferNames().size(), 1u);
    EXPECT_EQ(sim.scalarNames().size(), 1u);
}

TEST_F(GridHandleTest, TaskOnOnePeIsAbsentOnTheOthers)
{
    int fired = 0;
    wse::TaskId id = sim.pe(1, 1).registerTask(
        "only", wse::TaskKind::Local, [&](wse::TaskContext &) { fired++; });
    for (int x = 0; x < 3; ++x)
        for (int y = 0; y < 3; ++y) {
            wse::Pe &pe = sim.pe(x, y);
            bool owner = x == 1 && y == 1;
            EXPECT_EQ(pe.hasTask("only"), owner);
            if (owner) {
                EXPECT_EQ(pe.taskId("only"), id);
            } else {
                EXPECT_FALSE(pe.findTask("only").valid());
                EXPECT_THROW(pe.taskId("only"), PanicError);
                // The grid-wide handle does not activate a task this PE
                // never registered.
                EXPECT_THROW(pe.activate(id, 0), PanicError);
            }
        }
    sim.pe(1, 1).activate(id, 0);
    sim.run();
    EXPECT_EQ(fired, 1);
}

TEST_F(GridHandleTest, FreeReallocKeepsTheHandle)
{
    wse::BufferId a = sim.pe(0, 0).allocBufferId("a", 8);
    wse::BufferId b = sim.pe(2, 2).allocBufferId("b", 8);
    wse::BufferId a22 = sim.pe(2, 2).allocBufferId("a", 8);
    EXPECT_EQ(a22, a);
    EXPECT_NE(b, a);
    // Other PEs never allocated `b`: the name is known, the buffer not.
    EXPECT_FALSE(sim.pe(0, 0).hasBuffer("b"));
    EXPECT_EQ(sim.pe(0, 0).liveBuffer(b), nullptr);
    EXPECT_THROW(sim.pe(0, 0).buffer(b), PanicError);

    sim.pe(2, 2).freeBuffer(a);
    EXPECT_FALSE(sim.pe(2, 2).hasBuffer("a"));
    EXPECT_TRUE(sim.pe(0, 0).hasBuffer("a")); // Freed on one PE only.
    EXPECT_EQ(sim.pe(2, 2).allocBufferId("a", 4), a);
    EXPECT_EQ(sim.pe(2, 2).buffer(a).size(), 4u);
    EXPECT_EQ(sim.pe(2, 2).bufferId("b"), b);
}

TEST(GridHandles, InterningDuringAShardedRunPanics)
{
    wse::SimOptions options;
    options.threads = 4;
    wse::Simulator sim(wse::ArchParams::wse3(), 3, 3, options);
    ASSERT_GT(sim.shardCount(), 1);
    sim.pe(0, 0).scalarId("known");
    for (int x = 0; x < 3; ++x)
        for (int y = 0; y < 3; ++y)
            sim.pe(x, y).registerTask(
                "t", wse::TaskKind::Local, [x, y](wse::TaskContext &ctx) {
                    // Known names still resolve during the run.
                    ctx.pe().scalarId("known");
                    if (x == 2 && y == 1)
                        ctx.pe().scalarId("fresh");
                });
    for (int x = 0; x < 3; ++x)
        for (int y = 0; y < 3; ++y)
            sim.pe(x, y).activate("t", 0);
    EXPECT_THROW(sim.run(), PanicError);
    EXPECT_FALSE(sim.running());
    EXPECT_FALSE(sim.scalarNames().find("fresh").valid());
    // Between runs the tables accept new names again.
    EXPECT_TRUE(sim.scalarNames().intern("fresh").valid());
}

TEST(GridHandles, RegisteringATaskDuringARunPanics)
{
    // Even a name already interned elsewhere: a PE's task table must
    // not grow under the task that is executing.
    wse::Simulator sim(wse::ArchParams::wse3(), 2, 1);
    sim.pe(1, 0).registerTask("late", wse::TaskKind::Local,
                              [](wse::TaskContext &) {});
    wse::Pe &pe = sim.pe(0, 0);
    pe.registerTask("t", wse::TaskKind::Local, [](wse::TaskContext &ctx) {
        ctx.pe().registerTask("late", wse::TaskKind::Local,
                              [](wse::TaskContext &) {});
    });
    pe.activate("t", 0);
    EXPECT_THROW(sim.run(), PanicError);
    EXPECT_FALSE(pe.hasTask("late"));
}

//===----------------------------------------------------------------------===
// Host data transfer at configure()
//===----------------------------------------------------------------------===

TEST(HostDataTransfer, FieldColumnsEvaluatedOncePerPeAndCopied)
{
    const int n = 7;
    const int64_t nz = 12;
    fe::Benchmark bench = fe::makeAcoustic(n, n, 2, nz);
    ir::Context ctx;
    dialects::registerAllDialects(ctx);
    ir::OwningOp module = bench.program.emit(ctx);
    transforms::runPipeline(module.get());

    wse::Simulator sim(wse::ArchParams::wse3(), n, n);
    interp::CslProgramInstance instance(sim, module.get());
    // calls[(x, y, field, z)] counts FieldInitFn invocations.
    std::map<std::tuple<int, int, int, int>, int> calls;
    ASSERT_EQ(bench.program.fieldName(0), "u");
    ASSERT_EQ(bench.program.fieldName(1), "u_prev");
    for (int f = 0; f < 2; ++f)
        instance.setFieldInit(bench.program.fieldName(f),
                              [&calls, f, init = bench.init](
                                  int x, int y, int z) {
                                  calls[{x, y, f, z}]++;
                                  return init(f, x, y, z);
                              });
    instance.configure();

    for (const auto &[key, count] : calls)
        EXPECT_EQ(count, 1) << "PE (" << std::get<0>(key) << ", "
                            << std::get<1>(key) << ") field "
                            << std::get<2>(key) << " z "
                            << std::get<3>(key);

    auto expectColumn = [&](int x, int y, const std::string &buffer,
                            int field) {
        const std::vector<float> &data = sim.pe(x, y).buffer(buffer);
        ASSERT_GE(data.size(), static_cast<size_t>(nz));
        for (size_t z = 0; z < data.size(); ++z) {
            EXPECT_EQ(data[z], bench.init(field, x, y, static_cast<int>(z)))
                << buffer << " on PE (" << x << ", " << y << ") z " << z;
            EXPECT_EQ((calls[{x, y, field, static_cast<int>(z)}]), 1);
        }
    };
    const comms::StarComm &site = *instance.commSites().at(0);
    ASSERT_GT(site.expectedSections(n / 2, n / 2), 0);
    ASSERT_EQ(site.expectedSections(0, 0), 0);
    // Interior PE: each buffer from its own field; out0 from u.
    expectColumn(n / 2, n / 2, "u", 0);
    expectColumn(n / 2, n / 2, "u_prev", 1);
    expectColumn(n / 2, n / 2, "out0", 0);
    // Boundary PE: every rotation buffer carries u, and u_prev's field
    // is never evaluated there.
    for (const char *buffer : {"u", "u_prev", "out0"})
        expectColumn(0, 0, buffer, 0);
    EXPECT_EQ((calls.count({0, 0, 1, 0})), 0u);
}

//===----------------------------------------------------------------------===
// Event queue: ordering and callback storage
//===----------------------------------------------------------------------===

TEST(EventQueue, ManySameCycleEventsRunFifo)
{
    wse::Simulator sim(wse::ArchParams::wse3(), 1, 1);
    std::vector<int> order;
    for (int i = 0; i < 100; ++i)
        sim.schedule(5, [&order, i] { order.push_back(i); });
    sim.run();
    ASSERT_EQ(order.size(), 100u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, InterleavedSchedulingKeepsCycleOrder)
{
    // Events scheduled from inside events, with recycled callback
    // slots, still run in (cycle, sequence) order.
    wse::Simulator sim(wse::ArchParams::wse3(), 1, 1);
    std::vector<wse::Cycles> at;
    for (int i = 0; i < 10; ++i)
        sim.schedule(static_cast<wse::Cycles>(10 * i), [&, i] {
            at.push_back(sim.now());
            sim.schedule(sim.now() + 5,
                         [&] { at.push_back(sim.now()); });
        });
    sim.run();
    ASSERT_EQ(at.size(), 20u);
    for (size_t i = 1; i < at.size(); ++i)
        EXPECT_LE(at[i - 1], at[i]);
    EXPECT_EQ(sim.stats().eventsProcessed, 20u);
}

TEST(EventQueue, OversizedCallbacksFallBackToHeap)
{
    // Captures beyond EventCallback::kInlineSize take the (single
    // allocation) heap path but behave identically.
    wse::Simulator sim(wse::ArchParams::wse3(), 1, 1);
    std::array<uint64_t, 32> big{}; // 256 bytes, > kInlineSize
    for (size_t i = 0; i < big.size(); ++i)
        big[i] = i + 1;
    uint64_t sum = 0;
    sim.schedule(1, [big, &sum] {
        for (uint64_t v : big)
            sum += v;
    });
    sim.run();
    EXPECT_EQ(sum, 32u * 33u / 2);
    static_assert(sizeof(std::array<uint64_t, 32>) >
                  wse::EventCallback::kInlineSize);
}

TEST(EventQueue, CallbacksReleaseCapturedState)
{
    // Slot recycling must destroy the moved-out callback after it runs:
    // a shared_ptr captured by an executed event does not linger.
    wse::Simulator sim(wse::ArchParams::wse3(), 1, 1);
    auto token = std::make_shared<int>(7);
    sim.schedule(1, [token] {});
    EXPECT_EQ(token.use_count(), 2);
    sim.run();
    EXPECT_EQ(token.use_count(), 1);
}

/**
 * A seeded random schedule driven through Simulator::scheduleOnPe on a
 * single shard, checked event by event against a reference ordered set
 * of (at, ownerCreator, seq) keys. On one shard every creation draws the
 * next number from one counter, so the model mirrors `seq` exactly.
 * Delays mix pushes into the cycle currently draining, the ring span
 * and cycles far beyond it.
 */
class QueueOrderModel
{
  public:
    using Key = std::tuple<wse::Cycles, uint64_t, uint64_t>;

    QueueOrderModel(wse::Simulator &sim, uint64_t seed, uint64_t maxCreated)
        : sim_(sim), rng_(seed), maxCreated_(maxCreated)
    {
    }

    /** Schedule one event for a random PE from the current context. */
    void
    scheduleRandom(wse::Cycles now)
    {
        const uint32_t numPes = sim_.hostId();
        const uint32_t owner = static_cast<uint32_t>(rng_() % numPes);
        wse::Shard *from = sim_.currentShard();
        const uint32_t creator = from ? executingOwner_ : sim_.hostId();
        const Key key{now + randomDelay(),
                      (static_cast<uint64_t>(owner) << 32) | creator,
                      nextSeq_++};
        pending_.insert(key);
        created_++;
        sim_.scheduleOnPe(owner, std::get<0>(key),
                          [this, key] { execute(key); }, from);
    }

    uint64_t created() const { return created_; }
    uint64_t executed() const { return executed_; }
    size_t pending() const { return pending_.size(); }
    /** First out-of-order event, empty while none was seen. */
    const std::string &mismatch() const { return mismatch_; }

  private:
    wse::Cycles
    randomDelay()
    {
        const wse::Cycles ring = wse::EventQueue::kRingCycles;
        switch (rng_() % 10) {
        case 0:
        case 1:
            return 0; // into the cycle currently draining
        case 2:
            return ring + rng_() % (3 * ring); // beyond the ring
        case 3:
            return 64 + rng_() % (ring - 64);
        default:
            return 1 + rng_() % 63;
        }
    }

    void
    execute(const Key &key)
    {
        executed_++;
        if (mismatch_.empty() && (pending_.empty() ||
                                  *pending_.begin() != key ||
                                  sim_.now() != std::get<0>(key))) {
            std::ostringstream os;
            os << "event #" << executed_ << " (at=" << std::get<0>(key)
               << ", ownerCreator=" << std::get<1>(key)
               << ", seq=" << std::get<2>(key) << ") ran at cycle "
               << sim_.now() << "; the reference expected ";
            if (pending_.empty())
                os << "nothing";
            else
                os << "(at=" << std::get<0>(*pending_.begin())
                   << ", ownerCreator=" << std::get<1>(*pending_.begin())
                   << ", seq=" << std::get<2>(*pending_.begin()) << ")";
            mismatch_ = os.str();
        }
        pending_.erase(key);
        executingOwner_ = static_cast<uint32_t>(std::get<1>(key) >> 32);
        // Zero to three children (mean ~1.1) until the creation cap.
        const uint64_t children = rng_() % 9 / 2 % 4;
        for (uint64_t i = 0; i < children && created_ < maxCreated_; ++i)
            scheduleRandom(sim_.now());
    }

    wse::Simulator &sim_;
    std::mt19937_64 rng_;
    uint64_t maxCreated_;
    std::set<Key> pending_;
    uint64_t nextSeq_ = 0;
    uint64_t created_ = 0;
    uint64_t executed_ = 0;
    uint32_t executingOwner_ = 0;
    std::string mismatch_;
};

TEST(EventQueue, RandomSchedulesPopInReferenceKeyOrder)
{
    for (uint64_t seed : {1u, 2u, 3u, 4u}) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed);
        wse::Simulator sim(wse::ArchParams::wse3(), 8, 8);
        ASSERT_EQ(sim.shardCount(), 1);
        QueueOrderModel model(sim, seed, 40000);
        for (int i = 0; i < 3000; ++i)
            model.scheduleRandom(0);

        // A queue invariant panic (checked in debug and sanitizer
        // builds) fails the test under the seed's trace.
        auto run = [&sim](uint64_t budget) {
            try {
                return sim.runWithReport(budget).outcome;
            } catch (const std::exception &e) {
                ADD_FAILURE() << e.what();
                return wse::SimOutcome::Deadlock;
            }
        };
        // Stop on the event budget, most likely mid-cycle, then add host
        // events at the stopped cycle and beyond before resuming.
        ASSERT_EQ(run(9000), wse::SimOutcome::EventBudgetExceeded);
        EXPECT_EQ(model.executed(), 9000u);
        for (int i = 0; i < 200; ++i)
            model.scheduleRandom(sim.now());

        EXPECT_EQ(run(UINT64_MAX), wse::SimOutcome::Completed);
        EXPECT_EQ(model.mismatch(), "");
        EXPECT_EQ(model.pending(), 0u);
        EXPECT_EQ(model.executed(), model.created());
        EXPECT_EQ(sim.stats().eventsProcessed, model.created());
        EXPECT_GT(model.created(), 30000u);
    }
}

//===----------------------------------------------------------------------===
// Worklist driver pattern counters
//===----------------------------------------------------------------------===

TEST_F(IrTest, PatternCountersTrackHitsAndMisses)
{
    ir::resetPatternStats();

    ir::OwningOp module = bt::createModule(ctx);
    ir::OpBuilder b(ctx);
    b.setInsertionPointToEnd(bt::moduleBody(module.get()));
    ir::Value c = ar::createConstantF32(b, 1.0);
    ar::createAddF(b, c, c);
    ar::createAddF(b, c, c);

    std::vector<ir::NamedPattern> patterns = {
        {"drop-dead-adds", [](ir::Operation *op, ir::OpBuilder &) {
             if (op->name() != "arith.addf" || op->hasResultUses())
                 return false;
             op->erase();
             return true;
         }},
    };
    EXPECT_TRUE(ir::applyPatternsGreedily(module.get(), patterns));

    const auto &stats = ir::patternStats();
    ASSERT_EQ(stats.count("drop-dead-adds"), 1u);
    const ir::PatternStat &s = stats.at("drop-dead-adds");
    EXPECT_EQ(s.hits, 2u);   // Both dead adds were erased.
    EXPECT_GE(s.misses, 1u); // At least the constant did not match.

    std::ostringstream os;
    ir::dumpPatternStats(os);
    EXPECT_NE(os.str().find("drop-dead-adds: 2 hits"),
              std::string::npos);

    ir::resetPatternStats();
    EXPECT_TRUE(ir::patternStats().empty());
}

TEST_F(IrTest, PatternCountersSurviveNonConvergencePanic)
{
    // The counters exist to debug diverging patterns, so the
    // non-convergence panic must not discard the run's counts.
    ir::resetPatternStats();
    ir::OwningOp module = bt::createModule(ctx);
    ir::OpBuilder b(ctx);
    b.setInsertionPointToEnd(bt::moduleBody(module.get()));
    ar::createConstantF32(b, 1.0);
    std::vector<ir::NamedPattern> patterns = {
        {"flip-flop", [](ir::Operation *op, ir::OpBuilder &) {
             return op->name() == "arith.constant";
         }},
    };
    EXPECT_THROW(ir::applyPatternsGreedily(module.get(), patterns, 16),
                 PanicError);
    ASSERT_EQ(ir::patternStats().count("flip-flop"), 1u);
    EXPECT_EQ(ir::patternStats().at("flip-flop").hits, 16u);
    ir::resetPatternStats();
}

TEST_F(IrTest, PatternCountersAccumulateAcrossRuns)
{
    ir::resetPatternStats();
    for (int round = 0; round < 2; ++round) {
        ir::OwningOp module = bt::createModule(ctx);
        ir::OpBuilder b(ctx);
        b.setInsertionPointToEnd(bt::moduleBody(module.get()));
        ar::createConstantF32(b, 1.0);
        std::vector<ir::NamedPattern> patterns = {
            {"never-matches",
             [](ir::Operation *, ir::OpBuilder &) { return false; }},
        };
        ir::applyPatternsGreedily(module.get(), patterns);
    }
    EXPECT_EQ(ir::patternStats().at("never-matches").misses, 2u);
    ir::resetPatternStats();
}

} // namespace
} // namespace wsc::test
