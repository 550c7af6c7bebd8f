/**
 * @file
 * Event-driven simulator for a (sub-)grid of WSE processing elements,
 * shardable across threads.
 *
 * The PE grid is partitioned into rows x cols rectangular shard tiles
 * (SimOptions::shardGrid, auto-derived from SimOptions::threads when
 * unset; a single shard runs the classic sequential loop). Each shard
 * owns its own calendar event queue (EventQueue), callback slot pool,
 * payload ring and statistics, so the hot schedule/dispatch paths are
 * entirely shard-local and lock-free.
 *
 * Parallel execution uses conservative lock-step windows: every event
 * that crosses a tile boundary (a fabric stream segment handed to the
 * E/W/N/S neighbour tile) carries at least the fabric hop latency, so
 * all shards can safely execute the window [globalMin, globalMin +
 * hopCycles) in parallel. Cross-shard events travel through per-pair
 * SPSC outboxes that are drained into the target queues at the window
 * barrier (the barrier itself provides the memory synchronisation, so
 * the mailboxes are plain vectors); the drain asserts that no mail lands
 * inside the window that just closed.
 *
 * Shards are dealt statically to workers: worker w executes the
 * shard-windows of shards w, w + threads, w + 2 * threads, ..., skipping
 * shards with nothing due in the window. Shard-windows are mutually
 * independent, so the shard count may exceed the worker count without
 * changing any result.
 *
 * Determinism: events are ordered by (cycle, owner PE, creator PE,
 * per-creator sequence). The owner is the PE whose state the event
 * mutates (all mutable simulator state is owner-partitioned), the
 * creator is the PE whose event scheduled it, and the sequence numbers
 * each creator's creations. This key is independent of thread
 * interleaving and of the tiling, so a threads=N run under any
 * shardGrid is cycle-identical and SimStats-identical to the threads=1
 * run — pinned by the `sharded` test suite and the golden
 * cycle counts.
 *
 * Task, buffer and scalar names are interned in grid-wide tables owned
 * here (taskNames / bufferNames / scalarNames), so a name has the
 * same handle on every PE. The tables are written only between runs;
 * interning a new name during a run panics, so shard workers only read
 * them.
 *
 * The schedule/run path allocates nothing in steady state for
 * inline-sized callbacks: an event is a POD key appended to a recycled
 * queue bucket, and its callback lives in a small-buffer EventCallback
 * slot recycled through a free list.
 *
 * Timing model (documented in DESIGN.md §4): each PE has a single work
 * timeline on which task execution, DSD compute and ramp data transfers
 * serialize — justified by the shared memory ports (128-bit read + 64-bit
 * write per cycle) that all of these contend for. Transfers between PEs
 * proceed concurrently across the fabric.
 */

#ifndef WSC_WSE_SIMULATOR_H
#define WSC_WSE_SIMULATOR_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "wse/arch_params.h"
#include "wse/fabric.h"
#include "wse/fault.h"
#include "wse/payload.h"
#include "wse/pe.h"

namespace wsc::wse {

/** Aggregate statistics across a simulation. */
struct SimStats
{
    uint64_t eventsProcessed = 0;
    uint64_t waveletsSent = 0;
    uint64_t taskActivations = 0;
    uint64_t dsdOps = 0;
    uint64_t flops = 0;
    /** Local-memory traffic of DSD ops (reads + writes). */
    uint64_t memBytes = 0;

    bool operator==(const SimStats &) const = default;
};

/**
 * Shard tiling of the PE grid: rows horizontal bands x cols vertical
 * bands of balanced contiguous extents. {0, 0} (the default) derives a
 * near-square tiling from SimOptions::threads. rows=1 reproduces the
 * classic 1-D column strips.
 */
struct ShardGrid
{
    int rows = 0;
    int cols = 0;
};

/** Execution options of one Simulator instance. */
struct SimOptions
{
    /**
     * Worker threads. 1 with an unset shardGrid (the default) runs the
     * exact sequential path; higher values run lock-step conservative
     * windows with identical (cycle- and stats-identical) results.
     * Clamped to the shard count — shards are the unit of parallelism.
     */
    int threads = 1;

    /** Faults to inject (wse/fault.h). Empty injects nothing and keeps
     *  the run bit-identical to a simulator without this member. */
    FaultPlan faults;

    /**
     * StarComm watchdog: cycles an exchange may sit incomplete before
     * its timeout fires. 0 (the default) disables the watchdog — a
     * neighbour halted mid-exchange then deadlocks the dependent PEs
     * (diagnosed, not hung). Non-zero arms bounded retry/backoff ending
     * in a degraded (zero-filled) exchange.
     */
    Cycles exchangeTimeoutCycles = 0;

    /** Deadline extensions (each doubling the wait) before an
     *  incomplete exchange degrades. */
    int exchangeMaxRetries = 2;

    /**
     * 2-D shard tiling (rows x cols tiles). Unset {0, 0} auto-derives
     * the most-square tiling with `threads` tiles that fits the grid;
     * explicit values are clamped to the grid extents. Any tiling
     * produces bit-identical results — this knob only moves the
     * parallelism/boundary-traffic trade-off.
     */
    ShardGrid shardGrid;
};

/**
 * Scheduler-level counters of the most recent run (merged across
 * shards by Simulator::telemetry()). These describe HOW the run was
 * executed — windows, allocation behaviour — never WHAT it
 * computed; every field may vary with threads/tiling while the
 * simulation results stay bit-identical.
 */
struct ShardingTelemetry
{
    /** Barrier windows executed (0 for the sequential path). */
    uint64_t windows = 0;
    /** Sum of window lengths in cycles (always windows * hopCycles). */
    Cycles windowCycles = 0;
    /** Shard-windows executed (shards with events due in a window). */
    uint64_t shardWindowsRun = 0;
    /** Always 0: shards are dealt statically, nothing is stolen. Kept so
     *  existing readers of the telemetry stay source-compatible. */
    uint64_t steals = 0;
    /** Cross-shard outbox lane growths (capacity reallocations). Steady
     *  state is 0: lanes are cleared, never shrunk, between windows. */
    uint64_t outboxReallocs = 0;
};

/**
 * Everything a caller can observe about one finished run; returned by
 * Simulator::runWithReport() and kept in Simulator::report().
 */
struct SimReport
{
    SimOutcome outcome = SimOutcome::Completed;
    Cycles finalCycle = 0;
    SimStats stats;
    FaultStats faults;
    /** Dense PE ids halted within the run (sorted). */
    std::vector<uint32_t> haltedPes;
    /** Dense PE ids that finished with a degraded (zero-filled)
     *  exchange (sorted, deduplicated). */
    std::vector<uint32_t> degradedPes;
    /** Populated whenever outcome != Completed. */
    SimDiagnosis diagnosis;

    /** True when every non-faulted PE ran to completion. */
    bool
    ok() const
    {
        return outcome == SimOutcome::Completed ||
               outcome == SimOutcome::Degraded;
    }
};

/**
 * A move-only callable with inline small-buffer storage. Callables up to
 * kInlineSize bytes are stored in place (no heap allocation on the
 * schedule path); larger ones fall back to a single heap allocation.
 * Dispatch goes through a static per-type ops table (tagged dispatch
 * without per-instance virtual objects).
 */
class EventCallback
{
  public:
    /** Sized to hold every simulator-internal callback inline (the
     *  largest is a fabric stream segment / delivery record). */
    static constexpr size_t kInlineSize = 64;

    EventCallback() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, EventCallback>>>
    EventCallback(F &&fn) // NOLINT: implicit by design (schedule sites)
    {
        using Fn = std::decay_t<F>;
        // The nothrow-move requirement keeps slot-pool relocation (a
        // noexcept path) safe; throwing-move callables go to the heap.
        if constexpr (sizeof(Fn) <= kInlineSize &&
                      alignof(Fn) <= alignof(std::max_align_t) &&
                      std::is_nothrow_move_constructible_v<Fn>) {
            new (storage_) Fn(std::forward<F>(fn));
            ops_ = &InlineOps<Fn>::ops;
        } else {
            new (storage_) Fn *(new Fn(std::forward<F>(fn)));
            ops_ = &HeapOps<Fn>::ops;
        }
    }

    EventCallback(EventCallback &&other) noexcept { moveFrom(other); }

    EventCallback &
    operator=(EventCallback &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    EventCallback(const EventCallback &) = delete;
    EventCallback &operator=(const EventCallback &) = delete;

    ~EventCallback() { reset(); }

    explicit operator bool() const { return ops_ != nullptr; }

    void
    operator()()
    {
        ops_->invoke(storage_);
    }

    void
    reset()
    {
        if (ops_) {
            ops_->destroy(storage_);
            ops_ = nullptr;
        }
    }

  private:
    struct Ops
    {
        void (*invoke)(void *);
        /** Move-construct into dst from src, then destroy src. */
        void (*relocate)(void *dst, void *src);
        void (*destroy)(void *);
    };

    template <typename Fn>
    struct InlineOps
    {
        static void
        invoke(void *p)
        {
            (*static_cast<Fn *>(p))();
        }
        static void
        relocate(void *dst, void *src)
        {
            Fn *s = static_cast<Fn *>(src);
            new (dst) Fn(std::move(*s));
            s->~Fn();
        }
        static void
        destroy(void *p)
        {
            static_cast<Fn *>(p)->~Fn();
        }
        static constexpr Ops ops = {invoke, relocate, destroy};
    };

    template <typename Fn>
    struct HeapOps
    {
        static Fn *&
        ptr(void *p)
        {
            return *static_cast<Fn **>(p);
        }
        static void
        invoke(void *p)
        {
            (*ptr(p))();
        }
        static void
        relocate(void *dst, void *src)
        {
            new (dst) Fn *(ptr(src));
        }
        static void
        destroy(void *p)
        {
            delete ptr(p);
        }
        static constexpr Ops ops = {invoke, relocate, destroy};
    };

    void
    moveFrom(EventCallback &other)
    {
        ops_ = other.ops_;
        if (ops_) {
            ops_->relocate(storage_, other.storage_);
            other.ops_ = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char storage_[kInlineSize];
    const Ops *ops_ = nullptr;
};

class Simulator;

/**
 * One shard's pending events: a calendar queue shaped for the simulator's
 * traffic, where almost every event is scheduled under kRingCycles ahead
 * and a busy cycle holds thousands of events.
 *
 *  - A ring of kRingCycles per-cycle buckets covers [base, base +
 *    kRingCycles); a push there only appends to bucket `at & kRingMask`.
 *  - Events at or beyond base + kRingCycles wait in a min-heap and move
 *    into their buckets as the base advances.
 *  - When a cycle becomes the base, its bucket is sorted once by the
 *    deterministic key and drained in order. Events scheduled for the
 *    base cycle while it drains go to a small min-heap that pop merges
 *    with the sorted run.
 *
 * Pop order is exactly the (at, ownerCreator, seq) order of a single
 * min-heap on the same keys. The base moves only on pop, never on peek,
 * so every push at or after the last popped cycle is valid.
 */
class EventQueue
{
  public:
    /**
     * POD event key, ordered by (at, owner, creator, seq): owner and
     * creator are packed into one word (owner in the high half) so the
     * deterministic tie-break is two integer compares. `seq` is the
     * creating shard's monotone counter — only compared between events
     * of the same creator, whose creations are totally ordered within
     * one shard, so the key is independent of the shard count. `slot`
     * indexes the shard's callback slot pool.
     */
    struct Key
    {
        Cycles at;
        uint64_t ownerCreator;
        uint64_t seq;
        uint32_t slot;
    };

    /** Ring span in cycles (a power of two). */
    static constexpr Cycles kRingCycles = 256;

    EventQueue();

    bool empty() const { return size_ == 0; }
    size_t size() const { return size_; }

    /** Cycle of the least event; requires !empty(). */
    Cycles nextAt() const;

    /** Queue `key`; key.at must not precede the last popped cycle. */
    void push(const Key &key);

    /** Remove and return the least event; requires !empty(). */
    Key pop();

    /** Visit every queued key, in no particular order. */
    template <typename F>
    void
    forEach(F &&fn) const
    {
        for (size_t i = runPos_; i < run_.size(); ++i)
            fn(run_[i]);
        for (const Key &k : side_)
            fn(k);
        for (const std::vector<Key> &bucket : ring_)
            for (const Key &k : bucket)
                fn(k);
        for (const Key &k : far_)
            fn(k);
    }

  private:
    static constexpr Cycles kRingMask = kRingCycles - 1;
    static constexpr size_t kRingWords = kRingCycles / 64;
    static_assert((kRingCycles & kRingMask) == 0 && kRingWords > 0,
                  "the ring span must be a power of two >= 64");

    static bool
    before(const Key &a, const Key &b)
    {
        if (a.at != b.at)
            return a.at < b.at;
        if (a.ownerCreator != b.ownerCreator)
            return a.ownerCreator < b.ownerCreator;
        return a.seq < b.seq;
    }
    /** Heap comparator: std::*_heap with it keeps the least key on top. */
    static bool after(const Key &a, const Key &b) { return before(b, a); }

    void pushRing(const Key &key);
    /** First occupied ring cycle after the base; requires ringCount_. */
    Cycles nextRingCycle() const;
    /** Move the base to the next cycle with events, pull newly covered
     *  far events into the ring, and sort the base bucket into run_. */
    void advance();

    /** The cycle being drained; every queued event is at or after it. */
    Cycles base_ = 0;
    /** Sorted events of the base cycle; run_[runPos_..] are pending. */
    std::vector<Key> run_;
    size_t runPos_ = 0;
    /** Min-heap of events pushed for the base cycle while it drains. */
    std::vector<Key> side_;
    /** Per-cycle buckets of (base, base + kRingCycles), unordered. */
    std::vector<std::vector<Key>> ring_;
    /** Bit i set when ring_[i] is non-empty. */
    uint64_t occupied_[kRingWords] = {};
    size_t ringCount_ = 0;
    /** Min-heap of events at or beyond base + kRingCycles. */
    std::vector<Key> far_;
    size_t size_ = 0;
};

/**
 * One shard tile: a private event queue plus the per-shard resources
 * its PEs touch on the hot path (stats, payload ring, fabric hop
 * counter). All members are accessed only by the shard's worker while
 * a window executes, or by the host thread while no run is active.
 * Cross-shard event creation goes through the outboxes, drained at
 * window barriers.
 */
class Shard
{
  public:
    Shard(Simulator &sim, int index);
    Shard(const Shard &) = delete;
    Shard &operator=(const Shard &) = delete;

    /** Local simulation time (== global time at window barriers). */
    Cycles now() const { return now_; }

    /** Shard-local statistics (merged by Simulator::stats()). */
    SimStats &stats() { return stats_; }

    /** Shard-local payload ring (see wse/payload.h). */
    PayloadPool &payloadPool() { return payloadPool_; }

    /** Shard-local fault counters (merged by Simulator reports).
     *  Mutated only by events owned by this shard's PEs. */
    FaultStats &faultStats() { return faultStats_; }

    /**
     * Schedule an event owned by `owner` (a PE of this shard, or the
     * host id) at absolute cycle `at` (>= now). The creator recorded in
     * the ordering key is the currently executing event's owner.
     */
    void push(uint32_t owner, Cycles at, EventCallback fn);

    int index() const { return index_; }

  private:
    friend class Simulator;
    friend class Fabric;

    /** A cross-shard event in flight (drained at window barriers). */
    struct MailEntry
    {
        Cycles at;
        uint64_t ownerCreator;
        uint64_t seq;
        EventCallback cb;
    };

    static uint64_t
    packKey(uint32_t owner, uint32_t creator)
    {
        return (static_cast<uint64_t>(owner) << 32) | creator;
    }

    void pushKeyed(uint64_t ownerCreator, uint64_t seq, Cycles at,
                   EventCallback fn);
    /** Execute events with at < end; returns early (leaving events
     *  queued) once the budget is spent — the caller diagnoses. */
    void runWindow(Cycles end, uint64_t maxEvents);
    /** Pop and run the next event (sequential path). */
    void step();

    Simulator *sim_;
    int index_;
    /** Declared before the queues: queued callbacks may hold
     *  PayloadRefs, so the pool must outlive them on destruction
     *  (cross-shard refs are drained by ~Simulator first). */
    PayloadPool payloadPool_;
    SimStats stats_;
    Cycles now_ = 0;
    /** Owner of the event currently executing (host id when idle);
     *  recorded as the creator of events it schedules. */
    uint32_t currentOwner_;
    /** Pending events on the deterministic key. */
    EventQueue queue_;
    /** Callback slot pool; slots are recycled through freeSlots_. */
    std::vector<EventCallback> slots_;
    std::vector<uint32_t> freeSlots_;
    /** Monotone creation counter (per-creator sequence source). */
    uint64_t nextSeq_ = 0;
    /** Outgoing cross-shard events, one lane per destination shard. */
    std::vector<std::vector<MailEntry>> outbox_;
    /** Events executed in the current run (budget accounting). */
    uint64_t processed_ = 0;
    /** Windows in which this shard had events due (ShardingTelemetry). */
    uint64_t windowsRun_ = 0;
    /** Outbox lane capacity growths (ShardingTelemetry). */
    uint64_t outboxReallocs_ = 0;
    /** Wavelet-hops injected by this shard's links (fabric statistic). */
    uint64_t fabricHops_ = 0;
    /** Fault counters of this shard's PEs (wse/fault.h). */
    FaultStats faultStats_;
    /** PEs of this shard that degraded an exchange (unsorted; merged
     *  and sorted into SimReport::degradedPes). */
    std::vector<uint32_t> degradedPes_;
};

/** Owns the PE grid, fabric, and the shard set. */
class Simulator
{
  public:
    /**
     * Build a simulator over a width x height PE sub-grid using the given
     * architecture parameters. The sub-grid must fit the fabric.
     */
    Simulator(const ArchParams &params, int width, int height,
              SimOptions options = {});
    ~Simulator();
    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    const ArchParams &params() const { return params_; }
    int width() const { return width_; }
    int height() const { return height_; }
    /** Worker threads executing shard-windows (<= shardCount()). */
    int threads() const { return numWorkers_; }
    /** Shard tiles the grid is partitioned into (rows * cols). */
    int shardCount() const { return static_cast<int>(shards_.size()); }
    /** Horizontal tile bands (shardGrid rows after clamping). */
    int shardRows() const { return shardRows_; }
    /** Vertical tile bands (shardGrid cols after clamping). */
    int shardCols() const { return shardCols_; }
    /** The options this simulator was built with (threads clamped,
     *  shardGrid resolved to the actual tiling). */
    const SimOptions &options() const { return options_; }

    /** Scheduler counters of the most recent run (merged on call).
     *  Execution-shape only — never part of the determinism contract. */
    ShardingTelemetry telemetry() const;

    Pe &pe(int x, int y);
    Fabric &fabric() { return *fabric_; }

    /// @name Grid-wide name tables (frozen during runs; see above)
    /// @{
    NameTable<TaskId> &taskNames() { return taskNames_; }
    NameTable<BufferId> &bufferNames() { return bufferNames_; }
    NameTable<ScalarId> &scalarNames() { return scalarNames_; }
    /** True while run()/runWithReport() executes events. */
    bool running() const { return running_; }
    /// @}

    /** Aggregate statistics, merged across shards on each call
     *  (read-only: subsystems accumulate into their shard's stats). */
    const SimStats &stats();

    /** Total wavelet-hops carried by the fabric (summed over shards). */
    uint64_t fabricHops() const;

    /**
     * Current simulation time: the executing shard's clock from inside
     * an event callback, the final global clock otherwise.
     */
    Cycles now() const;

    /**
     * Schedule `fn` at absolute cycle `at` (>= now). Accepts any
     * callable; inline-sized ones are stored without heap allocation.
     * Host-side calls land on shard 0; calls from inside an event run
     * on the scheduling event's shard (FIFO per creator at equal
     * cycles).
     */
    void schedule(Cycles at, EventCallback fn);

    /**
     * Run until the event queue drains. Returns the final cycle. Throws
     * FatalError carrying the full SimDiagnosis dump when the event
     * budget is exceeded; fault-induced deadlock and degradation do NOT
     * throw — inspect report() (or use runWithReport()) for those.
     */
    Cycles run(uint64_t maxEvents = UINT64_MAX);

    /**
     * Run until the event queue drains and classify how it ended:
     * Completed, Degraded (faulted PEs left partial results, everyone
     * else finished), Deadlock (a non-halted PE can never progress), or
     * EventBudgetExceeded. Never throws on any of those outcomes — the
     * returned report carries the diagnosis.
     */
    const SimReport &runWithReport(uint64_t maxEvents = UINT64_MAX);

    /** The report of the most recent run. */
    const SimReport &report() const { return report_; }

    /**
     * A quiescence probe reports obligations that survive an empty
     * event queue (an exchange still waiting for data, a program that
     * never returned control to the host). Probes run when the queues
     * drain; any obligation on a non-halted PE classifies the run as
     * Deadlock rather than Completed/Degraded. The probe owner must
     * outlive every subsequent run of this simulator.
     */
    using QuiescenceProbe =
        std::function<void(std::vector<BlockedPeInfo> &)>;
    void addQuiescenceProbe(QuiescenceProbe probe);

    /** Record a PE that finished with degraded results. Must be called
     *  from an event owned by that PE (its shard's context). */
    void noteDegradedPe(uint32_t peId);

    /** True when no events remain (queues and mailboxes). */
    bool idle() const;

    /// @name Internal scheduling surface (Pe / Fabric)
    /// @{
    /** Dense PE index of (x, y). */
    uint32_t
    peIndex(int x, int y) const
    {
        return static_cast<uint32_t>(x) * static_cast<uint32_t>(height_) +
               static_cast<uint32_t>(y);
    }
    /** The host's creator/owner id (orders host events after PEs). */
    uint32_t hostId() const { return numPes_; }
    /** Shard owning a PE (or shard 0 for the host id). */
    Shard &shardOfPe(uint32_t peIdx);
    /**
     * Schedule an event owned by `owner` from the execution context of
     * `from` (nullptr for the host). Same-shard events push directly;
     * cross-shard events go through `from`'s outbox and join the target
     * queue at the next window barrier. Host-context events draw their
     * sequence from one shared counter, so their relative order is
     * thread-count independent.
     */
    void scheduleOnPe(uint32_t owner, Cycles at, EventCallback fn,
                      Shard *from);
    /** The shard executing on this thread, or nullptr on the host.
     *  THE value to pass as `from`: using a PE's home shard instead
     *  would draw host-event sequence numbers from per-shard counters
     *  and break the determinism key. */
    Shard *currentShard() const;
    /// @}

  private:
    friend class Shard;

    /** Both return true when the run stopped on the event budget with
     *  events still queued (classified by runWithReport). */
    bool runSequential(uint64_t maxEvents);
    bool runParallel(uint64_t maxEvents);
    Cycles finishRun();

    /** Resolve options_.shardGrid (auto-derivation, clamping) and the
     *  worker count; called once from the constructor. */
    void resolveSharding();
    /** Run the shard-windows dealt to worker `w` (shards w, w + N, ...). */
    void runAssignedShards(int w, Cycles windowEnd, uint64_t maxEvents);

    /** Push the fault plan's PE thresholds / fabric tables out. */
    void applyFaultPlan();
    /** Run the quiescence probes and mark halted PEs. */
    void collectBlockedPes(std::vector<BlockedPeInfo> &out);
    /** Build the structured post-mortem of the current state. */
    SimDiagnosis diagnose(SimOutcome outcome, uint64_t budget,
                          std::vector<BlockedPeInfo> blocked);

    ArchParams params_;
    SimOptions options_;
    int width_;
    int height_;
    uint32_t numPes_;
    /** Conservative window length: the minimum cross-shard latency. */
    Cycles lookahead_;
    /** Global clock outside of run() (max shard clock after a run). */
    Cycles finalNow_ = 0;
    std::vector<std::unique_ptr<Shard>> shards_;
    /** Resolved tiling (options_.shardGrid after clamping). */
    int shardRows_ = 1;
    int shardCols_ = 1;
    /** Worker threads (options_.threads clamped to the shard count). */
    int numWorkers_ = 1;
    /** Tile band per PE column / row; shard = row band * cols + col
     *  band. rows=1 degenerates to the classic column strips. */
    std::vector<int> tileOfCol_;
    std::vector<int> tileOfRow_;
    /** Barrier windows of the current run (completion-step writes,
     *  barrier-ordered). */
    uint64_t windowCount_ = 0;
    std::vector<std::unique_ptr<Pe>> pes_;
    std::unique_ptr<Fabric> fabric_;
    /** Merged-stats cache refreshed by stats(). */
    SimStats mergedStats_;
    /** Report of the most recent run (rebuilt by runWithReport). */
    SimReport report_;
    /** Registered quiescence probes (run at queue drain). */
    std::vector<QuiescenceProbe> probes_;
    /** Set for the duration of a run (written by the host thread only,
     *  before workers start and after they join); freezes the tables. */
    bool running_ = false;
    NameTable<TaskId> taskNames_{running_, "task"};
    NameTable<BufferId> bufferNames_{running_, "buffer"};
    NameTable<ScalarId> scalarNames_{running_, "scalar"};
};

} // namespace wsc::wse

#endif // WSC_WSE_SIMULATOR_H
