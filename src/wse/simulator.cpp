#include "wse/simulator.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <bit>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "support/env.h"
#include "support/error.h"

namespace wsc::wse {

namespace {

/**
 * Debug and sanitizer builds also check the calendar queue's bucket
 * invariant at run time (see EventQueue::advance).
 */
#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) ||                  \
    defined(__SANITIZE_THREAD__)
constexpr bool kCheckInvariants = true;
#else
constexpr bool kCheckInvariants = false;
#endif

/** Execution context of the current thread (nested runs unsupported). */
struct TlsContext
{
    const Simulator *sim = nullptr;
    Shard *shard = nullptr;
};
thread_local TlsContext tlsCur;

/** RAII setter for the thread's execution context. */
struct TlsGuard
{
    TlsGuard(const Simulator *sim, Shard *shard)
    {
        tlsCur = {sim, shard};
    }
    ~TlsGuard() { tlsCur = {}; }
};

} // namespace

//===----------------------------------------------------------------------===
// EventQueue
//===----------------------------------------------------------------------===

EventQueue::EventQueue() : ring_(kRingCycles) {}

void
EventQueue::pushRing(const Key &key)
{
    const size_t b = static_cast<size_t>(key.at & kRingMask);
    ring_[b].push_back(key);
    occupied_[b / 64] |= uint64_t{1} << (b % 64);
    ringCount_++;
}

void
EventQueue::push(const Key &key)
{
    if constexpr (kCheckInvariants)
        WSC_ASSERT(key.at >= base_, "event at " << key.at
                                                << " behind the queue base "
                                                << base_);
    size_++;
    const Cycles ahead = key.at - base_;
    if (ahead == 0) {
        side_.push_back(key);
        std::push_heap(side_.begin(), side_.end(), after);
    } else if (ahead < kRingCycles) {
        pushRing(key);
    } else {
        far_.push_back(key);
        std::push_heap(far_.begin(), far_.end(), after);
    }
}

Cycles
EventQueue::nextRingCycle() const
{
    // The base bucket is always empty (base-cycle events live in run_ and
    // side_), so the first set bit at or after base + 1, wrapping around
    // the ring, is the next occupied cycle.
    const size_t baseIdx = static_cast<size_t>(base_ & kRingMask);
    const size_t start = (baseIdx + 1) & static_cast<size_t>(kRingMask);
    size_t w = start / 64;
    uint64_t bits = occupied_[w] & (~uint64_t{0} << (start % 64));
    for (size_t i = 0; i <= kRingWords; ++i) {
        if (bits != 0) {
            const size_t idx = w * 64 + static_cast<size_t>(
                                            std::countr_zero(bits));
            return base_ + ((idx - baseIdx) & static_cast<size_t>(kRingMask));
        }
        w = (w + 1) % kRingWords;
        bits = occupied_[w];
    }
    WSC_ASSERT(false, "calendar ring marked occupied but no bucket set");
    return base_;
}

Cycles
EventQueue::nextAt() const
{
    if (runPos_ < run_.size() || !side_.empty())
        return base_;
    return ringCount_ > 0 ? nextRingCycle() : far_.front().at;
}

void
EventQueue::advance()
{
    base_ = ringCount_ > 0 ? nextRingCycle() : far_.front().at;
    while (!far_.empty() && far_.front().at - base_ < kRingCycles) {
        std::pop_heap(far_.begin(), far_.end(), after);
        pushRing(far_.back());
        far_.pop_back();
    }
    const size_t b = static_cast<size_t>(base_ & kRingMask);
    // The drained run's storage becomes the (empty) bucket, so bucket
    // capacity circulates instead of being reallocated.
    run_.clear();
    runPos_ = 0;
    run_.swap(ring_[b]);
    occupied_[b / 64] &= ~(uint64_t{1} << (b % 64));
    ringCount_ -= run_.size();
    if constexpr (kCheckInvariants)
        for (const Key &k : run_)
            WSC_ASSERT(k.at == base_,
                       "event at " << k.at << " in the bucket of cycle "
                                   << base_ << " (ring of " << kRingCycles
                                   << ")");
    std::sort(run_.begin(), run_.end(), before);
}

EventQueue::Key
EventQueue::pop()
{
    if (runPos_ == run_.size() && side_.empty())
        advance();
    size_--;
    if (side_.empty() ||
        (runPos_ < run_.size() && before(run_[runPos_], side_.front())))
        return run_[runPos_++];
    std::pop_heap(side_.begin(), side_.end(), after);
    Key key = side_.back();
    side_.pop_back();
    return key;
}

//===----------------------------------------------------------------------===
// Shard
//===----------------------------------------------------------------------===

Shard::Shard(Simulator &sim, int index)
    : sim_(&sim), index_(index), currentOwner_(sim.hostId())
{
}

void
Shard::pushKeyed(uint64_t ownerCreator, uint64_t seq, Cycles at,
                 EventCallback fn)
{
    WSC_ASSERT(at >= now_, "scheduling into the past (at="
                               << at << ", now=" << now_ << ")");
    uint32_t slot;
    if (!freeSlots_.empty()) {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
        slots_[slot] = std::move(fn);
    } else {
        slot = static_cast<uint32_t>(slots_.size());
        slots_.push_back(std::move(fn));
    }
    queue_.push(EventQueue::Key{at, ownerCreator, seq, slot});
}

void
Shard::push(uint32_t owner, Cycles at, EventCallback fn)
{
    pushKeyed(packKey(owner, currentOwner_), nextSeq_++, at,
              std::move(fn));
}

void
Shard::step()
{
    EventQueue::Key top = queue_.pop();
    now_ = top.at;
    currentOwner_ = static_cast<uint32_t>(top.ownerCreator >> 32);
    stats_.eventsProcessed++;
    processed_++;
    // Move the callback out before invoking: the callback may schedule
    // new events, which can grow (and relocate) the slot pool while it
    // runs.
    EventCallback cb = std::move(slots_[top.slot]);
    freeSlots_.push_back(top.slot);
    cb();
}

void
Shard::runWindow(Cycles end, uint64_t maxEvents)
{
    while (!queue_.empty() && queue_.nextAt() < end) {
        // Same-cycle livelocks never return to the barrier where the
        // global budget is summed, so each shard also bounds its own
        // count (mirrors the sequential path's per-event check). Stop
        // with the events in place: the barrier detects the exhausted
        // budget and the diagnosis reads the queues as they stand.
        if (processed_ >= maxEvents)
            break;
        step();
    }
    currentOwner_ = sim_->hostId();
}

//===----------------------------------------------------------------------===
// Simulator
//===----------------------------------------------------------------------===

Simulator::Simulator(const ArchParams &params, int width, int height,
                     SimOptions options)
    : params_(params), options_(std::move(options)), width_(width),
      height_(height),
      numPes_(static_cast<uint32_t>(width) * static_cast<uint32_t>(height))
{
    WSC_ASSERT(width > 0 && height > 0, "empty PE grid");
    if (width > params.fabricWidth || height > params.fabricHeight)
        fatal(strcat("requested PE grid ", width, "x", height,
                     " exceeds the ", params.name, " fabric (",
                     params.fabricWidth, "x", params.fabricHeight, ")"));
    lookahead_ = std::max<Cycles>(1, params_.hopCycles);

    resolveSharding();
    const int numShards = shardRows_ * shardCols_;
    shards_.reserve(static_cast<size_t>(numShards));
    for (int s = 0; s < numShards; ++s)
        shards_.push_back(std::make_unique<Shard>(*this, s));
    for (auto &shard : shards_)
        shard->outbox_.resize(static_cast<size_t>(numShards));

    // Balanced contiguous tile bands along each axis; a PE's shard is
    // the (row band, column band) tile, row-major.
    tileOfCol_.resize(static_cast<size_t>(width));
    for (int x = 0; x < width; ++x)
        tileOfCol_[static_cast<size_t>(x)] = static_cast<int>(
            (static_cast<int64_t>(x) * shardCols_) / width);
    tileOfRow_.resize(static_cast<size_t>(height));
    for (int y = 0; y < height; ++y)
        tileOfRow_[static_cast<size_t>(y)] = static_cast<int>(
            (static_cast<int64_t>(y) * shardRows_) / height);

    pes_.reserve(numPes_);
    for (int x = 0; x < width; ++x)
        for (int y = 0; y < height; ++y)
            pes_.push_back(std::make_unique<Pe>(
                *this, shardOfPe(peIndex(x, y)), x, y, peIndex(x, y)));
    fabric_ = std::make_unique<Fabric>(*this);
    applyFaultPlan();
}

void
Simulator::resolveSharding()
{
    int rows = options_.shardGrid.rows;
    int cols = options_.shardGrid.cols;
    if (rows > 0 || cols > 0) {
        // Explicit tiling: a single set axis leaves the other at 1.
        rows = std::clamp(std::max(rows, 1), 1, height_);
        cols = std::clamp(std::max(cols, 1), 1, width_);
    } else {
        // Auto-derivation: the most-square factorisation r x c of the
        // largest t <= threads that fits the grid. Most-square keeps
        // boundary traffic (tile perimeter) minimal for a given shard
        // count; height=1 grids degenerate to the classic strips.
        rows = cols = 1;
        const int64_t cells =
            static_cast<int64_t>(width_) * static_cast<int64_t>(height_);
        int target = static_cast<int>(std::min<int64_t>(
            std::max(options_.threads, 1), cells));
        for (int t = target; t >= 1; --t) {
            int bestR = 0;
            for (int r = 1; r <= std::min(t, height_); ++r) {
                if (t % r != 0 || t / r > width_)
                    continue;
                if (bestR == 0 ||
                    std::abs(r - t / r) < std::abs(bestR - t / bestR))
                    bestR = r;
            }
            if (bestR != 0) {
                rows = bestR;
                cols = t / bestR;
                break;
            }
        }
    }
    shardRows_ = rows;
    shardCols_ = cols;
    options_.shardGrid = ShardGrid{rows, cols};
    numWorkers_ = std::clamp(options_.threads, 1, rows * cols);
    options_.threads = numWorkers_;
}

void
Simulator::applyFaultPlan()
{
    const FaultPlan &plan = options_.faults;
    if (plan.empty())
        return;
    auto checkPe = [&](int x, int y, const char *what) {
        if (x < 0 || x >= width_ || y < 0 || y >= height_)
            fatal(strcat("fault plan ", what, " targets PE (", x, ", ", y,
                         ") outside the ", width_, "x", height_, " grid"));
    };
    for (const PeHaltFault &h : plan.peHalts) {
        checkPe(h.x, h.y, "halt");
        Pe &target = pe(h.x, h.y);
        // Multiple halts on one PE: the earliest threshold wins.
        target.setHaltAt(std::min(h.at, target.haltAt()));
    }
    for (const PeStutterFault &s : plan.peStutters) {
        checkPe(s.x, s.y, "stutter");
        if (s.factor < 1)
            fatal("fault plan stutter factor must be >= 1");
        pe(s.x, s.y).setStutter(s.from, s.until, s.factor);
    }
    fabric_->applyFaultPlan(plan);
}

Simulator::~Simulator()
{
    // Queued callbacks may hold PayloadRefs into *other* shards' pools
    // (cross-shard segments, stashed deliveries): drop every queued
    // callback while all pools are still alive.
    for (auto &shard : shards_) {
        shard->slots_.clear();
        shard->freeSlots_.clear();
        for (auto &lane : shard->outbox_)
            lane.clear();
    }
}

Pe &
Simulator::pe(int x, int y)
{
    WSC_ASSERT(x >= 0 && x < width_ && y >= 0 && y < height_,
               "PE coordinates (" << x << ", " << y << ") out of range");
    return *pes_[peIndex(x, y)];
}

Shard &
Simulator::shardOfPe(uint32_t peIdx)
{
    if (peIdx >= numPes_) // host
        return *shards_.front();
    uint32_t col = peIdx / static_cast<uint32_t>(height_);
    uint32_t row = peIdx % static_cast<uint32_t>(height_);
    int shard = tileOfRow_[row] * shardCols_ + tileOfCol_[col];
    return *shards_[static_cast<size_t>(shard)];
}

const SimStats &
Simulator::stats()
{
    mergedStats_ = SimStats{};
    for (const auto &shard : shards_) {
        mergedStats_.eventsProcessed += shard->stats_.eventsProcessed;
        mergedStats_.waveletsSent += shard->stats_.waveletsSent;
        mergedStats_.taskActivations += shard->stats_.taskActivations;
        mergedStats_.dsdOps += shard->stats_.dsdOps;
        mergedStats_.flops += shard->stats_.flops;
        mergedStats_.memBytes += shard->stats_.memBytes;
    }
    return mergedStats_;
}

ShardingTelemetry
Simulator::telemetry() const
{
    ShardingTelemetry t;
    t.windows = windowCount_;
    t.windowCycles = windowCount_ * lookahead_;
    for (const auto &shard : shards_) {
        t.shardWindowsRun += shard->windowsRun_;
        t.outboxReallocs += shard->outboxReallocs_;
    }
    return t;
}

uint64_t
Simulator::fabricHops() const
{
    uint64_t total = 0;
    for (const auto &shard : shards_)
        total += shard->fabricHops_;
    return total;
}

Cycles
Simulator::now() const
{
    if (tlsCur.sim == this && tlsCur.shard)
        return tlsCur.shard->now();
    return finalNow_;
}

Shard *
Simulator::currentShard() const
{
    return tlsCur.sim == this ? tlsCur.shard : nullptr;
}

void
Simulator::schedule(Cycles at, EventCallback fn)
{
    if (tlsCur.sim == this && tlsCur.shard) {
        Shard &cur = *tlsCur.shard;
        // Generic events stay on the scheduling shard, owned by the
        // creating event's owner (FIFO per creator at equal cycles).
        cur.push(cur.currentOwner_, at, std::move(fn));
        return;
    }
    shards_.front()->push(hostId(), at, std::move(fn));
}

void
Simulator::scheduleOnPe(uint32_t owner, Cycles at, EventCallback fn,
                        Shard *from)
{
    Shard &target = shardOfPe(owner);
    if (from == nullptr) {
        target.pushKeyed(Shard::packKey(owner, hostId()),
                         shards_.front()->nextSeq_++, at, std::move(fn));
        return;
    }
    uint64_t key = Shard::packKey(owner, from->currentOwner_);
    if (from == &target) {
        target.pushKeyed(key, from->nextSeq_++, at, std::move(fn));
        return;
    }
    auto &lane = from->outbox_[static_cast<size_t>(target.index())];
    // Lanes are cleared (capacity kept) when drained, so growth only
    // happens while a lane reaches its high-water mark — telemetry
    // asserts steady-state windows stay allocation-free.
    if (lane.size() == lane.capacity())
        from->outboxReallocs_++;
    lane.push_back(Shard::MailEntry{at, key, from->nextSeq_++,
                                    std::move(fn)});
}

bool
Simulator::idle() const
{
    for (const auto &shard : shards_) {
        if (!shard->queue_.empty())
            return false;
        for (const auto &lane : shard->outbox_)
            if (!lane.empty())
                return false;
    }
    return true;
}

Cycles
Simulator::finishRun()
{
    Cycles end = finalNow_;
    for (auto &shard : shards_)
        end = std::max(end, shard->now_);
    for (auto &shard : shards_) {
        shard->now_ = end;
        shard->currentOwner_ = hostId();
    }
    finalNow_ = end;
    return end;
}

bool
Simulator::runSequential(uint64_t maxEvents)
{
    Shard &shard = *shards_.front();
    shard.processed_ = 0;
    TlsGuard tls(this, &shard);
    bool overBudget = false;
    while (!shard.queue_.empty()) {
        if (shard.processed_ >= maxEvents) {
            overBudget = true; // Diagnosed by runWithReport.
            break;
        }
        shard.step();
    }
    shard.currentOwner_ = hostId();
    return overBudget;
}

void
Simulator::runAssignedShards(int w, Cycles windowEnd, uint64_t maxEvents)
{
    // The deal is static, so this worker is the shard's only executor for
    // the window; the barrier orders the hand-off between windows.
    for (size_t s = static_cast<size_t>(w); s < shards_.size();
         s += static_cast<size_t>(numWorkers_)) {
        Shard &shard = *shards_[s];
        if (shard.queue_.empty() || shard.queue_.nextAt() >= windowEnd)
            continue; // Idle this window.
        // The TLS context travels with the shard so schedule sites see
        // the right creator/outbox.
        TlsGuard tls(this, &shard);
        shard.windowsRun_++;
        shard.runWindow(windowEnd, maxEvents);
    }
}

bool
Simulator::runParallel(uint64_t maxEvents)
{
    for (auto &shard : shards_)
        shard->processed_ = 0;

    struct Control
    {
        Cycles windowEnd = 0;
        bool done = false;
        bool overBudget = false;
    } ctl;
    std::atomic<bool> failed{false};
    std::exception_ptr firstError;
    std::mutex errorMutex;

    // Runs on exactly one thread while every worker is parked in the
    // barrier: drains the cross-shard mailboxes, accounts the event
    // budget and picks the next conservative window. The body must not
    // leak an exception (std::terminate inside a barrier completion), so
    // a throwing drain — e.g. a schedule-into-the-past panic or a
    // cross-shard event inside the closed window — is converted into the
    // same firstError/done shutdown a throwing worker takes.
    auto atBarrier = [&]() noexcept {
        try {
            if (failed.load(std::memory_order_relaxed)) {
                ctl.done = true;
                return;
            }
            uint64_t total = 0;
            for (auto &src : shards_) {
                for (size_t dst = 0; dst < src->outbox_.size(); ++dst) {
                    auto &lane = src->outbox_[dst];
                    for (auto &entry : lane) {
                        // Every cross-shard event carries at least one
                        // hop of latency, so none lands in the window
                        // that just closed.
                        WSC_ASSERT(entry.at >= ctl.windowEnd,
                                   "cross-shard event at "
                                       << entry.at
                                       << " inside the window ending at "
                                       << ctl.windowEnd);
                        shards_[dst]->pushKeyed(entry.ownerCreator,
                                                entry.seq, entry.at,
                                                std::move(entry.cb));
                    }
                    lane.clear();
                }
                total += src->processed_;
            }
            bool any = false;
            Cycles minAt = 0;
            for (auto &shard : shards_) {
                if (shard->queue_.empty())
                    continue;
                Cycles at = shard->queue_.nextAt();
                minAt = any ? std::min(minAt, at) : at;
                any = true;
            }
            if (!any) {
                ctl.done = true;
                return;
            }
            if (total >= maxEvents) {
                // Budget spent with events still queued: stop so the
                // caller can produce the diagnosis.
                ctl.overBudget = true;
                ctl.done = true;
                return;
            }
            ctl.windowEnd = minAt + lookahead_;
            windowCount_++;
        } catch (...) {
            {
                std::lock_guard<std::mutex> lock(errorMutex);
                if (!firstError)
                    firstError = std::current_exception();
            }
            failed.store(true, std::memory_order_relaxed);
            ctl.done = true;
        }
    };

    std::barrier barrier(numWorkers_, atBarrier);

    // Error-path invariant: a worker that catches an exception KEEPS
    // LOOPING to the next arrive_and_wait instead of leaving the loop —
    // breaking out without arriving would strand the siblings in the
    // barrier forever. The completion step then observes `failed` and
    // shuts every worker down through ctl.done.
    auto worker = [&](int idx) {
        for (;;) {
            barrier.arrive_and_wait();
            if (ctl.done)
                break;
            try {
                runAssignedShards(idx, ctl.windowEnd, maxEvents);
            } catch (...) {
                {
                    std::lock_guard<std::mutex> lock(errorMutex);
                    if (!firstError)
                        firstError = std::current_exception();
                }
                failed.store(true, std::memory_order_relaxed);
            }
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(numWorkers_) - 1);
    for (int i = 1; i < numWorkers_; ++i)
        threads.emplace_back(worker, i);
    worker(0);
    for (std::thread &t : threads)
        t.join();

    if (firstError)
        std::rethrow_exception(firstError);
    return ctl.overBudget;
}

void
Simulator::addQuiescenceProbe(QuiescenceProbe probe)
{
    probes_.push_back(std::move(probe));
}

void
Simulator::noteDegradedPe(uint32_t peId)
{
    shardOfPe(peId).degradedPes_.push_back(peId);
}

void
Simulator::collectBlockedPes(std::vector<BlockedPeInfo> &out)
{
    for (const QuiescenceProbe &probe : probes_)
        probe(out);
    for (BlockedPeInfo &b : out)
        b.peHalted = pes_[peIndex(b.x, b.y)]->haltedAt(finalNow_);
    // Oldest blockage first; ties broken by grid position so the dump
    // is stable across probe registration order.
    std::sort(out.begin(), out.end(),
              [](const BlockedPeInfo &a, const BlockedPeInfo &b) {
                  if (a.since != b.since)
                      return a.since < b.since;
                  if (a.x != b.x)
                      return a.x < b.x;
                  if (a.y != b.y)
                      return a.y < b.y;
                  return a.what < b.what;
              });
}

SimDiagnosis
Simulator::diagnose(SimOutcome outcome, uint64_t budget,
                    std::vector<BlockedPeInfo> blocked)
{
    const size_t maxRows =
        static_cast<size_t>(envU64("WSC_DIAG_ROWS", 16));
    SimDiagnosis d;
    d.outcome = outcome;
    d.atCycle = finalNow_;
    d.eventBudget = budget == UINT64_MAX ? 0 : budget;

    for (const auto &shard : shards_) {
        d.eventsProcessed += shard->processed_;
        ShardQueueInfo q;
        q.shard = shard->index();
        q.depth = shard->queue_.size();
        q.nextAt = q.depth > 0 ? shard->queue_.nextAt() : 0;
        for (const auto &lane : shard->outbox_)
            q.outboxPending += lane.size();
        d.queues.push_back(q);
    }

    d.blockedPeTotal = blocked.size();
    if (blocked.size() > maxRows)
        blocked.resize(maxRows);
    d.blockedPes = std::move(blocked);

    for (const auto &pe : pes_) {
        const auto &pending = pe->pendingActivations();
        if (pending.empty())
            continue;
        d.pendingTaskTotal += pending.size();
        if (d.pendingTasks.size() < maxRows) {
            const auto &[taskIdx, readyAt] = pending.front();
            d.pendingTasks.push_back(
                {pe->x(), pe->y(), pe->taskName(taskIdx), readyAt,
                 pending.size() - 1, pe->haltedAt(finalNow_)});
        }
    }

    // Busiest PEs by events still owned in the queues/outboxes.
    std::unordered_map<uint32_t, size_t> ownerCounts;
    for (const auto &shard : shards_) {
        shard->queue_.forEach([&](const EventQueue::Key &key) {
            ownerCounts[static_cast<uint32_t>(key.ownerCreator >> 32)]++;
        });
        for (const auto &lane : shard->outbox_)
            for (const Shard::MailEntry &entry : lane)
                ownerCounts[static_cast<uint32_t>(entry.ownerCreator >>
                                                  32)]++;
    }
    std::vector<std::pair<uint32_t, size_t>> owners;
    for (const auto &[owner, count] : ownerCounts)
        if (owner < numPes_)
            owners.emplace_back(owner, count);
    std::sort(owners.begin(), owners.end(),
              [](const auto &a, const auto &b) {
                  if (a.second != b.second)
                      return a.second > b.second;
                  return a.first < b.first;
              });
    if (owners.size() > maxRows)
        owners.resize(maxRows);
    for (const auto &[owner, count] : owners)
        d.busiestPes.push_back({pes_[owner]->x(), pes_[owner]->y(),
                                count});

    fabric_->collectBusyLinks(finalNow_, maxRows, d.busyLinks);
    return d;
}

const SimReport &
Simulator::runWithReport(uint64_t maxEvents)
{
    report_ = SimReport{};
    windowCount_ = 0;
    for (auto &shard : shards_) {
        shard->windowsRun_ = 0;
        shard->outboxReallocs_ = 0;
    }
    // Cleared on every exit, including a panic thrown out of an event.
    struct RunningFlag
    {
        bool &flag;
        explicit RunningFlag(bool &f) : flag(f) { flag = true; }
        ~RunningFlag() { flag = false; }
    };
    bool overBudget;
    {
        RunningFlag running(running_);
        overBudget = shardCount() == 1 ? runSequential(maxEvents)
                                       : runParallel(maxEvents);
    }
    report_.finalCycle = finishRun();
    report_.stats = stats();

    for (const auto &shard : shards_) {
        const FaultStats &f = shard->faultStats_;
        report_.faults.streamsDroppedByLinks += f.streamsDroppedByLinks;
        report_.faults.payloadsDropped += f.payloadsDropped;
        report_.faults.payloadsCorrupted += f.payloadsCorrupted;
        report_.faults.exchangeTimeouts += f.exchangeTimeouts;
        report_.faults.exchangesDegraded += f.exchangesDegraded;
        report_.degradedPes.insert(report_.degradedPes.end(),
                                   shard->degradedPes_.begin(),
                                   shard->degradedPes_.end());
    }
    std::sort(report_.degradedPes.begin(), report_.degradedPes.end());
    report_.degradedPes.erase(std::unique(report_.degradedPes.begin(),
                                          report_.degradedPes.end()),
                              report_.degradedPes.end());

    for (const PeHaltFault &h : options_.faults.peHalts)
        if (h.at <= report_.finalCycle)
            report_.haltedPes.push_back(peIndex(h.x, h.y));
    std::sort(report_.haltedPes.begin(), report_.haltedPes.end());
    report_.haltedPes.erase(std::unique(report_.haltedPes.begin(),
                                        report_.haltedPes.end()),
                            report_.haltedPes.end());
    report_.faults.pesHalted = report_.haltedPes.size();

    if (overBudget) {
        report_.outcome = SimOutcome::EventBudgetExceeded;
        std::vector<BlockedPeInfo> blocked;
        collectBlockedPes(blocked);
        report_.diagnosis =
            diagnose(report_.outcome, maxEvents, std::move(blocked));
        return report_;
    }

    // The queues are drained: ask the quiescence probes whether any PE
    // still owes work. Obligations on halted PEs are the expected shape
    // of the injected fault (Degraded); anything on a live PE means the
    // run can never progress again (Deadlock).
    std::vector<BlockedPeInfo> blocked;
    collectBlockedPes(blocked);
    bool liveBlocked = false;
    for (const BlockedPeInfo &b : blocked)
        liveBlocked |= !b.peHalted;
    if (!liveBlocked)
        for (const auto &pe : pes_)
            if (!pe->pendingActivations().empty() &&
                !pe->haltedAt(report_.finalCycle))
                liveBlocked = true;

    if (liveBlocked)
        report_.outcome = SimOutcome::Deadlock;
    else if (!report_.haltedPes.empty() || !report_.degradedPes.empty())
        report_.outcome = SimOutcome::Degraded;
    else
        report_.outcome = SimOutcome::Completed;

    if (report_.outcome != SimOutcome::Completed)
        report_.diagnosis =
            diagnose(report_.outcome, maxEvents, std::move(blocked));
    return report_;
}

Cycles
Simulator::run(uint64_t maxEvents)
{
    const SimReport &r = runWithReport(maxEvents);
    if (r.outcome == SimOutcome::EventBudgetExceeded)
        fatal(strcat("simulation exceeded the event budget (livelock?)\n",
                     r.diagnosis.toString()));
    return r.finalCycle;
}

} // namespace wsc::wse
