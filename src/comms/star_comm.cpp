#include "comms/star_comm.h"

#include <algorithm>
#include <set>

#include "support/error.h"

namespace wsc::comms {

namespace {

/** Source direction of an access offset (direction of the source PE). */
wse::Direction
accessDirection(const Access &a)
{
    WSC_ASSERT((a.dx == 0) != (a.dy == 0),
               "access offsets must be axis-aligned, got (" << a.dx << ", "
                                                            << a.dy << ")");
    if (a.dx > 0)
        return wse::Direction::East;
    if (a.dx < 0)
        return wse::Direction::West;
    if (a.dy < 0)
        return wse::Direction::North;
    return wse::Direction::South;
}

int
directionRank(wse::Direction d)
{
    switch (d) {
      case wse::Direction::East:
        return 0;
      case wse::Direction::West:
        return 1;
      case wse::Direction::North:
        return 2;
      case wse::Direction::South:
        return 3;
    }
    panic("unreachable direction");
}

/** Direction a stream travels so that the access's source is the sender:
 * data for access (dx, dy) travels from the source towards (-dx, -dy). */
wse::Direction
travelDirection(const Access &a)
{
    Access reversed{-a.dx, -a.dy};
    return accessDirection(reversed);
}

} // namespace

std::vector<Access>
canonicalAccessOrder(std::vector<Access> accesses)
{
    std::sort(accesses.begin(), accesses.end(),
              [](const Access &a, const Access &b) {
                  int ra = directionRank(accessDirection(a));
                  int rb = directionRank(accessDirection(b));
                  if (ra != rb)
                      return ra < rb;
                  return a.distance() < b.distance();
              });
    return accesses;
}

StarComm::StarComm(wse::Simulator &sim, StarCommConfig config)
    : sim_(sim), config_(std::move(config))
{
    WSC_ASSERT(!config_.accesses.empty(), "exchange without accesses");
    for (const Access &a : config_.accesses)
        WSC_ASSERT(a.distance() >= 1 && a.distance() < 32,
                   "access distance " << a.distance()
                                      << " exceeds the 31-hop routes");
    WSC_ASSERT(config_.zSize > 0, "exchange with empty column");
    WSC_ASSERT(config_.numChunks >= 1, "numChunks must be >= 1");
    WSC_ASSERT(commElems() > 0, "trims leave nothing to communicate");
    WSC_ASSERT(config_.coeffs.empty() ||
                   config_.coeffs.size() == config_.accesses.size(),
               "coeffs must match accesses");
    std::vector<Access> canonical = canonicalAccessOrder(config_.accesses);
    WSC_ASSERT(canonical == config_.accesses,
               "accesses must be in canonical order");

    size_t numPes =
        static_cast<size_t>(sim_.width()) * sim_.height();
    states_.resize(numPes);
    expected_.resize(numPes);
    for (int x = 0; x < sim_.width(); ++x)
        for (int y = 0; y < sim_.height(); ++y)
            expected_[static_cast<size_t>(x) * sim_.height() + y] =
                computeExpectedSections(x, y);

    // Group deliveries by travel direction once; every exchange reuses
    // this plan.
    for (size_t i = 0; i < config_.accesses.size(); ++i) {
        const Access &a = config_.accesses[i];
        wse::Direction dir = travelDirection(a);
        PlanEntry *entry = nullptr;
        for (PlanEntry &e : plan_)
            if (e.dir == dir)
                entry = &e;
        if (!entry) {
            plan_.push_back({dir, {}});
            entry = &plan_.back();
        }
        entry->sections.emplace_back(a.distance(),
                                     static_cast<int>(i));
    }
    for (PlanEntry &e : plan_)
        std::sort(e.sections.begin(), e.sections.end());
}

int64_t
StarComm::commElems() const
{
    return config_.zSize - config_.trimFirst - config_.trimLast;
}

int64_t
StarComm::chunkElems() const
{
    return (commElems() + config_.numChunks - 1) / config_.numChunks;
}

int
StarComm::sectionIndex(int dx, int dy) const
{
    for (size_t i = 0; i < config_.accesses.size(); ++i)
        if (config_.accesses[i].dx == dx && config_.accesses[i].dy == dy)
            return static_cast<int>(i);
    return -1;
}

int64_t
StarComm::recvBufferBytes() const
{
    return numSections() * chunkElems() *
           static_cast<int64_t>(sizeof(float));
}

int
StarComm::computeExpectedSections(int x, int y) const
{
    // A PE computes (and therefore receives) only when every one of its
    // sources exists; otherwise it is a boundary PE that only feeds its
    // neighbours.
    for (const Access &a : config_.accesses) {
        int sx = x + a.dx;
        int sy = y + a.dy;
        if (sx < 0 || sx >= sim_.width() || sy < 0 || sy >= sim_.height())
            return 0;
    }
    return static_cast<int>(config_.accesses.size());
}

int
StarComm::expectedSections(int x, int y) const
{
    return expected_[static_cast<size_t>(x) * sim_.height() + y];
}

const wse::Router &
StarComm::router(int x, int y) const
{
    WSC_ASSERT(setupDone_, "router() before setup");
    WSC_ASSERT(x >= 0 && x < sim_.width() && y >= 0 && y < sim_.height(),
               "router() of PE (" << x << ", " << y
                                  << ") outside the grid");
    return router_;
}

StarComm::PeState &
StarComm::state(int x, int y)
{
    return states_[static_cast<size_t>(x) * sim_.height() + y];
}

void
StarComm::setup()
{
    WSC_ASSERT(!setupDone_, "setup() called twice");
    setupDone_ = true;

    // Router color configuration: one color per direction of travel used
    // by this exchange site, with an injection position and a
    // forward-and-deliver position (advanced by switches between roles).
    bool selfTransmit = sim_.params().switchRequiresSelfTransmit;
    std::set<wse::Direction> travelDirs;
    int maxDistance = 0;
    for (const Access &a : config_.accesses) {
        travelDirs.insert(travelDirection(a));
        maxDistance = std::max(maxDistance, a.distance());
    }
    for (wse::Direction dir : travelDirs) {
        wse::Color color = static_cast<wse::Color>(config_.baseColor +
                                                   directionRank(dir));
        wse::RouteConfig route = wse::makeStarRoute(
            dir, /*isSender=*/true, /*isTerminal=*/false, selfTransmit);
        wse::RouteConfig recvRoute = wse::makeStarRoute(
            dir, /*isSender=*/false, /*isTerminal=*/maxDistance == 1,
            selfTransmit);
        route.positions.push_back(recvRoute.positions[0]);
        router_.configure(color, route);
    }

    // Receive buffers: one chunk per section, reused across chunks — the
    // memory saving that csl_stencil.apply chunking enables. The
    // grid-wide handle is resolved once here; receive callbacks use it
    // directly.
    recvBuf_ = sim_.bufferNames().intern(config_.recvBufferName);
    const size_t recvElems =
        static_cast<size_t>(numSections() * chunkElems());
    for (int x = 0; x < sim_.width(); ++x)
        for (int y = 0; y < sim_.height(); ++y)
            sim_.pe(x, y).allocBuffer(recvBuf_, recvElems);

    // Deadlock introspection: when the event queues drain, any PE still
    // inside an exchange is waiting for data that will never arrive —
    // name it and what it got so far (this StarComm must outlive the
    // simulator runs, which every call site already guarantees).
    sim_.addQuiescenceProbe([this](std::vector<wse::BlockedPeInfo> &out) {
        for (int x = 0; x < sim_.width(); ++x) {
            for (int y = 0; y < sim_.height(); ++y) {
                PeState &st = state(x, y);
                if (!st.exchangeActive)
                    continue;
                int done = config_.perSectionCallbacks
                               ? st.announcedDeliveries
                               : st.completedChunks;
                int total =
                    config_.perSectionCallbacks
                        ? expectedSections(x, y) *
                              static_cast<int>(config_.numChunks)
                        : static_cast<int>(config_.numChunks);
                out.push_back(
                    {x, y,
                     strcat("halo exchange epoch ", st.activeEpoch, ": ",
                            done, "/", total,
                            config_.perSectionCallbacks ? " sections"
                                                        : " chunks",
                            " complete"),
                     st.exchangeStart, false});
            }
        }
    });
}

void
StarComm::exchange(wse::TaskContext &ctx, const std::string &sendBufName,
                   const std::string &recvCb, const std::string &doneCb)
{
    wse::Pe &pe = ctx.pe();
    exchange(ctx, pe.bufferId(sendBufName), pe.taskId(recvCb),
             pe.taskId(doneCb));
}

void
StarComm::exchange(wse::TaskContext &ctx, wse::BufferId sendBufId,
                   wse::TaskId recvCb, wse::TaskId doneCb)
{
    WSC_ASSERT(setupDone_, "exchange before setup");
    wse::Pe &pe = ctx.pe();
    int x = pe.x();
    int y = pe.y();
    PeState &st = state(x, y);
    WSC_ASSERT(!st.exchangeActive,
               "overlapping exchanges on PE (" << x << ", " << y << ")");

    st.exchangeActive = true;
    st.recvCb = recvCb;
    st.doneCb = doneCb;
    st.activeEpoch++;
    st.exchangeStart = ctx.currentCycle();
    st.completedChunks = 0;
    st.announcedDeliveries = 0;
    st.stats.exchangesStarted++;

    const int64_t epoch = st.activeEpoch;
    const int64_t nChunks = config_.numChunks;
    const int64_t chunk = chunkElems();
    const int64_t total = commElems();
    std::vector<float> &sendBuf = pe.buffer(sendBufId);
    WSC_ASSERT(static_cast<int64_t>(sendBuf.size()) >= config_.zSize,
               "send buffer smaller than column");

    wse::Cycles t = ctx.currentCycle();
    wse::Cycles lastInject = t;
    for (int64_t c = 0; c < nChunks; ++c) {
        int64_t begin = config_.trimFirst + c * chunk;
        int64_t len = std::min(chunk, total - c * chunk);
        // One recycled ring slot per chunk: every direction's stream,
        // every delivery event and every receiver stash reference the
        // same buffer (wse/payload.h); nothing is copied per delivery.
        wse::PayloadRef payload = pe.payloadPool().acquire();
        payload.mutableData().assign(sendBuf.begin() + begin,
                                     sendBuf.begin() + begin + len);
        for (const PlanEntry &entry : plan_) {
            // Only deliver to PEs that actually compute.
            uint32_t deliverMask = 0;
            auto [sx, sy] = wse::directionStep(entry.dir);
            for (const auto &[dist, sectionIdx] : entry.sections) {
                int rx = x + sx * dist;
                int ry = y + sy * dist;
                if (rx < 0 || rx >= sim_.width() || ry < 0 ||
                    ry >= sim_.height())
                    continue;
                if (expectedSections(rx, ry) > 0)
                    deliverMask |= 1u << dist;
            }
            if (deliverMask == 0)
                continue;
            // Switch positions advance between chunks.
            sim_.fabric().switchReconfig(x, y, entry.dir, t);
            const PlanEntry *sections = &entry; // Stable for the run.
            auto deliver = std::make_shared<const wse::DeliveryFn>(
                [this, sections, c, epoch](
                    const wse::StreamDelivery &delivery,
                    const std::vector<float> &data) {
                    int section = -1;
                    for (const auto &[dist, idx] : sections->sections)
                        if (dist == delivery.distance)
                            section = idx;
                    WSC_ASSERT(section >= 0,
                               "delivery at unexpected distance");
                    onDelivery(delivery, data, section, c, epoch);
                });
            wse::Cycles injected = sim_.fabric().sendStream(
                x, y, entry.dir, deliverMask, payload, t,
                std::move(deliver));
            lastInject = std::max(lastInject, injected);
        }
    }

    EpochState &es = st.epochs[epoch];
    if (es.arrivals.empty()) {
        es.arrivals.assign(nChunks, 0);
        es.announced.assign(nChunks, 0);
        es.announcedSections.assign(
            nChunks,
            std::vector<char>(config_.accesses.size(), 0));
        es.stash.resize(nChunks);
    }
    es.senderInjectDone = lastInject;

    int expected = expectedSections(x, y);
    if (expected == 0) {
        // Boundary PE: nothing to receive; done once sends are injected.
        st.exchangeActive = false;
        pruneEpochs(st, epoch);
        pe.activate(doneCb, lastInject);
        st.stats.doneCallbacks++;
        return;
    }

    // Arm the exchange watchdog: if the receives have not completed by
    // the deadline the wait is extended with backoff, then the exchange
    // degrades rather than hanging the program (wse/fault.h). Off by
    // default (exchangeTimeoutCycles == 0) — no events, no reordering.
    if (sim_.options().exchangeTimeoutCycles > 0)
        scheduleTimeout(pe, epoch, /*attempt=*/0, ctx.currentCycle());

    // Drain completions that arrived before this exchange started (a
    // neighbour running ahead; the hardware equivalent is data waiting in
    // the input queues).
    if (config_.perSectionCallbacks) {
        for (int64_t c = 0; c < nChunks; ++c) {
            for (size_t s = 0; s < config_.accesses.size(); ++s) {
                if (static_cast<int64_t>(es.stash.size()) > c &&
                    es.stash[c].size() > s && es.stash[c][s].valid() &&
                    !es.announcedSections[c][s])
                    announceSection(pe, st, es, c,
                                    static_cast<int>(s), pe.now());
            }
        }
    } else {
        for (int64_t c = 0; c < nChunks; ++c) {
            if (es.arrivals[c] == expected && !es.announced[c])
                announceChunk(pe, st, es, c, pe.now());
        }
    }
}

void
StarComm::announceChunk(wse::Pe &pe, PeState &st, EpochState &es, int64_t c,
                        wse::Cycles readyAt)
{
    es.announced[c] = 1;
    st.pendingChunks.push_back({st.activeEpoch, c});
    pe.activate(st.recvCb, readyAt);
    st.stats.recvCallbacks++;
    st.completedChunks++;
    if (st.completedChunks == config_.numChunks)
        finishExchange(pe, st, es, readyAt);
}

void
StarComm::announceSection(wse::Pe &pe, PeState &st, EpochState &es,
                          int64_t c, int section, wse::Cycles readyAt)
{
    es.announcedSections[c][static_cast<size_t>(section)] = 1;
    st.pendingSections.push_back({st.activeEpoch, c, section});
    pe.activate(st.recvCb, readyAt);
    st.stats.recvCallbacks++;
    st.announcedDeliveries++;
    int expected = expectedSections(pe.x(), pe.y());
    if (st.announcedDeliveries ==
        expected * static_cast<int>(config_.numChunks))
        finishExchange(pe, st, es, readyAt);
}

void
StarComm::finishExchange(wse::Pe &pe, PeState &st, EpochState &es,
                         wse::Cycles readyAt)
{
    wse::Cycles doneAt = std::max(readyAt, es.senderInjectDone);
    wse::TaskId doneCb = st.doneCb;
    int64_t epoch = st.activeEpoch;
    st.exchangeActive = false;
    // Keep recent epoch stashes alive until their chunks have been
    // consumed by the receive callbacks (FIFO task order guarantees
    // consumption before the exchange after next).
    pruneEpochs(st, epoch);
    pe.activate(doneCb, doneAt);
    st.stats.doneCallbacks++;
}

const StarCommStats &
StarComm::stats() const
{
    statsCache_ = StarCommStats{};
    for (const PeState &st : states_) {
        statsCache_.exchangesStarted += st.stats.exchangesStarted;
        statsCache_.chunksDelivered += st.stats.chunksDelivered;
        statsCache_.recvCallbacks += st.stats.recvCallbacks;
        statsCache_.doneCallbacks += st.stats.doneCallbacks;
        statsCache_.timeouts += st.stats.timeouts;
        statsCache_.degradedExchanges += st.stats.degradedExchanges;
    }
    return statsCache_;
}

void
StarComm::scheduleTimeout(wse::Pe &pe, int64_t epoch, int attempt,
                          wse::Cycles from)
{
    wse::Cycles wait = sim_.options().exchangeTimeoutCycles
                       << static_cast<unsigned>(attempt);
    int x = pe.x();
    int y = pe.y();
    pe.shard().push(pe.id(), from + wait, [this, x, y, epoch, attempt] {
        onExchangeTimeout(sim_.pe(x, y), epoch, attempt);
    });
}

void
StarComm::onExchangeTimeout(wse::Pe &pe, int64_t epoch, int attempt)
{
    PeState &st = state(pe.x(), pe.y());
    if (!st.exchangeActive || st.activeEpoch != epoch)
        return; // The exchange completed in time: the timer is stale.
    st.stats.timeouts++;
    pe.shard().faultStats().exchangeTimeouts++;
    if (attempt < sim_.options().exchangeMaxRetries) {
        // Extend the deadline with exponential backoff: a degraded
        // (slow) link deserves more patience than a dead one.
        scheduleTimeout(pe, epoch, attempt + 1, pe.now());
        return;
    }
    degradeExchange(pe, st, st.epochs.at(epoch), pe.now());
}

void
StarComm::degradeExchange(wse::Pe &pe, PeState &st, EpochState &es,
                          wse::Cycles readyAt)
{
    es.degraded = true;
    st.stats.degradedExchanges++;
    pe.shard().faultStats().exchangesDegraded++;
    sim_.noteDegradedPe(pe.id());
    // Size the stashes so the materialization paths can probe sections
    // that never arrived (resize preserves the pinned slots).
    for (auto &chunkStash : es.stash)
        chunkStash.resize(config_.accesses.size());
    // Announce everything still outstanding: the receive callbacks run
    // over whatever sections made it, the pop paths zero-fill the rest,
    // and the last announcement fires finishExchange as usual — the
    // program continues instead of deadlocking on a dead neighbour.
    if (config_.perSectionCallbacks) {
        for (int64_t c = 0; c < config_.numChunks; ++c)
            for (size_t s = 0; s < config_.accesses.size(); ++s)
                if (!es.announcedSections[c][s])
                    announceSection(pe, st, es, c, static_cast<int>(s),
                                    readyAt);
    } else {
        for (int64_t c = 0; c < config_.numChunks; ++c)
            if (!es.announced[c])
                announceChunk(pe, st, es, c, readyAt);
    }
}

void
StarComm::pruneEpochs(PeState &st, int64_t currentEpoch)
{
    for (auto it = st.epochs.begin(); it != st.epochs.end();) {
        if (it->first + 2 < currentEpoch)
            it = st.epochs.erase(it);
        else
            ++it;
    }
}

void
StarComm::onDelivery(const wse::StreamDelivery &delivery,
                     const std::vector<float> &payload, int accessIdx,
                     int64_t chunkIdx, int64_t senderEpoch)
{
    wse::Pe &pe = sim_.pe(delivery.peX, delivery.peY);
    PeState &st = state(delivery.peX, delivery.peY);
    // The sender's epoch counter aligns with the receiver's because every
    // PE performs the same sequence of exchanges on this site.
    EpochState &es = st.epochs[senderEpoch];
    if (es.arrivals.empty()) {
        es.arrivals.assign(config_.numChunks, 0);
        es.announced.assign(config_.numChunks, 0);
        es.announcedSections.assign(
            config_.numChunks,
            std::vector<char>(config_.accesses.size(), 0));
        es.stash.resize(config_.numChunks);
    }
    es.stash[chunkIdx].resize(config_.accesses.size());
    // Pin the payload slot instead of copying the floats; the slot
    // returns to its ring when the receive callback materializes it.
    es.stash[chunkIdx][accessIdx] = delivery.payload;
    es.arrivals[chunkIdx]++;
    st.stats.chunksDelivered++;
    (void)payload;

    int expected = expectedSections(delivery.peX, delivery.peY);
    WSC_ASSERT(expected > 0, "delivery to a non-computing PE");
    WSC_ASSERT(es.arrivals[chunkIdx] <= expected, "duplicate delivery");
    bool active =
        st.exchangeActive && senderEpoch == st.activeEpoch;
    if (config_.perSectionCallbacks) {
        if (active && !es.announcedSections[chunkIdx][accessIdx])
            announceSection(pe, st, es, chunkIdx, accessIdx,
                            delivery.completeAt);
    } else if (es.arrivals[chunkIdx] == expected && active &&
               !es.announced[chunkIdx]) {
        announceChunk(pe, st, es, chunkIdx, delivery.completeAt);
    }
}

int64_t
StarComm::popCompletedChunkOffset(wse::Pe &pe)
{
    PeState &st = state(pe.x(), pe.y());
    WSC_ASSERT(!st.pendingChunks.empty(),
               "receive callback without a completed chunk");
    auto [epoch, chunkIdx] = st.pendingChunks.front();
    st.pendingChunks.pop_front();

    // Materialize the chunk into the receive buffer (the hardware's
    // landing step), applying promoted coefficients at zero extra cost —
    // the comms/compute interleaving of §5.7.
    EpochState &es = st.epochs.at(epoch);
    std::vector<float> &recv = pe.buffer(recvBuf_);
    int64_t chunk = chunkElems();
    for (size_t s = 0; s < config_.accesses.size(); ++s) {
        wse::PayloadRef &pinned = es.stash[chunkIdx][s];
        if (!pinned.valid()) {
            // Only a degraded exchange announces incomplete chunks: the
            // section never arrived and its slice reads as zeros.
            WSC_ASSERT(es.degraded, "announced chunk missing a section");
            for (int64_t i = 0; i < chunk; ++i)
                recv[s * chunk + static_cast<size_t>(i)] = 0.0f;
            continue;
        }
        const std::vector<float> &data = pinned.data();
        float coeff = config_.coeffs.empty()
                          ? 1.0f
                          : static_cast<float>(config_.coeffs[s]);
        for (size_t i = 0; i < data.size(); ++i)
            recv[s * chunk + i] = data[i] * coeff;
        // Zero any tail when the final chunk is short.
        for (size_t i = data.size(); i < static_cast<size_t>(chunk); ++i)
            recv[s * chunk + i] = 0.0f;
        pinned.reset(); // Return the slot to its sender's ring.
    }
    // Offset is accumulator-relative (interior index space): the chunk
    // covers [chunkIdx * chunkElems, +chunkElems) of the communicated
    // range.
    return chunkIdx * chunk;
}

std::pair<int, int64_t>
StarComm::popCompletedSection(wse::Pe &pe)
{
    PeState &st = state(pe.x(), pe.y());
    WSC_ASSERT(!st.pendingSections.empty(),
               "receive callback without a landed section");
    auto [epoch, chunkIdx, section] = st.pendingSections.front();
    st.pendingSections.pop_front();

    EpochState &es = st.epochs.at(epoch);
    std::vector<float> &recv = pe.buffer(recvBuf_);
    int64_t chunk = chunkElems();
    wse::PayloadRef &pinned =
        es.stash[chunkIdx][static_cast<size_t>(section)];
    if (!pinned.valid()) {
        // Degraded exchange: the section never arrived (see above).
        WSC_ASSERT(es.degraded, "announced section missing its payload");
        for (int64_t i = 0; i < chunk; ++i)
            recv[section * chunk + i] = 0.0f;
        return {section, chunkIdx * chunk};
    }
    const std::vector<float> &data = pinned.data();
    float coeff = config_.coeffs.empty()
                      ? 1.0f
                      : static_cast<float>(
                            config_.coeffs[static_cast<size_t>(section)]);
    for (size_t i = 0; i < data.size(); ++i)
        recv[section * chunk + static_cast<int64_t>(i)] =
            data[i] * coeff;
    for (size_t i = data.size(); i < static_cast<size_t>(chunk); ++i)
        recv[section * chunk + static_cast<int64_t>(i)] = 0.0f;
    pinned.reset(); // Return the slot to its sender's ring.
    return {section, chunkIdx * chunk};
}

} // namespace wsc::comms
