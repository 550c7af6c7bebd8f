/**
 * @file
 * The runtime communications library (paper §5.6): chunked asynchronous
 * halo exchanges for star-shaped stencils of up to radius 3+ at variable
 * stencil sizes, following the partitionable strategy of Jacquelin et al.
 *
 * One StarComm instance serves one csl.comms_exchange site: it owns the
 * per-PE receive buffer, the router color configuration, and the arrival
 * bookkeeping that drives the user-provided receive-chunk and
 * done-exchange callbacks. Routes depend only on the travel directions
 * of the site's accesses, never on a PE's position, so the site keeps
 * one Router that every PE shares.
 *
 * Properties the paper credits for the generated code's edge over the
 * hand-written kernel are expressed here as configuration:
 *  - only data required by the calculation is communicated (the access
 *    list and the trim of unused leading/trailing column values);
 *  - communication can proceed in a single chunk when memory allows;
 *  - a single receive-chunk task per chunk (not per direction), roughly
 *    halving task activations;
 *  - coefficients can be applied to incoming data at zero cost while it
 *    lands (comms/compute interleaving).
 */

#ifndef WSC_COMMS_STAR_COMM_H
#define WSC_COMMS_STAR_COMM_H

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "support/fifo.h"
#include "wse/pe.h"
#include "wse/router.h"
#include "wse/simulator.h"

namespace wsc::comms {

/** One remote access: the axis-aligned offset of the source PE. */
struct Access
{
    int dx = 0;
    int dy = 0;

    bool operator==(const Access &other) const = default;
    int distance() const { return dx != 0 ? std::abs(dx) : std::abs(dy); }
};

/**
 * Canonical ordering of accesses: by source direction (E, W, N, S), then
 * by distance. The lowering pass and the receive-buffer layout must agree
 * on this order.
 */
std::vector<Access> canonicalAccessOrder(std::vector<Access> accesses);

/** Configuration of one exchange site. */
struct StarCommConfig
{
    /** Remote offsets the stencil accesses (canonically ordered). */
    std::vector<Access> accesses;
    /** Full column length. */
    int64_t zSize = 0;
    /** Number of chunks the column is split into. */
    int64_t numChunks = 1;
    /** Leading column elements not required remotely (not sent). */
    int64_t trimFirst = 0;
    /** Trailing column elements not required remotely (not sent). */
    int64_t trimLast = 0;
    /**
     * Coefficients applied to incoming data while it lands, one per
     * access (same order); empty disables promotion.
     */
    std::vector<double> coeffs;
    /** Name of the per-PE receive buffer this instance allocates. */
    std::string recvBufferName = "recv_buffer";
    /** First router color used by this exchange site. */
    wse::Color baseColor = 0;
    /**
     * When set, the receive callback is activated once per landed
     * (section, chunk) instead of once per completed chunk — the task
     * structure of the hand-written kernel (per-direction tasks), which
     * roughly doubles activations (paper §6.1).
     */
    bool perSectionCallbacks = false;
};

/** Per-instance communication statistics. */
struct StarCommStats
{
    uint64_t exchangesStarted = 0;
    uint64_t chunksDelivered = 0;
    uint64_t recvCallbacks = 0;
    uint64_t doneCallbacks = 0;
    /** Exchange watchdog firings (wse/fault.h; 0 without faults). */
    uint64_t timeouts = 0;
    /** Exchanges completed degraded (missing sections zero-filled). */
    uint64_t degradedExchanges = 0;
};

/** One exchange site of the runtime library. */
class StarComm
{
  public:
    StarComm(wse::Simulator &sim, StarCommConfig config);

    const StarCommConfig &config() const { return config_; }

    /**
     * Allocate receive buffers and configure router colors on every PE.
     * Must be called once before the first exchange.
     */
    void setup();

    /**
     * Start an exchange from a running task on ctx's PE: sends the
     * chunked (trimmed) column of `sendBuf`, then activates
     * `recvCb` once per chunk as it completes and `doneCb` at the end.
     * The caller's generated receive-chunk task obtains the chunk offset
     * via popCompletedChunkOffset().
     *
     * The handle overload is the hot path: callers that pre-resolve the
     * buffer and callback tasks once (interpreter configure, baseline
     * registration) incur no string lookups per exchange. The string
     * overload resolves on ctx's PE and delegates.
     */
    void exchange(wse::TaskContext &ctx, wse::BufferId sendBuf,
                  wse::TaskId recvCb, wse::TaskId doneCb);
    void exchange(wse::TaskContext &ctx, const std::string &sendBufName,
                  const std::string &recvCb, const std::string &doneCb);

    /** Elements of one chunk (per access section). */
    int64_t chunkElems() const;
    /** Elements communicated per column (zSize - trims). */
    int64_t commElems() const;
    /** Number of receive-buffer sections (== accesses). */
    int64_t numSections() const
    {
        return static_cast<int64_t>(config_.accesses.size());
    }
    /** Section index of an access offset; -1 when absent. */
    int sectionIndex(int dx, int dy) const;
    /** Bytes of PE memory the receive buffer occupies. */
    int64_t recvBufferBytes() const;

    /**
     * Inside a receive-chunk callback: the accumulator-relative offset of
     * the chunk being processed (chunkIndex * chunkElems).
     */
    int64_t popCompletedChunkOffset(wse::Pe &pe);

    /**
     * Per-section mode: the (section, accumulator-relative offset) of the
     * landed piece being processed.
     */
    std::pair<int, int64_t> popCompletedSection(wse::Pe &pe);

    /** Aggregate statistics, summed across PEs on each call. */
    const StarCommStats &stats() const;

    /** Router of PE (x, y), for inspecting the configured routes. The
     *  routes are the same on every PE, so all PEs share one Router;
     *  (x, y) outside the grid panics. */
    const wse::Router &router(int x, int y) const;

    /** Expected number of arriving sections for PE (x, y); 0 marks a
     *  boundary (non-computing) PE. */
    int expectedSections(int x, int y) const;

  private:
    /**
     * Bookkeeping for one exchange epoch on one PE. Data arriving before
     * the PE has started the matching exchange is stashed here — the
     * hardware equivalent of wavelets waiting in the input queues.
     */
    struct EpochState
    {
        std::vector<int> arrivals;         ///< per chunk index
        std::vector<char> announced;       ///< recvCb issued per chunk
        /** Per-section mode: callback issued per (chunk, section). */
        std::vector<std::vector<char>> announcedSections;
        /** stash[chunk][section] pins the landed payload slot (no copy)
         *  until the receive callback materializes it. */
        std::vector<std::vector<wse::PayloadRef>> stash;
        wse::Cycles senderInjectDone = 0;
        /**
         * Set when the exchange watchdog gave up waiting: outstanding
         * chunks were force-announced and their missing sections read
         * as zeros (graceful degradation under injected faults).
         */
        bool degraded = false;
    };

    struct PeState
    {
        int64_t activeEpoch = 0;
        bool exchangeActive = false;
        /** Cycle the active exchange started (watchdog/diagnosis). */
        wse::Cycles exchangeStart = 0;
        int completedChunks = 0;
        int announcedDeliveries = 0;
        /** Callback tasks of the active exchange (resolved handles). */
        wse::TaskId recvCb;
        wse::TaskId doneCb;
        std::map<int64_t, EpochState> epochs;
        /** (epoch, chunk) queue feeding popCompletedChunkOffset. Fifos
         *  allocate on first use: most PEs of a grid never fill the
         *  per-section queue. */
        Fifo<std::pair<int64_t, int64_t>> pendingChunks;
        /** (epoch, chunk, section) queue for per-section mode. */
        Fifo<std::tuple<int64_t, int64_t, int>> pendingSections;
        /** Shard-safe statistics: counters live with the PE that
         *  increments them; stats() sums across PEs. */
        StarCommStats stats;
    };

    /** One send plan entry: all sections travelling one direction. */
    struct PlanEntry
    {
        wse::Direction dir;
        /** (distance, section index), ascending by distance. */
        std::vector<std::pair<int, int>> sections;
    };

    PeState &state(int x, int y);
    int computeExpectedSections(int x, int y) const;
    void onDelivery(const wse::StreamDelivery &delivery,
                    const std::vector<float> &payload, int accessIdx,
                    int64_t chunkIdx, int64_t senderEpoch);
    void announceChunk(wse::Pe &pe, PeState &st, EpochState &es, int64_t c,
                       wse::Cycles readyAt);
    void announceSection(wse::Pe &pe, PeState &st, EpochState &es,
                         int64_t c, int section, wse::Cycles readyAt);
    void finishExchange(wse::Pe &pe, PeState &st, EpochState &es,
                        wse::Cycles readyAt);
    void pruneEpochs(PeState &st, int64_t currentEpoch);

    /// @name Exchange watchdog (wse/fault.h)
    /// Armed per exchange when SimOptions::exchangeTimeoutCycles > 0.
    /// Timers are events owned by the waiting PE, so they replay
    /// identically at any thread count and shard tiling; a timer that
    /// fires after its exchange completed is stale and does nothing.
    /// @{
    /** Arm attempt `attempt`'s deadline, `timeout << attempt` cycles
     *  after `from` (exponential backoff). */
    void scheduleTimeout(wse::Pe &pe, int64_t epoch, int attempt,
                         wse::Cycles from);
    void onExchangeTimeout(wse::Pe &pe, int64_t epoch, int attempt);
    /**
     * Give up on the active exchange: announce every outstanding chunk
     * (or section) so the program continues, with never-delivered
     * sections zero-filled at materialization. Records the PE as
     * degraded on the SimReport.
     */
    void degradeExchange(wse::Pe &pe, PeState &st, EpochState &es,
                         wse::Cycles readyAt);
    /// @}

    wse::Simulator &sim_;
    StarCommConfig config_;
    std::vector<PeState> states_;
    /** Expected arriving sections per PE (0 marks a boundary PE). */
    std::vector<int> expected_;
    /** Deliveries grouped by travel direction (derived from config). */
    std::vector<PlanEntry> plan_;
    /** The site's routes, shared by every PE. */
    wse::Router router_;
    /** The receive buffer's grid-wide handle (resolved at setup()). */
    wse::BufferId recvBuf_;
    /** Merged-stats cache refreshed by stats(). */
    mutable StarCommStats statsCache_;
    bool setupDone_ = false;
};

} // namespace wsc::comms

#endif // WSC_COMMS_STAR_COMM_H
