/**
 * @file
 * Processing-element model: private memory with capacity accounting,
 * actor-style tasks (data / control / local) dispatched one at a time,
 * and a single work timeline on which compute and ramp transfers
 * serialize (see simulator.h for the timing-model rationale).
 *
 * Tasks, buffers and scalars are identified by dense interned handles
 * (TaskId / BufferId / ScalarId) backed by flat per-PE tables; every
 * per-activation and per-access hot path is an O(1) index. The
 * string-named API remains as a thin resolve-once wrapper used at
 * registration time and by tests.
 */

#ifndef WSC_WSE_PE_H
#define WSC_WSE_PE_H

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "wse/arch_params.h"

namespace wsc::wse {

class Simulator;
class Shard;
class PayloadPool;
struct SimStats;

/** The three CSL task flavours (software actors). */
enum class TaskKind { Data, Control, Local };

/** Dense handle of a task registered on one PE. */
struct TaskId
{
    int32_t index = -1;
    bool valid() const { return index >= 0; }
    bool operator==(const TaskId &) const = default;
};

/** Dense handle of a named buffer on one PE. Survives freeBuffer():
 *  re-allocating the same name reuses the handle (and the slot). */
struct BufferId
{
    int32_t index = -1;
    bool valid() const { return index >= 0; }
    bool operator==(const BufferId &) const = default;
};

/** Dense handle of a module-level scalar variable on one PE. */
struct ScalarId
{
    int32_t index = -1;
    bool valid() const { return index >= 0; }
    bool operator==(const ScalarId &) const = default;
};

/**
 * Context passed to an executing task. Tasks account their compute cost
 * through consume()/dsdOp() and may activate other tasks or launch
 * asynchronous operations.
 */
class TaskContext
{
  public:
    TaskContext(Simulator &sim, class Pe &pe, Cycles start)
        : sim_(sim), pe_(pe), start_(start)
    {
    }

    Simulator &sim() { return sim_; }
    class Pe &pe() { return pe_; }

    /** Cycle at which the task began executing. */
    Cycles startCycle() const { return start_; }
    /** Current logical time inside the task (start + consumed). */
    Cycles currentCycle() const { return start_ + consumed_; }
    /** Total cycles consumed so far. */
    Cycles consumed() const { return consumed_; }

    /** Charge raw cycles of core time. */
    void consume(Cycles cycles) { consumed_ += cycles; }

    /**
     * Charge one DSD builtin over `elems` elements, updating FLOP stats
     * with `flopsPerElem` and memory traffic with `bytesPerElem`
     * (default: two 4-byte reads + one 4-byte write).
     */
    void dsdOp(uint64_t elems, int flopsPerElem, int bytesPerElem = 12);

  private:
    Simulator &sim_;
    class Pe &pe_;
    Cycles start_;
    Cycles consumed_ = 0;
};

using TaskFn = std::function<void(TaskContext &)>;

/** One simulated processing element. */
class Pe
{
  public:
    /** Constructed by Simulator: `shard` owns this PE's grid tile and
     *  `id` is the dense grid index used in event-ordering keys. */
    Pe(Simulator &sim, Shard &shard, int x, int y, uint32_t id);

    int x() const { return x_; }
    int y() const { return y_; }
    /** Dense grid index (x * height + y). */
    uint32_t id() const { return id_; }

    /// @name Shard facade
    /// All of this PE's scheduling, time and statistics go through its
    /// owning shard, keeping the hot paths shard-local and lock-free.
    /// @{
    Shard &shard() { return shard_; }
    /** The owning shard's clock (== global clock at threads=1). */
    Cycles now() const;
    /** The owning shard's statistics accumulator. */
    SimStats &shardStats();
    /** The owning shard's payload ring. */
    PayloadPool &payloadPool();
    /// @}

    /// @name Memory
    /// @{
    /**
     * Allocate a named f32 buffer and return its dense handle; throws
     * FatalError when the 48 kB PE memory would be exceeded. A name
     * freed earlier may be re-allocated and keeps its handle.
     */
    BufferId allocBufferId(const std::string &name, size_t elems);
    /** Name-based convenience wrapper around allocBufferId(). */
    std::vector<float> &allocBuffer(const std::string &name, size_t elems);
    /** O(1) access through the dense handle (hot path). */
    std::vector<float> &
    buffer(BufferId id)
    {
        checkBufferLive(id);
        return buffers_[static_cast<size_t>(id.index)].data;
    }
    std::vector<float> &buffer(const std::string &name);
    /** Resolve a live buffer name; panics when unknown or freed. */
    BufferId bufferId(const std::string &name) const;
    /** Resolve a live buffer name; invalid handle when unknown/freed. */
    BufferId findBuffer(const std::string &name) const;
    /** Name of a buffer slot (diagnostics). */
    const std::string &bufferName(BufferId id) const;
    bool hasBuffer(const std::string &name) const;
    void freeBuffer(BufferId id);
    void freeBuffer(const std::string &name);
    size_t memoryBytesUsed() const { return bytesUsed_; }
    /// @}

    /// @name Scalar state (module-level variables)
    /// @{
    /**
     * Intern a scalar name to its dense handle (creates the scalar,
     * value 0, on first use — the resolve-once registration step).
     */
    ScalarId scalarId(const std::string &name);
    /** Resolve without interning; invalid handle when unknown. */
    ScalarId findScalar(const std::string &name) const;
    /** O(1) access through the dense handle (hot path). References are
     *  invalidated by interning further scalars, so resolve all names
     *  before holding references across calls. */
    double &
    scalar(ScalarId id)
    {
        checkScalar(id);
        return scalars_[static_cast<size_t>(id.index)];
    }
    /** Unchecked O(1) access for handles pre-validated at configure
     *  time (the interpreter's resolveColdChecks()): no validity branch
     *  on the per-instruction path. */
    double &
    scalarUnchecked(ScalarId id)
    {
        return scalars_[static_cast<size_t>(id.index)];
    }
    double &scalar(const std::string &name) { return scalar(scalarId(name)); }
    bool hasScalar(const std::string &name) const
    {
        return scalarIds_.count(name) > 0;
    }
    /// @}

    /// @name Tasks
    /// @{
    TaskId registerTask(const std::string &name, TaskKind kind, TaskFn fn);
    /** Resolve a registered task name; panics when unknown. */
    TaskId taskId(const std::string &name) const;
    /** Resolve without panicking; invalid handle when unknown. */
    TaskId findTask(const std::string &name) const;
    bool hasTask(const std::string &name) const;
    /**
     * Request activation of a task as of cycle `readyAt`; it dispatches
     * when the PE work timeline is free, after the activation overhead.
     * The TaskId overload is the O(1) hot path.
     */
    void activate(TaskId task, Cycles readyAt);
    void activate(const std::string &name, Cycles readyAt);
    /// @}

    /// @name Work timeline
    /// @{
    /**
     * Reserve `n` cycles of the PE work timeline no earlier than `from`;
     * returns the cycle at which the reservation starts. A stutter fault
     * whose window contains the start multiplies `n`.
     */
    Cycles reserveWork(Cycles from, Cycles n);
    /** Next free cycle on the work timeline. */
    Cycles workFree() const { return workFree_; }
    /// @}

    /// @name Fault injection (wse/fault.h; configured by the Simulator)
    /// @{
    /**
     * Halt the compute element from cycle `at` on: no task dispatches
     * happen at or after the threshold. Activations keep queueing on
     * pending_ so the diagnosis can name what the dead PE never ran.
     * Halting is a pure threshold — it schedules no events and perturbs
     * no event ordering, so fault-free state is untouched.
     */
    void setHaltAt(Cycles at) { haltAt_ = at; }
    /** The halt threshold (max Cycles when never halting). */
    Cycles haltAt() const { return haltAt_; }
    /** Whether the CE is halted as of cycle `c`. */
    bool haltedAt(Cycles c) const { return c >= haltAt_; }
    /** Whether the CE is halted at the current shard time. */
    bool halted() const { return haltedAt(now()); }
    /** Multiply work reservations starting in [from, until) by factor. */
    void
    setStutter(Cycles from, Cycles until, uint32_t factor)
    {
        stutterFrom_ = from;
        stutterUntil_ = until;
        stutterFactor_ = factor;
    }
    /// @}

    /// @name Diagnosis introspection
    /// @{
    /** Activations not yet dispatched: (task index, readyAt). */
    const std::deque<std::pair<int32_t, Cycles>> &
    pendingActivations() const
    {
        return pending_;
    }
    /** Registered name of a task index (diagnosis tables). */
    const std::string &taskName(int32_t taskIdx) const;
    /// @}

    /// @name Per-PE statistics
    /// @{
    uint64_t taskActivations() const { return taskActivations_; }
    Cycles busyCycles() const { return busyCycles_; }
    void resetStats();
    /// @}

  private:
    struct TaskInfo
    {
        std::string name; ///< for diagnosis tables only
        TaskKind kind;
        TaskFn fn;
    };

    /** One buffer slot; `live` is false between free and re-alloc. */
    struct BufferSlot
    {
        std::string name;
        std::vector<float> data;
        bool live = false;
    };

    void checkBufferLive(BufferId id) const;
    void checkScalar(ScalarId id) const;
    void dispatchPending();
    /** Schedule a dispatch event on the owning shard. */
    void scheduleDispatch(Cycles at);

    Simulator &sim_;
    Shard &shard_;
    int x_;
    int y_;
    uint32_t id_;
    /** Deque so slot (and vector) addresses survive later allocations —
     *  DSDs hold pointers to the slot's data vector. */
    std::deque<BufferSlot> buffers_;
    std::unordered_map<std::string, int32_t> bufferIds_;
    std::vector<double> scalars_;
    std::unordered_map<std::string, int32_t> scalarIds_;
    size_t bytesUsed_ = 0;
    /** Deque so TaskInfo references stay stable if a running task
     *  registers further tasks. */
    std::deque<TaskInfo> tasks_;
    std::unordered_map<std::string, int32_t> taskIds_;
    /** (task index, readyAt) activation queue. */
    std::deque<std::pair<int32_t, Cycles>> pending_;
    bool dispatchScheduled_ = false;
    Cycles workFree_ = 0;
    uint64_t taskActivations_ = 0;
    Cycles busyCycles_ = 0;
    /** Fault thresholds (defaults injected nothing; see wse/fault.h). */
    Cycles haltAt_ = ~static_cast<Cycles>(0);
    Cycles stutterFrom_ = 0;
    Cycles stutterUntil_ = 0;
    uint32_t stutterFactor_ = 1;
};

} // namespace wsc::wse

#endif // WSC_WSE_PE_H
