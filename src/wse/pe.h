/**
 * @file
 * Processing-element model: private memory with capacity accounting,
 * actor-style tasks (data / control / local) dispatched one at a time,
 * and a single work timeline on which compute and ramp transfers
 * serialize (see simulator.h for the timing-model rationale).
 *
 * Tasks, buffers and scalars are identified by dense handles (TaskId /
 * BufferId / ScalarId) interned in grid-wide name tables owned by the
 * Simulator, so a name has the same handle on every PE and a program
 * resolves its names once, not once per PE. Each Pe keeps only per-id
 * vectors with present/live flags; every per-activation and per-access
 * hot path is an O(1) index. The string-named API remains as a thin
 * wrapper used at registration time and by tests. The name tables are
 * frozen while the simulator runs: interning a new name from inside a
 * task panics, so shard workers only ever read them.
 */

#ifndef WSC_WSE_PE_H
#define WSC_WSE_PE_H

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "support/error.h"
#include "support/fifo.h"
#include "wse/arch_params.h"

namespace wsc::wse {

class Simulator;
class Shard;
class PayloadPool;
struct SimStats;

/** The three CSL task flavours (software actors). */
enum class TaskKind { Data, Control, Local };

/** Dense grid-wide handle of a task name (Simulator::taskNames()). */
struct TaskId
{
    int32_t index = -1;
    bool valid() const { return index >= 0; }
    bool operator==(const TaskId &) const = default;
};

/** Dense grid-wide handle of a buffer name. Survives freeBuffer():
 *  re-allocating the same name reuses the handle (and the slot). */
struct BufferId
{
    int32_t index = -1;
    bool valid() const { return index >= 0; }
    bool operator==(const BufferId &) const = default;
};

/** Dense grid-wide handle of a module-level scalar variable name. */
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

/**
 * Name -> dense handle table. The Simulator owns one each for tasks,
 * buffers and scalars; handles are assigned in interning order and
 * never change. `frozen` (the simulator's running flag) makes interning
 * a new name panic, so concurrent readers never see the table change.
 */
template <typename Id>
class NameTable
{
  public:
    NameTable(const bool &frozen, const char *kind)
        : frozen_(frozen), kind_(kind)
    {
    }

    /** Handle of `name`, assigning the next one on first use. */
    Id
    intern(const std::string &name)
    {
        if (Id id = find(name); id.valid())
            return id;
        WSC_ASSERT(!frozen_, "new " << kind_ << " name `" << name
                                    << "` interned during a run");
        index_.emplace(name, static_cast<int32_t>(names_.size()));
        names_.push_back(name);
        return Id{static_cast<int32_t>(names_.size() - 1)};
    }
    /** Handle of `name`; invalid when it was never interned. */
    Id
    find(const std::string &name) const
    {
        auto it = index_.find(name);
        return it == index_.end() ? Id{} : Id{it->second};
    }
    const std::string &
    name(Id id) const
    {
        WSC_ASSERT(id.index >= 0 &&
                       static_cast<size_t>(id.index) < names_.size(),
                   "invalid " << kind_ << " handle " << id.index);
        return names_[static_cast<size_t>(id.index)];
    }
    size_t size() const { return names_.size(); }

  private:
    const bool &frozen_;
    const char *kind_;
    std::unordered_map<std::string, int32_t> index_;
    std::deque<std::string> names_; ///< deque: name() references stay valid
};

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
     * Allocate the f32 buffer of a grid-wide handle (zero-filled);
     * throws FatalError when the 48 kB PE memory would be exceeded. A
     * handle freed earlier may be re-allocated; allocating a live one
     * panics.
     */
    std::vector<float> &allocBuffer(BufferId id, size_t elems);
    /** Intern `name` and allocate its buffer; returns the handle. */
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
    /** The buffer's data when live on this PE, nullptr otherwise. */
    std::vector<float> *liveBuffer(BufferId id);
    /** Resolve a live buffer name; panics when unknown or freed. */
    BufferId bufferId(const std::string &name) const;
    /** Resolve a live buffer name; invalid handle when unknown/freed. */
    BufferId findBuffer(const std::string &name) const;
    /** Name of a buffer handle (diagnostics). */
    const std::string &bufferName(BufferId id) const;
    bool hasBuffer(const std::string &name) const;
    void freeBuffer(BufferId id);
    void freeBuffer(const std::string &name);
    size_t memoryBytesUsed() const { return bytesUsed_; }
    /// @}

    /// @name Scalar state (module-level variables)
    /// @{
    /**
     * Intern a scalar name to its grid-wide handle and create it on
     * this PE (value 0) when it is not there yet.
     */
    ScalarId scalarId(const std::string &name);
    /** Create (or overwrite) this PE's scalar of a grid-wide handle. */
    void defineScalar(ScalarId id, double value);
    /** Resolve without creating; invalid handle when this PE has no
     *  such scalar. */
    ScalarId findScalar(const std::string &name) const;
    /** O(1) access through the dense handle (hot path). References are
     *  invalidated by defining further scalars, so define all of them
     *  before holding references across calls. */
    double &
    scalar(ScalarId id)
    {
        checkScalar(id);
        return scalars_[static_cast<size_t>(id.index)].value;
    }
    /** Unchecked O(1) access for handles pre-validated at configure
     *  time (the interpreter's resolveColdChecks()): no validity branch
     *  on the per-instruction path. */
    double &
    scalarUnchecked(ScalarId id)
    {
        return scalars_[static_cast<size_t>(id.index)].value;
    }
    double &scalar(const std::string &name) { return scalar(scalarId(name)); }
    bool hasScalar(const std::string &name) const
    {
        return findScalar(name).valid();
    }
    /// @}

    /// @name Tasks
    /// @{
    /**
     * Register a task under a grid-wide handle. Tasks are configuration:
     * registering during a run, or twice on one PE, panics.
     */
    void registerTask(TaskId id, TaskKind kind, TaskFn fn);
    /** Intern `name` and register its task; returns the handle. */
    TaskId registerTask(const std::string &name, TaskKind kind, TaskFn fn);
    /** Resolve a task registered on this PE; panics when unknown. */
    TaskId taskId(const std::string &name) const;
    /** Resolve without panicking; invalid handle when this PE has no
     *  such task. */
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
    const Fifo<std::pair<int32_t, Cycles>> &
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
    /** One task slot per grid-wide task handle; an empty fn means the
     *  task is not registered on this PE. */
    struct TaskSlot
    {
        TaskFn fn;
        TaskKind kind = TaskKind::Local;
    };

    /** One buffer slot; `live` is false until allocated and between
     *  free and re-alloc. */
    struct BufferSlot
    {
        std::vector<float> data;
        bool live = false;
    };

    struct ScalarSlot
    {
        double value = 0.0;
        bool present = false;
    };

    void checkBufferLive(BufferId id) const;
    void checkScalar(ScalarId id) const;
    bool bufferLive(int32_t index) const;
    bool scalarPresent(int32_t index) const;
    bool taskPresent(int32_t index) const;
    void dispatchPending();
    /** Schedule a dispatch event on the owning shard. */
    void scheduleDispatch(Cycles at);

    Simulator &sim_;
    Shard &shard_;
    int x_;
    int y_;
    uint32_t id_;
    /** Indexed by BufferId. A deque so slot (and vector) addresses
     *  survive later allocations — DSDs hold pointers to the slot's
     *  data vector. */
    std::deque<BufferSlot> buffers_;
    /** Indexed by ScalarId. */
    std::vector<ScalarSlot> scalars_;
    size_t bytesUsed_ = 0;
    /** Indexed by TaskId. Registration never happens during a run, so
     *  the vector cannot move under an executing task. */
    std::vector<TaskSlot> tasks_;
    /** (task index, readyAt) activation queue. */
    Fifo<std::pair<int32_t, Cycles>> pending_;
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
