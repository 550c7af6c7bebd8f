#include "wse/pe.h"

#include <cmath>

#include "support/error.h"
#include "wse/simulator.h"

namespace wsc::wse {

void
TaskContext::dsdOp(uint64_t elems, int flopsPerElem, int bytesPerElem)
{
    const ArchParams &p = sim_.params();
    consumed_ += p.dsdSetupCycles +
                 static_cast<Cycles>(
                     std::ceil(elems / p.f32ElemsPerCycle));
    SimStats &stats = pe_.shardStats();
    stats.dsdOps++;
    stats.flops += elems * static_cast<uint64_t>(flopsPerElem);
    stats.memBytes += elems * static_cast<uint64_t>(bytesPerElem);
}

Pe::Pe(Simulator &sim, Shard &shard, int x, int y, uint32_t id)
    : sim_(sim), shard_(shard), x_(x), y_(y), id_(id)
{
}

Cycles
Pe::now() const
{
    return shard_.now();
}

SimStats &
Pe::shardStats()
{
    return shard_.stats();
}

PayloadPool &
Pe::payloadPool()
{
    return shard_.payloadPool();
}

void
Pe::scheduleDispatch(Cycles at)
{
    shard_.push(id_, at, [this] { dispatchPending(); });
}

void
Pe::checkBufferLive(BufferId id) const
{
    WSC_ASSERT(id.index >= 0 &&
                   static_cast<size_t>(id.index) < sim_.bufferNames().size(),
               "invalid buffer handle " << id.index << " on PE (" << x_
                                        << ", " << y_ << ")");
    WSC_ASSERT(bufferLive(id.index), "use of unallocated or freed buffer `"
                                         << sim_.bufferNames().name(id)
                                         << "` on PE (" << x_ << ", " << y_
                                         << ")");
}

void
Pe::checkScalar(ScalarId id) const
{
    WSC_ASSERT(scalarPresent(id.index), "invalid scalar handle "
                                            << id.index << " on PE (" << x_
                                            << ", " << y_ << ")");
}

std::vector<float> &
Pe::allocBuffer(BufferId id, size_t elems)
{
    const std::string &name = bufferName(id);
    size_t bytes = elems * sizeof(float);
    if (bytesUsed_ + bytes >
        static_cast<size_t>(sim_.params().peMemoryBytes)) {
        fatal(strcat("PE (", x_, ", ", y_, ") out of memory allocating `",
                     name, "` (", elems, " elems): ", bytesUsed_, " + ",
                     bytes, " > ", sim_.params().peMemoryBytes, " bytes"));
    }
    // Grow to the whole table at once: a program interns its names
    // before it allocates, so each PE resizes once.
    if (static_cast<size_t>(id.index) >= buffers_.size())
        buffers_.resize(sim_.bufferNames().size());
    // Re-allocation after freeBuffer() reuses the slot (and the
    // handle); double allocation of a live name is an error.
    BufferSlot &slot = buffers_[static_cast<size_t>(id.index)];
    WSC_ASSERT(!slot.live, "buffer `" << name
                                      << "` already allocated on PE ("
                                      << x_ << ", " << y_ << ")");
    slot.live = true;
    bytesUsed_ += bytes;
    slot.data.assign(elems, 0.0f);
    return slot.data;
}

BufferId
Pe::allocBufferId(const std::string &name, size_t elems)
{
    BufferId id = sim_.bufferNames().intern(name);
    allocBuffer(id, elems);
    return id;
}

std::vector<float> &
Pe::allocBuffer(const std::string &name, size_t elems)
{
    return allocBuffer(sim_.bufferNames().intern(name), elems);
}

std::vector<float> &
Pe::buffer(const std::string &name)
{
    return buffer(bufferId(name));
}

bool
Pe::bufferLive(int32_t index) const
{
    return index >= 0 && static_cast<size_t>(index) < buffers_.size() &&
           buffers_[static_cast<size_t>(index)].live;
}

std::vector<float> *
Pe::liveBuffer(BufferId id)
{
    return bufferLive(id.index)
               ? &buffers_[static_cast<size_t>(id.index)].data
               : nullptr;
}

BufferId
Pe::bufferId(const std::string &name) const
{
    BufferId id = findBuffer(name);
    WSC_ASSERT(id.valid(), "no buffer `" << name << "` on PE (" << x_
                                         << ", " << y_ << ")");
    return id;
}

BufferId
Pe::findBuffer(const std::string &name) const
{
    BufferId id = sim_.bufferNames().find(name);
    return bufferLive(id.index) ? id : BufferId{};
}

const std::string &
Pe::bufferName(BufferId id) const
{
    return sim_.bufferNames().name(id);
}

bool
Pe::hasBuffer(const std::string &name) const
{
    return findBuffer(name).valid();
}

void
Pe::freeBuffer(BufferId id)
{
    checkBufferLive(id);
    BufferSlot &slot = buffers_[static_cast<size_t>(id.index)];
    bytesUsed_ -= slot.data.size() * sizeof(float);
    slot.live = false;
    std::vector<float>().swap(slot.data); // Release the memory.
}

void
Pe::freeBuffer(const std::string &name)
{
    BufferId id = findBuffer(name);
    WSC_ASSERT(id.valid(), "freeing unknown buffer " << name);
    freeBuffer(id);
}

ScalarId
Pe::scalarId(const std::string &name)
{
    ScalarId id = sim_.scalarNames().intern(name);
    if (!scalarPresent(id.index))
        defineScalar(id, 0.0);
    return id;
}

void
Pe::defineScalar(ScalarId id, double value)
{
    WSC_ASSERT(id.index >= 0 && static_cast<size_t>(id.index) <
                                    sim_.scalarNames().size(),
               "invalid scalar handle " << id.index);
    if (static_cast<size_t>(id.index) >= scalars_.size())
        scalars_.resize(sim_.scalarNames().size());
    scalars_[static_cast<size_t>(id.index)] = ScalarSlot{value, true};
}

ScalarId
Pe::findScalar(const std::string &name) const
{
    ScalarId id = sim_.scalarNames().find(name);
    return scalarPresent(id.index) ? id : ScalarId{};
}

bool
Pe::scalarPresent(int32_t index) const
{
    return index >= 0 && static_cast<size_t>(index) < scalars_.size() &&
           scalars_[static_cast<size_t>(index)].present;
}

bool
Pe::taskPresent(int32_t index) const
{
    return index >= 0 && static_cast<size_t>(index) < tasks_.size() &&
           tasks_[static_cast<size_t>(index)].fn;
}

void
Pe::registerTask(TaskId id, TaskKind kind, TaskFn fn)
{
    const std::string &name = sim_.taskNames().name(id);
    WSC_ASSERT(!sim_.running(), "task `" << name
                                         << "` registered during a run");
    WSC_ASSERT(fn, "task `" << name << "` registered without a body");
    WSC_ASSERT(!taskPresent(id.index),
               "task `" << name << "` already registered");
    if (static_cast<size_t>(id.index) >= tasks_.size())
        tasks_.resize(sim_.taskNames().size());
    tasks_[static_cast<size_t>(id.index)] = TaskSlot{std::move(fn), kind};
}

TaskId
Pe::registerTask(const std::string &name, TaskKind kind, TaskFn fn)
{
    TaskId id = sim_.taskNames().intern(name);
    registerTask(id, kind, std::move(fn));
    return id;
}

TaskId
Pe::taskId(const std::string &name) const
{
    TaskId id = findTask(name);
    WSC_ASSERT(id.valid(), "activating unknown task `"
                               << name << "` on PE (" << x_ << ", " << y_
                               << ")");
    return id;
}

TaskId
Pe::findTask(const std::string &name) const
{
    TaskId id = sim_.taskNames().find(name);
    return taskPresent(id.index) ? id : TaskId{};
}

bool
Pe::hasTask(const std::string &name) const
{
    return findTask(name).valid();
}

void
Pe::activate(TaskId task, Cycles readyAt)
{
    WSC_ASSERT(taskPresent(task.index),
               "activating an invalid task handle on PE (" << x_ << ", "
                                                           << y_ << ")");
    pending_.emplace_back(task.index, readyAt);
    // A halted CE accepts activations (they queue for the diagnosis)
    // but never dispatches them — and schedules nothing, so a fault-free
    // run's event order is untouched by the existence of this check.
    if (!dispatchScheduled_ && !halted()) {
        dispatchScheduled_ = true;
        scheduleDispatch(std::max(readyAt, now()));
    }
}

void
Pe::activate(const std::string &name, Cycles readyAt)
{
    activate(taskId(name), readyAt);
}

void
Pe::dispatchPending()
{
    dispatchScheduled_ = false;
    if (halted())
        return; // Keep pending_ intact: the diagnosis reports it.
    if (pending_.empty())
        return;
    auto [taskIdx, readyAt] = pending_.front();
    pending_.pop_front();
    const TaskSlot &task = tasks_[static_cast<size_t>(taskIdx)];

    const ArchParams &p = sim_.params();
    Cycles ready = std::max(readyAt, now());
    // The dispatch itself costs activation overhead on the work timeline.
    Cycles start =
        reserveWork(ready, p.taskActivateCycles) + p.taskActivateCycles;

    taskActivations_++;
    shardStats().taskActivations++;

    TaskContext ctx(sim_, *this, start);
    task.fn(ctx);
    // Charge the consumed core time onto the work timeline.
    if (ctx.consumed() > 0)
        reserveWork(start, ctx.consumed());
    busyCycles_ += p.taskActivateCycles + ctx.consumed();

    if (!pending_.empty()) {
        dispatchScheduled_ = true;
        Cycles next = std::max(pending_.front().second, workFree_);
        scheduleDispatch(std::max(next, now()));
    }
}

Cycles
Pe::reserveWork(Cycles from, Cycles n)
{
    Cycles start = std::max(from, workFree_);
    if (stutterFactor_ > 1 && start >= stutterFrom_ &&
        start < stutterUntil_)
        n *= stutterFactor_;
    workFree_ = start + n;
    return start;
}

const std::string &
Pe::taskName(int32_t taskIdx) const
{
    return sim_.taskNames().name(TaskId{taskIdx});
}

void
Pe::resetStats()
{
    taskActivations_ = 0;
    busyCycles_ = 0;
}

} // namespace wsc::wse
