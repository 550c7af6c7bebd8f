/**
 * @file
 * The csl-ir interpreter: instantiates a lowered csl.module program on
 * every PE of a simulated WSE and executes it under the simulator's
 * timing model. This stands in for the Cerebras SDK compiler + hardware:
 * the very IR the CSL printer emits as source code is executed, so the
 * generated program structure (tasks, callbacks, DSD builtins, chunked
 * exchanges) is what gets measured.
 *
 * configure() resolves everything that is the same on every PE once
 * per program: it pre-decodes every callable body into a flat vector of
 * opcode + operand-slot instructions (SSA values become dense slot
 * indices; attributes and comms specs are resolved up front), builds a
 * per-variable plan (kind, size, initial field, role flags), resolves
 * the scalar/buffer/task/comms handles in one program-wide table (the
 * simulator's name tables give a name the same handle on every PE) and
 * validates the scalar accesses. The per-PE loop then only allocates
 * buffers, copies initial data, sets role flags and caches buffer data
 * pointers, so the hot loop performs no validity checks or name
 * lookups. Each task activation runs one portable `for(;;) switch`
 * loop over its body (docs/architecture.md §8).
 *
 * The original tree-walking evaluator is kept behind
 * setReferenceMode(true) as the semantic oracle: the compiled path must
 * match it bit for bit (`ctest -L interp`).
 */

#ifndef WSC_INTERP_CSL_INTERPRETER_H
#define WSC_INTERP_CSL_INTERPRETER_H

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "comms/star_comm.h"
#include "dialects/csl.h"
#include "interp/interp_opcodes.h"
#include "ir/operation.h"
#include "wse/dsd.h"
#include "wse/simulator.h"

namespace wsc::interp {

/** Host-side initial condition for one field: value at (x, y, z). */
using FieldInitFn = std::function<float(int x, int y, int z)>;

/** One program instance mapped across the simulated PE grid. */
class CslProgramInstance
{
  public:
    /**
     * `root` is either the final builtin.module (layout + program
     * csl.modules) or the program csl.module itself. The IR must outlive
     * this instance.
     */
    CslProgramInstance(wse::Simulator &sim, ir::Operation *root);

    /** Host data transfer: set a field's initial contents. Must be
     *  called before configure(). */
    void setFieldInit(const std::string &field, FieldInitFn init);

    /**
     * Execute through the reference tree-walking evaluator instead of
     * the pre-decoded instruction stream. Must be called before
     * configure(). Both modes are semantically identical (asserted by
     * the dispatch-equivalence tests); the reference mode exists as the
     * oracle for those tests.
     */
    void setReferenceMode(bool on);

    /** Allocate variables, wire the runtime comms library, register
     *  tasks on every PE. */
    void configure();

    /** Host launch: invoke f_main on every PE (memcpy RPC). */
    void launch();

    /**
     * Read back a field column through the result mapping (resolves
     * pointer rotation). Falls back to the field's own buffer when the
     * program records no result for it.
     */
    std::vector<float> readFieldColumn(const std::string &field, int x,
                                       int y);

    /** PEs that returned control to the host (unblock_cmd_stream). */
    uint64_t unblockCount() const
    {
        return unblockCount_.load(std::memory_order_relaxed);
    }

    /** Frame-arena telemetry summed over shards: (acquires, heap-backed
     *  frames created). Steady state acquires without creating. */
    std::pair<uint64_t, uint64_t> frameStats() const;

    /** Dispatch timestamps of for_cond0 on a PE (per-step markers). */
    const std::vector<wse::Cycles> &stepMarks(int x, int y) const;

    /** The runtime communication sites (for statistics). */
    const std::vector<std::unique_ptr<comms::StarComm>> &commSites() const
    {
        return comms_;
    }

    /** Per-PE memory in use after configure (bytes), for reporting. */
    size_t memoryBytesUsed(int x, int y);

  private:
    struct RtValue
    {
        enum class Kind { None, Num, Buffer, DsdVal, Ptr };
        Kind kind = Kind::None;
        double num = 0.0;
        /** Dense buffer handle (compiled mode): the buffer (Buffer,
         *  DsdVal) or the pointer target (Ptr). */
        wse::BufferId buf;
        std::string str; ///< buffer name / target (reference mode only)
        /** DSD view; for Buffer/Ptr kinds only dsd.buf is meaningful
         *  (the cached data pointer riding with the handle). */
        wse::Dsd dsd;
    };

    /** Reference-mode pointer-variable targets (buffer names). */
    struct PeEnv
    {
        std::map<std::string, std::string> ptrs;
    };

    /** What configure() does to every PE for one module variable,
     *  resolved once per program. */
    struct VarPlan
    {
        enum class Kind { Buffer, Pointer, Scalar };
        Kind kind = Kind::Scalar;
        std::string name;
        /// @name Buffer
        /// @{
        wse::BufferId buf;
        size_t elems = 0;
        /** Index into initFields_ of the column copied in on interior
         *  and on boundary PEs; -1 leaves the buffer zeroed. */
        int interiorInit = -1;
        int boundaryInit = -1;
        /// @}
        /** Pointer: the initial target buffer's name. */
        std::string target;
        /// @name Scalar
        /// @{
        wse::ScalarId scalar;
        double init = 0.0;
        /// @}
    };

    /** A comptime role flag: 1 on PEs that compute, 0 on boundary PEs,
     *  for every comms site (site -1) or for one. */
    struct RolePlan
    {
        wse::ScalarId scalar;
        int site = -1;
    };

    /** One host field column loaded on one kind of PE: initFields_
     *  index and the length covering every buffer it initialises. */
    struct ColumnPlan
    {
        int field = -1;
        size_t elems = 0;
    };

    /// @name Pre-decoded form
    /// @{

    /** Comparison predicates, pre-decoded from the string attribute. */
    enum class CmpPred : uint8_t { Lt, Le, Gt, Ge, Eq, Ne };

    struct Instr
    {
        Opcode op = Opcode::Nop;
        CmpPred pred = CmpPred::Lt;
        /** Result slot; -1 when the op produces nothing. */
        int32_t dst = -1;
        /** Operand slots (c: third DSD-builtin operand, d: the
         *  fmacs scalar). */
        int32_t a = -1, b = -1, c = -1, d = -1;
        /** Constant payload. */
        double imm = 0.0;
        /** DSD shape (GetMemDsd); wrap 0 = no broadcast wrap. */
        int64_t offset = 0, length = 0, stride = 1, wrap = 0;
        /** Variable table index (loads/stores/DSDs/addressof). */
        int32_t var = -1;
        /** Task table index (Activate). */
        int32_t task = -1;
        /** Nested bodies: then/else for If, callee for Call. */
        int32_t body0 = -1, body1 = -1;
        /** Comms site index (CommsExchange). */
        uint32_t site = 0;
        /** Pooled string payload (diagnostics only). */
        const std::string *str = nullptr;
    };

    struct CompiledBody
    {
        /** Instruction stream; always terminated by a Return sentinel
         *  so the exec loop never bounds-checks its program counter. */
        std::vector<Instr> code;
        /** Slot count; meaningful on callable roots only. */
        uint32_t numSlots = 0;
        /** Callable entry-block argument slots, in order. */
        std::vector<int32_t> argSlots;
        /// @name Task entry (callable roots only)
        /// @{
        /** for_cond0 records a per-step marker at each dispatch. */
        bool marksStep = false;
        /** The body takes the chunk offset of a comms receive. */
        bool wantsOffset = false;
        /** Comms site whose receive callback this is; -1 if none (an
         *  offset-taking task that is not one panics when run). */
        int site = -1;
        /// @}
    };

    /**
     * Recycled stack of RtValue slot frames, one per simulator shard:
     * the exec loop gets its frame from here instead of constructing a
     * std::vector per activation — after warmup, task dispatch performs
     * zero heap allocations. A shard's events run on one thread at a
     * time and each activation releases its frames before the next one
     * starts, so the stack needs no lock and holds only the nesting
     * depth's worth of frames. Frames are vectors so nested activations
     * (csl.call) simply pop another one; released frames keep their
     * capacity. Cache-line aligned so shards' counters never share a
     * line.
     */
    struct alignas(64) FrameStack
    {
        std::vector<std::vector<RtValue>> pool;
        uint64_t acquires = 0;
        /** Acquires that allocated (empty pool or capacity growth). */
        uint64_t fresh = 0;

        std::vector<RtValue> acquire(uint32_t n);
        void
        release(std::vector<RtValue> &&frame)
        {
            pool.push_back(std::move(frame));
        }
    };

    /**
     * Program-wide dense handles, resolved once at configure(). The
     * simulator's name tables give a name the same handle on every PE,
     * so the opcode loop indexes these with no per-PE table and no
     * string.
     */
    struct Handles
    {
        /** Scalar handle per var-table index (invalid = not a scalar;
         *  validated at configure for every scalar-accessing instr). */
        std::vector<wse::ScalarId> scalar;
        /** Buffer handle per var-table index (invalid = no buffer). */
        std::vector<wse::BufferId> buffer;
        /** Initial pointer target per var-table index (invalid = not
         *  a pointer variable). */
        std::vector<wse::BufferId> ptrInit;
        /** Task handle per task-table index (Activate targets). */
        std::vector<wse::TaskId> task;
        /** Receive / done callback task per comms site. */
        std::vector<wse::TaskId> commRecv;
        std::vector<wse::TaskId> commDone;
    };

    /**
     * Per-PE data the opcode loop needs, built once at configure():
     * buffer data pointers are pre-resolved so the hot handlers carry
     * no per-access checks, and pointer rotation is per-PE state.
     */
    struct PeRt
    {
        /** Buffer data per var-table index (nullptr = no buffer);
         *  stable for the run — Pe buffer slots live in a deque. */
        std::vector<std::vector<float> *> bufferData;
        /** Pointer-variable target buffer per var-table index; mutated
         *  by StorePtr at run time (pointer rotation). */
        std::vector<wse::BufferId> ptrTarget;
        /** Data of ptrTarget, kept in lock step by StorePtr. */
        std::vector<std::vector<float> *> ptrData;
    };

    /** Where readFieldColumn() finds a field (the result mapping). */
    struct ResultField
    {
        std::string var;
        bool viaPtr = false;
    };

    class Compiler;
    friend class Compiler;

    void compileProgram();
    /** Append the Return sentinel the exec loop relies on. */
    void sealBodies();
    /** Build the variable, role and column plans (both modes). */
    void planVariables();
    /** Resolve the program-wide handle table, after StarComm::setup so
     *  library-owned receive buffers resolve, and validate every scalar
     *  access once (panics at configure, not mid-run). */
    void resolveHandles();
    /** Cache one PE's buffer data pointers (compiled mode). */
    void resolveColdChecks(wse::Pe &pe, PeRt &rt);
    /** Handle of a task this program registers; panics when unknown. */
    wse::TaskId programTask(const std::string &name) const;

    /** The compiled task entry: one closure per callable, the PE comes
     *  from ctx. */
    void runTask(int bodyIdx, wse::TaskContext &ctx);
    /** The reference-mode task entry. */
    void runReferenceTask(ir::Operation *callable, wse::TaskContext &ctx);
    /** Run one compiled body (the per-PE hot loop). */
    void execSwitch(int bodyIdx, std::vector<RtValue> &slots, PeRt &peRt,
                    wse::TaskContext &ctx);
    void runCompiledCallable(int bodyIdx, PeRt &peRt,
                             wse::TaskContext &ctx);
    /** The frame stack of the shard executing `ctx`. */
    FrameStack &
    framesOf(wse::TaskContext &ctx)
    {
        return frames_[static_cast<size_t>(ctx.pe().shard().index())];
    }
    /// @}

    using SsaEnv = std::map<ir::ValueImpl *, RtValue>;

    void execBody(ir::Block *block, SsaEnv &env, PeEnv &peEnv,
                  wse::TaskContext &ctx);
    RtValue evalOperand(const SsaEnv &env, ir::Value v) const;
    wse::DsdOperand asDsdOperand(const RtValue &v) const;
    void runCallable(const std::string &name, PeEnv &peEnv,
                     wse::TaskContext &ctx);
    bool interiorEverywhere(int x, int y) const;

    wse::Simulator &sim_;
    ir::Operation *program_ = nullptr;
    std::map<std::string, ir::Operation *> callables_;
    std::map<std::string, ir::Operation *> variables_;
    std::map<std::string, FieldInitFn> fieldInits_;
    std::vector<std::unique_ptr<comms::StarComm>> comms_;
    /** comms site index per csl.comms_exchange op. */
    std::map<ir::Operation *, size_t> commSiteOf_;
    /** comms site per receive-callback task name. */
    std::map<std::string, size_t> commOfRecvCb_;
    /** Reference mode only. */
    std::vector<PeEnv> peEnvs_;
    std::vector<std::vector<wse::Cycles>> stepMarks_;
    /** Per-variable plan (module variables, comms-owned ones
     *  excluded) and comptime role flags. */
    std::vector<VarPlan> varPlans_;
    std::vector<RolePlan> rolePlans_;
    /** Host fields that initialise some buffer, and the columns each
     *  kind of PE loads from them. */
    std::vector<const FieldInitFn *> initFields_;
    std::vector<ColumnPlan> interiorColumns_;
    std::vector<ColumnPlan> boundaryColumns_;
    /** Result mapping per host field (program result_fields). */
    std::map<std::string, ResultField> resultFields_;
    /** Atomic: incremented from any shard's worker thread. */
    std::atomic<uint64_t> unblockCount_{0};
    /**
     * Per-PE unblock_cmd_stream flag feeding the deadlock diagnosis
     * (each entry is only written by its own PE's events). Valid after
     * launch(); the quiescence probe names PEs whose flag never set.
     */
    std::vector<char> peUnblocked_;
    bool configured_ = false;
    bool launched_ = false;
    bool referenceMode_ = false;

    /// @name Compiled program (shared across PEs)
    /// @{
    /** Intern a variable name into the var table. */
    int32_t varIdx(const std::string &name);
    /** Intern a task name into the task table. */
    int32_t taskIdx(const std::string &name);

    std::vector<CompiledBody> bodies_;
    std::map<std::string, int> bodyOf_;
    std::vector<std::string> varNames_;
    std::map<std::string, int32_t> varIndex_;
    /** Activate-target task names (handles live in handles_). */
    std::vector<std::string> taskNames_;
    std::map<std::string, int32_t> taskIndex_;
    /** Receive / done callback names per comms site. */
    std::vector<std::pair<std::string, std::string>> siteCbNames_;
    std::deque<std::string> stringPool_;
    Handles handles_;
    /** Var-table scalars that are not module variables: defined (0) on
     *  every PE. */
    std::vector<wse::ScalarId> extraScalars_;
    std::vector<PeRt> peRts_;
    /** Recycled activation frames, one stack per simulator shard. */
    std::vector<FrameStack> frames_;
    /// @}
};

} // namespace wsc::interp

#endif // WSC_INTERP_CSL_INTERPRETER_H
