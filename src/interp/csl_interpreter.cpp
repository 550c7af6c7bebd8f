#include "interp/csl_interpreter.h"

#include <set>

#include "dialects/arith.h"
#include "dialects/csl.h"
#include "dialects/scf.h"
#include "support/error.h"

namespace wsc::interp {

namespace {

namespace csl = dialects::csl;
namespace ar = dialects::arith;
namespace scf = dialects::scf;

/** Find the program csl.module under root (or root itself). */
ir::Operation *
findProgramModule(ir::Operation *root)
{
    if (root->is(csl::kModule) && root->strAttr(ir::attrs::kKind) == "program")
        return root;
    ir::Operation *program = nullptr;
    root->walk([&](ir::Operation *op) {
        if (op->is(csl::kModule) && op->strAttr(ir::attrs::kKind) == "program")
            program = op;
    });
    WSC_ASSERT(program, "no program csl.module found");
    return program;
}

} // namespace

CslProgramInstance::CslProgramInstance(wse::Simulator &sim,
                                       ir::Operation *root)
    : sim_(sim), program_(findProgramModule(root))
{
    stepMarks_.resize(static_cast<size_t>(sim.width()) * sim.height());
}

void
CslProgramInstance::setFieldInit(const std::string &field, FieldInitFn init)
{
    WSC_ASSERT(!configured_, "setFieldInit after configure");
    fieldInits_[field] = std::move(init);
}

void
CslProgramInstance::setReferenceMode(bool on)
{
    WSC_ASSERT(!configured_, "setReferenceMode after configure");
    referenceMode_ = on;
}

bool
CslProgramInstance::interiorEverywhere(int x, int y) const
{
    for (const auto &comm : comms_)
        if (comm->expectedSections(x, y) == 0)
            return false;
    return true;
}

//===----------------------------------------------------------------------===
// Pre-decode compiler
//===----------------------------------------------------------------------===

/**
 * Compiles callable bodies into flat instruction vectors. SSA values get
 * dense slot indices (per callable, shared with nested scf.if bodies);
 * attributes, comparison predicates and comms specs are resolved once.
 */
class CslProgramInstance::Compiler
{
  public:
    explicit Compiler(CslProgramInstance &self) : self_(self) {}

    void
    compileCallable(const std::string &name, ir::Operation *callable)
    {
        slotIndex_.clear();
        nextSlot_ = 0;
        int idx = self_.bodyOf_.at(name);
        ir::Block *body = csl::calleeBody(callable);
        for (unsigned i = 0; i < body->numArguments(); ++i)
            self_.bodies_[idx].argSlots.push_back(
                slotOf(body->argument(i).impl()));
        compileInto(idx, body);
        self_.bodies_[idx].numSlots = nextSlot_;
    }

  private:
    int32_t
    slotOf(ir::ValueImpl *v)
    {
        auto [it, inserted] = slotIndex_.try_emplace(v, nextSlot_);
        if (inserted)
            nextSlot_++;
        return it->second;
    }

    int32_t varIdx(const std::string &name) { return self_.varIdx(name); }

    int
    newBody()
    {
        self_.bodies_.emplace_back();
        return static_cast<int>(self_.bodies_.size() - 1);
    }

    void
    compileInto(int bodyIdx, ir::Block *block)
    {
        std::vector<Instr> code;
        code.reserve(block->size());
        for (ir::Operation *op : block->operations())
            compileOp(op, code);
        self_.bodies_[bodyIdx].code = std::move(code);
    }

    void
    compileOp(ir::Operation *op, std::vector<Instr> &code)
    {
        ir::OpId n = op->opId();
        Instr ins;
        if (n == ar::kConstant) {
            ir::Attribute a = op->attr(ir::attrs::kValue);
            ins.op = Opcode::Constant;
            ins.dst = slotOf(op->result().impl());
            ins.imm = ir::isFloatAttr(a)
                          ? ir::floatAttrValue(a)
                          : static_cast<double>(ir::intAttrValue(a));
            code.push_back(ins);
            return;
        }
        if (n == ar::kAddI || n == ar::kAddF || n == ar::kSubI ||
            n == ar::kSubF || n == ar::kMulI || n == ar::kMulF ||
            n == ar::kDivF) {
            ins.op = (n == ar::kAddI || n == ar::kAddF) ? Opcode::Add
                     : (n == ar::kSubI || n == ar::kSubF)
                         ? Opcode::Sub
                         : (n == ar::kDivF) ? Opcode::Div : Opcode::Mul;
            ins.a = slotOf(op->operand(0).impl());
            ins.b = slotOf(op->operand(1).impl());
            ins.dst = slotOf(op->result().impl());
            code.push_back(ins);
            return;
        }
        if (n == ar::kCmpI) {
            const std::string &p = op->strAttr(ir::attrs::kPredicate);
            ins.op = Opcode::Cmp;
            ins.pred = p == "lt"   ? CmpPred::Lt
                       : p == "le" ? CmpPred::Le
                       : p == "gt" ? CmpPred::Gt
                       : p == "ge" ? CmpPred::Ge
                       : p == "eq" ? CmpPred::Eq
                                   : CmpPred::Ne;
            ins.a = slotOf(op->operand(0).impl());
            ins.b = slotOf(op->operand(1).impl());
            ins.dst = slotOf(op->result().impl());
            code.push_back(ins);
            return;
        }
        if (n == scf::kIf) {
            ins.op = Opcode::If;
            ins.a = slotOf(op->operand(0).impl());
            ins.body0 = newBody();
            compileInto(ins.body0, scf::ifThenBlock(op));
            if (!op->region(1).empty()) {
                ins.body1 = newBody();
                compileInto(ins.body1, scf::ifElseBlock(op));
            }
            code.push_back(ins);
            return;
        }
        if (n == scf::kYield)
            return;
        if (n == csl::kReturn) {
            ins.op = Opcode::Return;
            code.push_back(ins);
            return;
        }
        if (n == csl::kLoadVar) {
            ir::Type t = op->result().type();
            ins.var = varIdx(op->strAttr(ir::attrs::kVar));
            ins.dst = slotOf(op->result().impl());
            if (ir::isMemRef(t))
                ins.op = op->hasAttr(ir::attrs::kViaPtr) ? Opcode::LoadBufferViaPtr
                                                : Opcode::LoadBuffer;
            else if (csl::isPtrType(t))
                ins.op = Opcode::LoadPtr;
            else
                ins.op = Opcode::LoadScalar;
            code.push_back(ins);
            return;
        }
        if (n == csl::kStoreVar) {
            // Split by the operand's static type so the hot handlers
            // skip the runtime kind dispatch: memref/ptr operands
            // retarget the pointer variable, everything else stores a
            // scalar (Kind::None comptime values store 0.0, exactly as
            // the unsplit opcode did).
            ir::Type t = op->operand(0).type();
            ins.op = (ir::isMemRef(t) || csl::isPtrType(t))
                         ? Opcode::StorePtr
                         : Opcode::StoreScalar;
            ins.var = varIdx(op->strAttr(ir::attrs::kVar));
            ins.a = slotOf(op->operand(0).impl());
            code.push_back(ins);
            return;
        }
        if (n == csl::kAddressOf) {
            ins.op = Opcode::AddressOf;
            ins.var = varIdx(op->strAttr(ir::attrs::kVar));
            ins.dst = slotOf(op->result().impl());
            code.push_back(ins);
            return;
        }
        if (n == csl::kGetMemDsd) {
            ins.op = op->hasAttr(ir::attrs::kViaPtr) ? Opcode::GetMemDsdViaPtr
                                            : Opcode::GetMemDsd;
            ins.var = varIdx(op->strAttr(ir::attrs::kVar));
            ins.dst = slotOf(op->result().impl());
            ins.offset = op->intAttr(ir::attrs::kOffset);
            ins.length = op->intAttr(ir::attrs::kLength);
            ins.stride = op->intAttr(ir::attrs::kStride);
            // wrap 0 (the Dsd default) when the attribute is absent, so
            // the handler assigns unconditionally.
            ins.wrap = op->hasAttr(ir::attrs::kWrap)
                           ? op->intAttr(ir::attrs::kWrap)
                           : 0;
            code.push_back(ins);
            return;
        }
        if (n == csl::kIncrementDsdOffset || n == csl::kSetDsdLength) {
            ins.op = n == csl::kIncrementDsdOffset
                         ? Opcode::IncrementDsdOffset
                         : Opcode::SetDsdLength;
            ins.a = slotOf(op->operand(0).impl());
            ins.b = slotOf(op->operand(1).impl());
            ins.dst = slotOf(op->result().impl());
            code.push_back(ins);
            return;
        }
        if (n == csl::kFadds || n == csl::kFsubs || n == csl::kFmuls ||
            n == csl::kFmacs) {
            ins.op = n == csl::kFadds   ? Opcode::Fadds
                     : n == csl::kFsubs ? Opcode::Fsubs
                     : n == csl::kFmuls ? Opcode::Fmuls
                                        : Opcode::Fmacs;
            ins.a = slotOf(op->operand(0).impl());
            ins.b = slotOf(op->operand(1).impl());
            ins.c = slotOf(op->operand(2).impl());
            if (n == csl::kFmacs)
                ins.d = slotOf(op->operand(3).impl());
            code.push_back(ins);
            return;
        }
        if (n == csl::kFmovs) {
            ins.op = Opcode::Fmovs;
            ins.a = slotOf(op->operand(0).impl());
            ins.b = slotOf(op->operand(1).impl());
            code.push_back(ins);
            return;
        }
        if (n == csl::kCall) {
            const std::string &callee = op->strAttr(ir::attrs::kCallee);
            auto it = self_.bodyOf_.find(callee);
            ins.op = Opcode::Call;
            ins.body0 = it == self_.bodyOf_.end() ? -1 : it->second;
            ins.str = pooled(callee);
            code.push_back(ins);
            return;
        }
        if (n == csl::kActivate) {
            ins.op = Opcode::Activate;
            ins.task = self_.taskIdx(op->strAttr(ir::attrs::kTask));
            code.push_back(ins);
            return;
        }
        if (n == csl::kCommsExchange) {
            ins.op = Opcode::CommsExchange;
            ins.a = slotOf(op->operand(0).impl());
            ins.site = static_cast<uint32_t>(self_.commSiteOf_.at(op));
            code.push_back(ins);
            return;
        }
        if (n == csl::kUnblockCmdStream) {
            ins.op = Opcode::UnblockCmdStream;
            code.push_back(ins);
            return;
        }
        if (n == csl::kImportModule || n == csl::kMemberCall ||
            n == csl::kExport || n == csl::kParam) {
            // Comptime / host-interface constructs: results stay
            // Kind::None (the slots' default), no instruction needed.
            for (ir::Value r : op->results())
                slotOf(r.impl());
            return;
        }
        // Unknown op: preserve the reference semantics of panicking only
        // if and when the op is actually executed.
        for (ir::Value r : op->results())
            slotOf(r.impl());
        ins.op = Opcode::Unsupported;
        ins.str = pooled(op->name());
        code.push_back(ins);
    }

    const std::string *
    pooled(const std::string &s)
    {
        self_.stringPool_.push_back(s);
        return &self_.stringPool_.back();
    }

    CslProgramInstance &self_;
    std::map<ir::ValueImpl *, int32_t> slotIndex_;
    uint32_t nextSlot_ = 0;
};

int32_t
CslProgramInstance::varIdx(const std::string &name)
{
    auto [it, inserted] = varIndex_.try_emplace(
        name, static_cast<int32_t>(varNames_.size()));
    if (inserted)
        varNames_.push_back(name);
    return it->second;
}

int32_t
CslProgramInstance::taskIdx(const std::string &name)
{
    auto [it, inserted] = taskIndex_.try_emplace(
        name, static_cast<int32_t>(taskNames_.size()));
    if (inserted)
        taskNames_.push_back(name);
    return it->second;
}

void
CslProgramInstance::compileProgram()
{
    // Two passes so csl.call sites can resolve forward references.
    for (const auto &[name, op] : callables_) {
        bodyOf_[name] = static_cast<int>(bodies_.size());
        bodies_.emplace_back();
    }
    Compiler compiler(*this);
    for (const auto &[name, op] : callables_) {
        compiler.compileCallable(name, op);
        // Task entry: step-marker role and comms site are resolved
        // here, once, instead of per activation.
        CompiledBody &body = bodies_[bodyOf_.at(name)];
        body.marksStep = name == "for_cond0";
        body.wantsOffset = body.argSlots.size() == 1;
        if (body.wantsOffset) {
            // Lazily diagnosed: a 1-argument task that is not a
            // registered receive callback only errors if it is
            // actually activated.
            auto it = commOfRecvCb_.find(name);
            if (it != commOfRecvCb_.end())
                body.site = static_cast<int>(it->second);
        }
    }
    sealBodies();
}

void
CslProgramInstance::sealBodies()
{
    // The exec loop never bounds-checks: every body ends in an explicit
    // Return. Return's semantics are identical to falling off the end,
    // so sealing is bit-exact (and covers empty scf.if arms).
    Instr ret;
    ret.op = Opcode::Return;
    for (CompiledBody &body : bodies_)
        body.code.push_back(ret);
}

//===----------------------------------------------------------------------===
// Configuration
//===----------------------------------------------------------------------===

void
CslProgramInstance::configure()
{
    WSC_ASSERT(!configured_, "configure called twice");
    // The reference evaluator probes IR attributes at run time; the IR
    // context is not safe to touch from shard worker threads.
    WSC_ASSERT(!referenceMode_ || sim_.shardCount() == 1,
               "reference mode requires the sequential (single-shard) "
               "simulator");
    configured_ = true;

    // Deadlock introspection: after launch(), any PE that has not
    // reached unblock_cmd_stream by the time the event queues drain is
    // stuck mid-program (a halted dependency, a lost wavelet, ...).
    // Gated on launched_ so configure-without-launch runs stay clean.
    sim_.addQuiescenceProbe([this](std::vector<wse::BlockedPeInfo> &out) {
        if (!launched_)
            return;
        for (int x = 0; x < sim_.width(); ++x)
            for (int y = 0; y < sim_.height(); ++y)
                if (!peUnblocked_[sim_.pe(x, y).id()])
                    out.push_back({x, y,
                                   "program incomplete: "
                                   "unblock_cmd_stream not reached",
                                   0, false});
    });

    // --- Collect module structure ---------------------------------------
    std::vector<ir::Operation *> commsOps;
    for (ir::Operation *op : csl::moduleBody(program_)->operations()) {
        if (op->is(csl::kFunc) || op->is(csl::kTask))
            callables_[op->strAttr(ir::attrs::kSymName)] = op;
        else if (op->is(csl::kVariable))
            variables_[op->strAttr(ir::attrs::kSymName)] = op;
    }
    program_->walk([&](ir::Operation *op) {
        if (op->is(csl::kCommsExchange))
            commsOps.push_back(op);
    });
    if (ir::Attribute results = program_->attr(ir::attrs::kResultFields)) {
        for (ir::Attribute entry : ir::arrayAttrValue(results))
            resultFields_[ir::stringAttrValue(
                ir::dictAttrGet(entry, "field"))] = ResultField{
                ir::stringAttrValue(ir::dictAttrGet(entry, "var")),
                ir::intAttrValue(ir::dictAttrGet(entry, "via_ptr")) != 0};
    }

    // --- Runtime communication sites ------------------------------------
    for (size_t i = 0; i < commsOps.size(); ++i) {
        csl::CommsExchangeSpec spec =
            csl::commsExchangeSpec(commsOps[i]);
        comms::StarCommConfig config;
        for (const auto &[dx, dy] : spec.accesses)
            config.accesses.push_back(
                {static_cast<int>(dx), static_cast<int>(dy)});
        config.accesses = comms::canonicalAccessOrder(config.accesses);
        config.zSize = spec.zSize;
        config.numChunks = spec.numChunks;
        config.trimFirst = spec.trimFirst;
        config.trimLast = spec.trimLast;
        config.coeffs = spec.coeffs;
        config.recvBufferName = spec.recvBufferName;
        config.baseColor = static_cast<wse::Color>(4 * i);
        comms_.push_back(
            std::make_unique<comms::StarComm>(sim_, config));
        commSiteOf_[commsOps[i]] = i;
        commOfRecvCb_[spec.recvCallback] = i;
        siteCbNames_.emplace_back(spec.recvCallback, spec.doneCallback);
    }

    // --- Resolve everything that is the same on every PE, once ----------
    if (!referenceMode_) {
        compileProgram();
        // Intern every module variable so the handle tables cover names
        // the host touches (readFieldColumn) even when the code never
        // mentions them.
        for (const auto &[name, var] : variables_)
            varIdx(name);
    }
    planVariables();
    // One closure per callable, small enough for std::function's
    // inline buffer: registering it on a PE copies it, allocating
    // nothing.
    std::vector<std::pair<wse::TaskId, wse::TaskFn>> tasks;
    for (const auto &[name, op] : callables_) {
        wse::TaskFn fn;
        if (referenceMode_) {
            fn = [this, callable = op](wse::TaskContext &ctx) {
                runReferenceTask(callable, ctx);
            };
        } else {
            fn = [this, bodyIdx = bodyOf_.at(name)](wse::TaskContext &ctx) {
                runTask(bodyIdx, ctx);
            };
        }
        tasks.emplace_back(sim_.taskNames().intern(name), std::move(fn));
    }
    const size_t numPes = static_cast<size_t>(sim_.width()) * sim_.height();
    if (referenceMode_)
        peEnvs_.resize(numPes);

    // --- Per-PE state: buffers, initial data, scalars, tasks -------------
    std::vector<std::vector<float>> columns(initFields_.size());
    for (int x = 0; x < sim_.width(); ++x) {
        for (int y = 0; y < sim_.height(); ++y) {
            wse::Pe &pe = sim_.pe(x, y);
            const bool interior = interiorEverywhere(x, y);
            // Host data transfer: each field column is evaluated once
            // and copied into every buffer it initialises.
            for (const ColumnPlan &c :
                 interior ? interiorColumns_ : boundaryColumns_) {
                std::vector<float> &column = columns[c.field];
                const FieldInitFn &init = *initFields_[c.field];
                column.resize(c.elems);
                for (size_t z = 0; z < c.elems; ++z)
                    column[z] = init(x, y, static_cast<int>(z));
            }
            for (const VarPlan &plan : varPlans_) {
                switch (plan.kind) {
                case VarPlan::Kind::Buffer: {
                    std::vector<float> &buf =
                        pe.allocBuffer(plan.buf, plan.elems);
                    int field =
                        interior ? plan.interiorInit : plan.boundaryInit;
                    if (field >= 0)
                        std::copy_n(columns[field].begin(), plan.elems,
                                    buf.begin());
                } break;
                case VarPlan::Kind::Pointer:
                    if (referenceMode_)
                        peEnvs_[pe.id()].ptrs[plan.name] = plan.target;
                    break;
                case VarPlan::Kind::Scalar:
                    pe.defineScalar(plan.scalar, plan.init);
                    break;
                }
            }
            // Comptime role flags depend on the comm sites' view of the
            // grid.
            for (const RolePlan &role : rolePlans_) {
                bool computes =
                    role.site < 0
                        ? interior
                        : comms_[role.site]->expectedSections(x, y) > 0;
                pe.defineScalar(role.scalar, computes ? 1.0 : 0.0);
            }
            for (const auto &[id, fn] : tasks)
                pe.registerTask(id, wse::TaskKind::Local, fn);
        }
    }

    // StarComm setup after variables (its receive buffers count towards
    // the same 48 kB).
    for (auto &comm : comms_)
        comm->setup();

    if (referenceMode_)
        return;
    // The handle table resolves after StarComm::setup so library-owned
    // receive buffers resolve; each PE then only caches its data
    // pointers. The opcode loop never touches a string.
    resolveHandles();
    peRts_.resize(numPes);
    frames_.resize(static_cast<size_t>(sim_.shardCount()));
    for (int x = 0; x < sim_.width(); ++x) {
        for (int y = 0; y < sim_.height(); ++y) {
            wse::Pe &pe = sim_.pe(x, y);
            resolveColdChecks(pe, peRts_[pe.id()]);
        }
    }
}

void
CslProgramInstance::planVariables()
{
    // Buffer-rotation pool: the initial targets of all pointer
    // variables. On boundary (non-computing) PEs the host loads every
    // pool buffer with the primary wavefield's boundary-condition data,
    // making pointer rotation value-neutral there.
    std::set<std::string> rotationPool;
    std::string primaryField;
    for (const auto &[name, var] : variables_) {
        ir::Type type = ir::typeAttrValue(var->attr(ir::attrs::kType));
        if (!csl::isPtrType(type))
            continue;
        std::string target = ir::stringAttrValue(var->attr(ir::attrs::kInit));
        rotationPool.insert(target);
        if (name == "ptr_iter0")
            primaryField = target;
    }

    // Each host field that initialises something is listed once, with
    // the longest buffer it feeds on each kind of PE.
    std::map<std::string, int> fieldIndex;
    auto fieldOf = [&](const std::string &field) {
        auto it = fieldInits_.find(field);
        if (it == fieldInits_.end())
            return -1;
        auto [idx, inserted] = fieldIndex.try_emplace(
            field, static_cast<int>(initFields_.size()));
        if (inserted)
            initFields_.push_back(&it->second);
        return idx->second;
    };
    auto addColumn = [](std::vector<ColumnPlan> &columns, int field,
                        size_t elems) {
        if (field < 0)
            return;
        for (ColumnPlan &c : columns)
            if (c.field == field) {
                c.elems = std::max(c.elems, elems);
                return;
            }
        columns.push_back({field, elems});
    };

    for (const auto &[name, var] : variables_) {
        if (var->hasAttr(ir::attrs::kComptimeRole))
            rolePlans_.push_back({sim_.scalarNames().intern(name), -1});
        if (ir::Attribute site = var->attr(ir::attrs::kComptimeRoleSite))
            rolePlans_.push_back(
                {sim_.scalarNames().intern(name),
                 static_cast<int>(
                     commOfRecvCb_.at(ir::stringAttrValue(site)))});
        if (var->hasAttr(ir::attrs::kCommsOwned))
            continue; // StarComm::setup allocates these.
        ir::Type type = ir::typeAttrValue(var->attr(ir::attrs::kType));
        VarPlan plan;
        plan.name = name;
        if (ir::isMemRef(type)) {
            // Host data transfer: fields get their own init; result
            // buffers inherit from their target field; rotation-pool
            // buffers on boundary PEs all carry the primary field's
            // boundary condition.
            plan.kind = VarPlan::Kind::Buffer;
            plan.buf = sim_.bufferNames().intern(name);
            plan.elems = static_cast<size_t>(ir::numElementsOf(type));
            std::string initField;
            if (fieldInits_.count(name))
                initField = name;
            else if (var->hasAttr(ir::attrs::kInitAs))
                initField = var->strAttr(ir::attrs::kInitAs);
            plan.interiorInit = fieldOf(initField);
            plan.boundaryInit =
                !primaryField.empty() && rotationPool.count(name)
                    ? fieldOf(primaryField)
                    : plan.interiorInit;
            addColumn(interiorColumns_, plan.interiorInit, plan.elems);
            addColumn(boundaryColumns_, plan.boundaryInit, plan.elems);
        } else if (csl::isPtrType(type)) {
            plan.kind = VarPlan::Kind::Pointer;
            plan.target = ir::stringAttrValue(var->attr(ir::attrs::kInit));
        } else {
            plan.kind = VarPlan::Kind::Scalar;
            plan.scalar = sim_.scalarNames().intern(name);
            if (ir::Attribute a = var->attr(ir::attrs::kInit))
                plan.init = static_cast<double>(ir::intAttrValue(a));
        }
        varPlans_.push_back(std::move(plan));
    }
}

wse::TaskId
CslProgramInstance::programTask(const std::string &name) const
{
    wse::TaskId id = sim_.taskNames().find(name);
    WSC_ASSERT(id.valid(), "activating unknown task `" << name << "`");
    return id;
}

void
CslProgramInstance::resolveHandles()
{
    const size_t numVars = varNames_.size();
    handles_.scalar.assign(numVars, {});
    handles_.buffer.assign(numVars, {});
    handles_.ptrInit.assign(numVars, {});
    for (size_t i = 0; i < numVars; ++i) {
        const std::string &name = varNames_[i];
        bool isBufOrPtr = false;
        auto vit = variables_.find(name);
        if (vit != variables_.end()) {
            ir::Type t =
                ir::typeAttrValue(vit->second->attr(ir::attrs::kType));
            isBufOrPtr = ir::isMemRef(t) || csl::isPtrType(t);
            if (csl::isPtrType(t)) {
                std::string target = ir::stringAttrValue(
                    vit->second->attr(ir::attrs::kInit));
                handles_.ptrInit[i] = sim_.bufferNames().find(target);
                WSC_ASSERT(handles_.ptrInit[i].valid(),
                           "pointer `" << name << "` targets no buffer `"
                                       << target << "`");
            }
        }
        handles_.buffer[i] = sim_.bufferNames().find(name);
        if (!handles_.buffer[i].valid() && !isBufOrPtr) {
            handles_.scalar[i] = sim_.scalarNames().intern(name);
            if (vit == variables_.end())
                extraScalars_.push_back(handles_.scalar[i]);
        }
    }
    for (const std::string &task : taskNames_)
        handles_.task.push_back(programTask(task));
    for (const auto &[recvCb, doneCb] : siteCbNames_) {
        handles_.commRecv.push_back(programTask(recvCb));
        handles_.commDone.push_back(programTask(doneCb));
    }

    // Every scalar-accessing instruction must hold a valid handle NOW —
    // the handlers use unchecked access and never fall back to name
    // interning. A scalar op naming a buffer is a type-inconsistent
    // program; diagnose it here, not mid-run.
    for (const CompiledBody &body : bodies_)
        for (const Instr &ins : body.code)
            if (ins.op == Opcode::LoadScalar ||
                ins.op == Opcode::StoreScalar)
                WSC_ASSERT(handles_.scalar[ins.var].valid(),
                           "scalar access to non-scalar variable `"
                               << varNames_[ins.var] << "`");
}

void
CslProgramInstance::resolveColdChecks(wse::Pe &pe, PeRt &rt)
{
    // Var-table scalars the module does not declare read as 0.
    for (wse::ScalarId id : extraScalars_)
        pe.defineScalar(id, 0.0);
    // Cache every buffer's data vector. Pe stores buffer slots in a
    // deque, so the pointers are stable for the run. A variable with no
    // live buffer travels as nullptr and panics on first element access
    // (Dsd::at) — the same program point the per-access guard used to
    // fire at, one instruction later.
    const size_t numVars = varNames_.size();
    rt.bufferData.assign(numVars, nullptr);
    rt.ptrTarget = handles_.ptrInit;
    rt.ptrData.assign(numVars, nullptr);
    for (size_t i = 0; i < numVars; ++i) {
        if (handles_.buffer[i].valid())
            rt.bufferData[i] = pe.liveBuffer(handles_.buffer[i]);
        if (rt.ptrTarget[i].valid())
            rt.ptrData[i] = &pe.buffer(rt.ptrTarget[i]);
    }
}

void
CslProgramInstance::launch()
{
    WSC_ASSERT(configured_, "launch before configure");
    launched_ = true;
    peUnblocked_.assign(
        static_cast<size_t>(sim_.width()) * sim_.height(), 0);
    const wse::TaskId fMain = sim_.pe(0, 0).taskId("f_main");
    for (int x = 0; x < sim_.width(); ++x)
        for (int y = 0; y < sim_.height(); ++y)
            sim_.pe(x, y).activate(fMain, 0);
}

//===----------------------------------------------------------------------===
// Pre-decoded execution (the per-PE, per-cycle hot loop)
//===----------------------------------------------------------------------===

std::vector<CslProgramInstance::RtValue>
CslProgramInstance::FrameStack::acquire(uint32_t n)
{
    acquires++;
    if (pool.empty()) {
        fresh++;
        return std::vector<RtValue>(n);
    }
    std::vector<RtValue> frame = std::move(pool.back());
    pool.pop_back();
    if (frame.capacity() < n)
        fresh++; // Growing past the recycled capacity allocates.
    frame.resize(n);
    for (uint32_t i = 0; i < n; ++i) {
        RtValue &v = frame[i];
        v.kind = RtValue::Kind::None;
        v.num = 0.0;
        v.buf = {};
        // A stale dsd (notably wrap) must not leak into a body whose
        // GetMemDsd omits the optional attributes.
        v.dsd = wse::Dsd{};
    }
    return frame;
}

std::pair<uint64_t, uint64_t>
CslProgramInstance::frameStats() const
{
    uint64_t acquires = 0;
    uint64_t fresh = 0;
    for (const FrameStack &frames : frames_) {
        acquires += frames.acquires;
        fresh += frames.fresh;
    }
    return {acquires, fresh};
}

void
CslProgramInstance::runTask(int bodyIdx, wse::TaskContext &ctx)
{
    const CompiledBody &cb = bodies_[bodyIdx];
    const uint32_t peIdx = ctx.pe().id();
    if (cb.marksStep)
        stepMarks_[peIdx].push_back(ctx.startCycle());
    FrameStack &frames = framesOf(ctx);
    std::vector<RtValue> slots = frames.acquire(cb.numSlots);
    if (cb.wantsOffset) {
        WSC_ASSERT(cb.site >= 0, "task with a chunk-offset argument is "
                                 "not a comms receive callback");
        // Receive-chunk callback: bind the chunk offset provided by the
        // comms library.
        RtValue &offset = slots[cb.argSlots[0]];
        offset.kind = RtValue::Kind::Num;
        offset.num = static_cast<double>(
            comms_[cb.site]->popCompletedChunkOffset(ctx.pe()));
    }
    execSwitch(bodyIdx, slots, peRts_[peIdx], ctx);
    frames.release(std::move(slots));
}

void
CslProgramInstance::runCompiledCallable(int bodyIdx, PeRt &peRt,
                                        wse::TaskContext &ctx)
{
    FrameStack &frames = framesOf(ctx);
    std::vector<RtValue> slots = frames.acquire(bodies_[bodyIdx].numSlots);
    execSwitch(bodyIdx, slots, peRt, ctx);
    frames.release(std::move(slots));
}

/**
 * The compiled hot loop. `pc` never needs a bounds check: every body is
 * sealed with a Return sentinel (sealBodies()), and Return is the only
 * exit.
 *
 * Operand slots, scalar handles and buffer data pointers were validated
 * or resolved at configure() (resolveColdChecks()), so the handlers do
 * no name lookups and no validity checks. Buffer/Ptr-kind RtValues
 * carry their data pointer in v.dsd.buf so StorePtr keeps the
 * ptrTarget/ptrData pair in lock step without a handle lookup; a
 * missing buffer travels as nullptr and panics on first element access
 * (Dsd::at), not here.
 */
void
CslProgramInstance::execSwitch(int bodyIdx, std::vector<RtValue> &slots,
                               PeRt &peRt, wse::TaskContext &ctx)
{
    wse::Pe &pe = ctx.pe();
    for (const Instr *pc = bodies_[bodyIdx].code.data();; ++pc) {
        const Instr &ins = *pc;
        switch (ins.op) {
        case Opcode::Constant: {
            RtValue &v = slots[ins.dst];
            v.kind = RtValue::Kind::Num;
            v.num = ins.imm;
        } break;
        case Opcode::Add: {
            RtValue &v = slots[ins.dst];
            v.kind = RtValue::Kind::Num;
            v.num = slots[ins.a].num + slots[ins.b].num;
            ctx.consume(1);
        } break;
        case Opcode::Sub: {
            RtValue &v = slots[ins.dst];
            v.kind = RtValue::Kind::Num;
            v.num = slots[ins.a].num - slots[ins.b].num;
            ctx.consume(1);
        } break;
        case Opcode::Mul: {
            RtValue &v = slots[ins.dst];
            v.kind = RtValue::Kind::Num;
            v.num = slots[ins.a].num * slots[ins.b].num;
            ctx.consume(1);
        } break;
        case Opcode::Div: {
            RtValue &v = slots[ins.dst];
            v.kind = RtValue::Kind::Num;
            v.num = slots[ins.a].num / slots[ins.b].num;
            ctx.consume(1);
        } break;
        case Opcode::Cmp: {
            double a = slots[ins.a].num;
            double b = slots[ins.b].num;
            bool r = ins.pred == CmpPred::Lt   ? a < b
                     : ins.pred == CmpPred::Le ? a <= b
                     : ins.pred == CmpPred::Gt ? a > b
                     : ins.pred == CmpPred::Ge ? a >= b
                     : ins.pred == CmpPred::Eq ? a == b
                                               : a != b;
            RtValue &v = slots[ins.dst];
            v.kind = RtValue::Kind::Num;
            v.num = r ? 1.0 : 0.0;
            ctx.consume(1);
        } break;
        case Opcode::If: {
            bool cond = slots[ins.a].num != 0.0;
            ctx.consume(1);
            int branch = cond ? ins.body0 : ins.body1;
            if (branch >= 0)
                execSwitch(branch, slots, peRt, ctx);
        } break;
        case Opcode::Return:
            return;
        case Opcode::LoadScalar: {
            RtValue &v = slots[ins.dst];
            v.kind = RtValue::Kind::Num;
            v.num = pe.scalarUnchecked(handles_.scalar[ins.var]);
            ctx.consume(1);
        } break;
        case Opcode::LoadBuffer: {
            RtValue &v = slots[ins.dst];
            v.kind = RtValue::Kind::Buffer;
            v.buf = handles_.buffer[ins.var];
            v.dsd.buf = peRt.bufferData[ins.var];
            ctx.consume(1);
        } break;
        case Opcode::LoadBufferViaPtr: {
            RtValue &v = slots[ins.dst];
            v.kind = RtValue::Kind::Buffer;
            v.buf = peRt.ptrTarget[ins.var];
            v.dsd.buf = peRt.ptrData[ins.var];
            ctx.consume(1);
        } break;
        case Opcode::LoadPtr: {
            RtValue &v = slots[ins.dst];
            v.kind = RtValue::Kind::Ptr;
            v.buf = peRt.ptrTarget[ins.var];
            v.dsd.buf = peRt.ptrData[ins.var];
            ctx.consume(1);
        } break;
        case Opcode::StoreScalar: {
            pe.scalarUnchecked(handles_.scalar[ins.var]) = slots[ins.a].num;
            ctx.consume(1);
        } break;
        case Opcode::StorePtr: {
            const RtValue &v = slots[ins.a];
            peRt.ptrTarget[ins.var] = v.buf;
            peRt.ptrData[ins.var] = v.dsd.buf;
            ctx.consume(1);
        } break;
        case Opcode::AddressOf: {
            RtValue &v = slots[ins.dst];
            v.kind = RtValue::Kind::Ptr;
            v.buf = handles_.buffer[ins.var];
            v.dsd.buf = peRt.bufferData[ins.var];
        } break;
        case Opcode::GetMemDsd: {
            RtValue &v = slots[ins.dst];
            v.kind = RtValue::Kind::DsdVal;
            v.buf = handles_.buffer[ins.var];
            v.dsd.buf = peRt.bufferData[ins.var];
            v.dsd.offset = ins.offset;
            v.dsd.length = ins.length;
            v.dsd.stride = ins.stride;
            v.dsd.wrap = ins.wrap;
            ctx.consume(2); // DSD configuration is cheap but not free.
        } break;
        case Opcode::GetMemDsdViaPtr: {
            RtValue &v = slots[ins.dst];
            v.kind = RtValue::Kind::DsdVal;
            v.buf = peRt.ptrTarget[ins.var];
            v.dsd.buf = peRt.ptrData[ins.var];
            v.dsd.offset = ins.offset;
            v.dsd.length = ins.length;
            v.dsd.stride = ins.stride;
            v.dsd.wrap = ins.wrap;
            ctx.consume(2);
        } break;
        case Opcode::IncrementDsdOffset: {
            RtValue &v = slots[ins.dst];
            v = slots[ins.a];
            v.dsd.offset += static_cast<int64_t>(slots[ins.b].num);
            ctx.consume(1);
        } break;
        case Opcode::SetDsdLength: {
            RtValue &v = slots[ins.dst];
            v = slots[ins.a];
            v.dsd.length = static_cast<int64_t>(slots[ins.b].num);
            ctx.consume(1);
        } break;
        case Opcode::Fadds:
            wse::fadds(ctx, slots[ins.a].dsd, asDsdOperand(slots[ins.b]),
                       asDsdOperand(slots[ins.c]));
            break;
        case Opcode::Fsubs:
            wse::fsubs(ctx, slots[ins.a].dsd, asDsdOperand(slots[ins.b]),
                       asDsdOperand(slots[ins.c]));
            break;
        case Opcode::Fmuls:
            wse::fmuls(ctx, slots[ins.a].dsd, asDsdOperand(slots[ins.b]),
                       asDsdOperand(slots[ins.c]));
            break;
        case Opcode::Fmovs:
            wse::fmovs(ctx, slots[ins.a].dsd, asDsdOperand(slots[ins.b]));
            break;
        case Opcode::Fmacs:
            wse::fmacs(ctx, slots[ins.a].dsd, asDsdOperand(slots[ins.b]),
                       asDsdOperand(slots[ins.c]),
                       static_cast<float>(slots[ins.d].num));
            break;
        case Opcode::Call:
            WSC_ASSERT(ins.body0 >= 0, "call of unknown symbol " << *ins.str);
            runCompiledCallable(ins.body0, peRt, ctx);
            ctx.consume(2);
            break;
        case Opcode::Activate:
            pe.activate(handles_.task[ins.task], ctx.currentCycle());
            ctx.consume(2);
            break;
        case Opcode::CommsExchange: {
            const RtValue &send = slots[ins.a];
            WSC_ASSERT(send.kind == RtValue::Kind::DsdVal,
                       "comms_exchange expects a DSD operand");
            comms_[ins.site]->exchange(ctx, send.buf,
                                       handles_.commRecv[ins.site],
                                       handles_.commDone[ins.site]);
            ctx.consume(4);
        } break;
        case Opcode::UnblockCmdStream:
            unblockCount_.fetch_add(1, std::memory_order_relaxed);
            peUnblocked_[pe.id()] = 1;
            break;
        case Opcode::Nop:
            break;
        case Opcode::Unsupported:
            // Lazy by design: an unknown op only errors if actually
            // executed (matching the reference evaluator).
            panic("csl interpreter: unsupported op " + *ins.str);
        }
    }
}

//===----------------------------------------------------------------------===
// Reference tree-walking evaluator (the semantic oracle)
//===----------------------------------------------------------------------===

CslProgramInstance::RtValue
CslProgramInstance::evalOperand(const SsaEnv &env, ir::Value v) const
{
    auto it = env.find(v.impl());
    WSC_ASSERT(it != env.end(), "use of an unevaluated SSA value");
    return it->second;
}

wse::DsdOperand
CslProgramInstance::asDsdOperand(const RtValue &v) const
{
    if (v.kind == RtValue::Kind::DsdVal)
        return wse::DsdOperand::fromDsd(v.dsd);
    WSC_ASSERT(v.kind == RtValue::Kind::Num,
               "builtin operand must be a DSD or scalar");
    return wse::DsdOperand::fromScalar(static_cast<float>(v.num));
}

void
CslProgramInstance::runReferenceTask(ir::Operation *callable,
                                     wse::TaskContext &ctx)
{
    const std::string &name = callable->strAttr(ir::attrs::kSymName);
    const uint32_t peIdx = ctx.pe().id();
    if (name == "for_cond0")
        stepMarks_[peIdx].push_back(ctx.startCycle());
    SsaEnv env;
    ir::Block *body = csl::calleeBody(callable);
    if (body->numArguments() == 1) {
        // Receive-chunk callback: bind the chunk offset provided by the
        // comms library.
        size_t site = commOfRecvCb_.at(name);
        RtValue offset;
        offset.kind = RtValue::Kind::Num;
        offset.num = static_cast<double>(
            comms_[site]->popCompletedChunkOffset(ctx.pe()));
        env[body->argument(0).impl()] = offset;
    }
    execBody(body, env, peEnvs_[peIdx], ctx);
}

void
CslProgramInstance::runCallable(const std::string &name, PeEnv &peEnv,
                                wse::TaskContext &ctx)
{
    auto it = callables_.find(name);
    WSC_ASSERT(it != callables_.end(), "call of unknown symbol " << name);
    SsaEnv env;
    execBody(csl::calleeBody(it->second), env, peEnv, ctx);
}

void
CslProgramInstance::execBody(ir::Block *block, SsaEnv &env, PeEnv &peEnv,
                             wse::TaskContext &ctx)
{
    wse::Pe &pe = ctx.pe();
    for (ir::Operation *op : block->operations()) {
        ir::OpId n = op->opId();
        if (n == ar::kConstant) {
            RtValue v;
            v.kind = RtValue::Kind::Num;
            ir::Attribute a = op->attr(ir::attrs::kValue);
            v.num = ir::isFloatAttr(a) ? ir::floatAttrValue(a)
                                       : static_cast<double>(
                                             ir::intAttrValue(a));
            env[op->result().impl()] = v;
            continue;
        }
        if (n == ar::kAddI || n == ar::kSubI || n == ar::kMulI ||
            n == ar::kAddF || n == ar::kSubF || n == ar::kMulF ||
            n == ar::kDivF) {
            double a = evalOperand(env, op->operand(0)).num;
            double b = evalOperand(env, op->operand(1)).num;
            double r = 0.0;
            if (n == ar::kAddI || n == ar::kAddF)
                r = a + b;
            else if (n == ar::kSubI || n == ar::kSubF)
                r = a - b;
            else if (n == ar::kMulI || n == ar::kMulF)
                r = a * b;
            else
                r = a / b;
            RtValue v;
            v.kind = RtValue::Kind::Num;
            v.num = r;
            env[op->result().impl()] = v;
            ctx.consume(1);
            continue;
        }
        if (n == ar::kCmpI) {
            double a = evalOperand(env, op->operand(0)).num;
            double b = evalOperand(env, op->operand(1)).num;
            const std::string &p = op->strAttr(ir::attrs::kPredicate);
            bool r = p == "lt"   ? a < b
                     : p == "le" ? a <= b
                     : p == "gt" ? a > b
                     : p == "ge" ? a >= b
                     : p == "eq" ? a == b
                                 : a != b;
            RtValue v;
            v.kind = RtValue::Kind::Num;
            v.num = r ? 1.0 : 0.0;
            env[op->result().impl()] = v;
            ctx.consume(1);
            continue;
        }
        if (n == scf::kIf) {
            bool cond = evalOperand(env, op->operand(0)).num != 0.0;
            ctx.consume(1);
            ir::Block *branch = cond ? scf::ifThenBlock(op)
                                     : (op->region(1).empty()
                                            ? nullptr
                                            : scf::ifElseBlock(op));
            if (branch)
                execBody(branch, env, peEnv, ctx);
            continue;
        }
        if (n == scf::kYield)
            continue;
        if (n == csl::kReturn)
            return;
        if (n == csl::kLoadVar) {
            const std::string &var = op->strAttr(ir::attrs::kVar);
            ir::Type t = op->result().type();
            RtValue v;
            if (ir::isMemRef(t)) {
                v.kind = RtValue::Kind::Buffer;
                v.str = op->hasAttr(ir::attrs::kViaPtr) ? peEnv.ptrs.at(var) : var;
            } else if (csl::isPtrType(t)) {
                v.kind = RtValue::Kind::Ptr;
                v.str = peEnv.ptrs.at(var);
            } else {
                v.kind = RtValue::Kind::Num;
                v.num = pe.scalar(var);
            }
            env[op->result().impl()] = v;
            ctx.consume(1);
            continue;
        }
        if (n == csl::kStoreVar) {
            const std::string &var = op->strAttr(ir::attrs::kVar);
            RtValue v = evalOperand(env, op->operand(0));
            if (v.kind == RtValue::Kind::Ptr ||
                v.kind == RtValue::Kind::Buffer)
                peEnv.ptrs[var] = v.str;
            else
                pe.scalar(var) = v.num;
            ctx.consume(1);
            continue;
        }
        if (n == csl::kAddressOf) {
            RtValue v;
            v.kind = RtValue::Kind::Ptr;
            v.str = op->strAttr(ir::attrs::kVar);
            env[op->result().impl()] = v;
            continue;
        }
        if (n == csl::kGetMemDsd) {
            const std::string &var = op->strAttr(ir::attrs::kVar);
            std::string bufName =
                op->hasAttr(ir::attrs::kViaPtr) ? peEnv.ptrs.at(var) : var;
            RtValue v;
            v.kind = RtValue::Kind::DsdVal;
            v.str = bufName;
            v.dsd.buf = &pe.buffer(bufName);
            v.dsd.offset = op->intAttr(ir::attrs::kOffset);
            v.dsd.length = op->intAttr(ir::attrs::kLength);
            v.dsd.stride = op->intAttr(ir::attrs::kStride);
            if (op->hasAttr(ir::attrs::kWrap))
                v.dsd.wrap = op->intAttr(ir::attrs::kWrap);
            env[op->result().impl()] = v;
            ctx.consume(2); // DSD configuration is cheap but not free.
            continue;
        }
        if (n == csl::kIncrementDsdOffset) {
            RtValue v = evalOperand(env, op->operand(0));
            double delta = evalOperand(env, op->operand(1)).num;
            v.dsd.offset += static_cast<int64_t>(delta);
            env[op->result().impl()] = v;
            ctx.consume(1);
            continue;
        }
        if (n == csl::kSetDsdLength) {
            RtValue v = evalOperand(env, op->operand(0));
            v.dsd.length = static_cast<int64_t>(
                evalOperand(env, op->operand(1)).num);
            env[op->result().impl()] = v;
            ctx.consume(1);
            continue;
        }
        if (n == csl::kFadds || n == csl::kFsubs || n == csl::kFmuls) {
            wse::Dsd dest = evalOperand(env, op->operand(0)).dsd;
            wse::DsdOperand a =
                asDsdOperand(evalOperand(env, op->operand(1)));
            wse::DsdOperand b =
                asDsdOperand(evalOperand(env, op->operand(2)));
            if (n == csl::kFadds)
                wse::fadds(ctx, dest, a, b);
            else if (n == csl::kFsubs)
                wse::fsubs(ctx, dest, a, b);
            else
                wse::fmuls(ctx, dest, a, b);
            continue;
        }
        if (n == csl::kFmovs) {
            wse::Dsd dest = evalOperand(env, op->operand(0)).dsd;
            wse::DsdOperand src =
                asDsdOperand(evalOperand(env, op->operand(1)));
            wse::fmovs(ctx, dest, src);
            continue;
        }
        if (n == csl::kFmacs) {
            wse::Dsd dest = evalOperand(env, op->operand(0)).dsd;
            wse::DsdOperand a =
                asDsdOperand(evalOperand(env, op->operand(1)));
            wse::DsdOperand b =
                asDsdOperand(evalOperand(env, op->operand(2)));
            double scalar = evalOperand(env, op->operand(3)).num;
            wse::fmacs(ctx, dest, a, b, static_cast<float>(scalar));
            continue;
        }
        if (n == csl::kCall) {
            runCallable(op->strAttr(ir::attrs::kCallee), peEnv, ctx);
            ctx.consume(2);
            continue;
        }
        if (n == csl::kActivate) {
            pe.activate(op->strAttr(ir::attrs::kTask), ctx.currentCycle());
            ctx.consume(2);
            continue;
        }
        if (n == csl::kCommsExchange) {
            size_t site = commSiteOf_.at(op);
            RtValue send = evalOperand(env, op->operand(0));
            WSC_ASSERT(send.kind == RtValue::Kind::DsdVal,
                       "comms_exchange expects a DSD operand");
            csl::CommsExchangeSpec spec = csl::commsExchangeSpec(op);
            comms_[site]->exchange(ctx, send.str, spec.recvCallback,
                                   spec.doneCallback);
            ctx.consume(4);
            continue;
        }
        if (n == csl::kUnblockCmdStream) {
            unblockCount_++;
            peUnblocked_[pe.id()] = 1;
            continue;
        }
        if (n == csl::kImportModule || n == csl::kMemberCall ||
            n == csl::kExport || n == csl::kParam) {
            // Comptime / host-interface constructs: no runtime effect in
            // the interpreter.
            for (ir::Value r : op->results()) {
                RtValue v;
                v.kind = RtValue::Kind::None;
                env[r.impl()] = v;
            }
            continue;
        }
        panic("csl interpreter: unsupported op " + n.str());
    }
}

//===----------------------------------------------------------------------===
// Host readback
//===----------------------------------------------------------------------===

std::vector<float>
CslProgramInstance::readFieldColumn(const std::string &field, int x, int y)
{
    // Resolve through the program's result mapping (read at
    // configure()).
    WSC_ASSERT(configured_, "readFieldColumn before configure");
    auto mapped = resultFields_.find(field);
    const std::string &var =
        mapped != resultFields_.end() ? mapped->second.var : field;
    const bool viaPtr =
        mapped != resultFields_.end() && mapped->second.viaPtr;
    wse::Pe &pe = sim_.pe(x, y);
    if (!viaPtr)
        return pe.buffer(var);
    if (referenceMode_)
        return pe.buffer(peEnvs_[pe.id()].ptrs.at(var));
    // Compiled mode tracks pointer rotation in the dense-handle tables,
    // not the (reference-mode) string environment.
    auto it = varIndex_.find(var);
    WSC_ASSERT(it != varIndex_.end(), "unknown pointer variable `" << var
                                                                   << "`");
    return pe.buffer(peRts_[pe.id()].ptrTarget[it->second]);
}

const std::vector<wse::Cycles> &
CslProgramInstance::stepMarks(int x, int y) const
{
    return stepMarks_[static_cast<size_t>(x) * sim_.height() + y];
}

size_t
CslProgramInstance::memoryBytesUsed(int x, int y)
{
    return sim_.pe(x, y).memoryBytesUsed();
}

} // namespace wsc::interp
