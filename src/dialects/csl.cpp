#include "dialects/csl.h"

#include "support/error.h"

namespace wsc::dialects::csl {

ir::Type
getDsdType(ir::Context &ctx, const std::string &kind)
{
    return ir::getType(ctx, "csl.dsd", {}, {}, {kind});
}

bool
isDsdType(ir::Type t)
{
    return t && t.kind() == "csl.dsd";
}

ir::Type
getPtrType(ir::Context &ctx, ir::Type pointee)
{
    return ir::getType(ctx, "csl.ptr", {}, {pointee});
}

bool
isPtrType(ir::Type t)
{
    return t && t.kind() == "csl.ptr";
}

ir::Type
ptrPointeeType(ir::Type t)
{
    WSC_ASSERT(isPtrType(t), "ptrPointeeType on " << t.str());
    return ir::Type(t.impl()->types[0]);
}

ir::Type
getComptimeStructType(ir::Context &ctx)
{
    return ir::getType(ctx, "csl.comptime_struct");
}

ir::Type
getColorType(ir::Context &ctx)
{
    return ir::getType(ctx, "csl.color");
}

ir::Operation *
createModule(ir::OpBuilder &b, const std::string &kind,
             const std::string &name)
{
    ir::Context &ctx = b.context();
    ir::Operation *module =
        b.create(kModule, {}, {},
                 {{"kind", ir::getStringAttr(ctx, kind)},
                  {"sym_name", ir::getStringAttr(ctx, name)}},
                 /*numRegions=*/1);
    module->region(0).addBlock();
    return module;
}

ir::Block *
moduleBody(ir::Operation *moduleOp)
{
    WSC_ASSERT(moduleOp->opId() == kModule,
               "moduleBody on " << moduleOp->name());
    return &moduleOp->region(0).front();
}

ir::Value
createParam(ir::OpBuilder &b, const std::string &name, ir::Type type,
            std::optional<int64_t> defaultValue)
{
    ir::Context &ctx = b.context();
    std::vector<std::pair<std::string, ir::Attribute>> attrs = {
        {"name", ir::getStringAttr(ctx, name)}};
    if (defaultValue)
        attrs.emplace_back("default", ir::getIntAttr(ctx, *defaultValue));
    return b.create(kParam, {}, {type}, attrs)->result();
}

ir::Value
createImportModule(ir::OpBuilder &b, const std::string &module,
                   const std::vector<std::pair<std::string, ir::Value>>
                       &fields)
{
    ir::Context &ctx = b.context();
    std::vector<ir::Value> operands;
    std::vector<ir::Attribute> names;
    for (const auto &[name, value] : fields) {
        names.push_back(ir::getStringAttr(ctx, name));
        operands.push_back(value);
    }
    return b.create(kImportModule, operands,
                    {getComptimeStructType(ctx)},
                    {{"module", ir::getStringAttr(ctx, module)},
                     {"fields", ir::getArrayAttr(ctx, names)}})
        ->result();
}

ir::Operation *
createMemberCall(ir::OpBuilder &b, ir::Value moduleStruct,
                 const std::string &member,
                 const std::vector<ir::Value> &args,
                 const std::vector<ir::Type> &results)
{
    std::vector<ir::Value> operands = {moduleStruct};
    operands.insert(operands.end(), args.begin(), args.end());
    return b.create(kMemberCall, operands, results,
                    {{"member", ir::getStringAttr(b.context(), member)}});
}

ir::Operation *
createFunc(ir::OpBuilder &b, const std::string &name,
           const std::vector<ir::Type> &inputs,
           const std::vector<ir::Type> &results)
{
    ir::Context &ctx = b.context();
    ir::Type fnType = ir::getFunctionType(ctx, inputs, results);
    ir::Operation *fn =
        b.create(kFunc, {}, {},
                 {{"sym_name", ir::getStringAttr(ctx, name)},
                  {"function_type", ir::getTypeAttr(ctx, fnType)}},
                 /*numRegions=*/1);
    ir::Block *entry = fn->region(0).addBlock();
    for (ir::Type t : inputs)
        entry->addArgument(t);
    return fn;
}

ir::Operation *
createTask(ir::OpBuilder &b, const std::string &name,
           const std::string &kind, int64_t id,
           const std::vector<ir::Type> &argTypes)
{
    ir::Context &ctx = b.context();
    ir::Operation *task =
        b.create(kTask, {}, {},
                 {{"sym_name", ir::getStringAttr(ctx, name)},
                  {"kind", ir::getStringAttr(ctx, kind)},
                  {"id", ir::getIntAttr(ctx, id)}},
                 /*numRegions=*/1);
    ir::Block *entry = task->region(0).addBlock();
    for (ir::Type t : argTypes)
        entry->addArgument(t);
    return task;
}

ir::Block *
calleeBody(ir::Operation *funcOrTask)
{
    WSC_ASSERT(funcOrTask->numRegions() == 1 &&
                   !funcOrTask->region(0).empty(),
               "calleeBody on " << funcOrTask->name());
    return &funcOrTask->region(0).front();
}

ir::Operation *
createReturn(ir::OpBuilder &b, const std::vector<ir::Value> &values)
{
    return b.create(kReturn, values, {});
}

ir::Operation *
createCall(ir::OpBuilder &b, const std::string &callee,
           const std::vector<ir::Value> &operands,
           const std::vector<ir::Type> &results)
{
    return b.create(kCall, operands, results,
                    {{"callee", ir::getStringAttr(b.context(), callee)}});
}

ir::Operation *
createActivate(ir::OpBuilder &b, const std::string &task)
{
    return b.create(kActivate, {}, {},
                    {{"task", ir::getStringAttr(b.context(), task)}});
}

ir::Operation *
createVariable(ir::OpBuilder &b, const std::string &name, ir::Type type,
               ir::Attribute init)
{
    ir::Context &ctx = b.context();
    std::vector<std::pair<std::string, ir::Attribute>> attrs = {
        {"sym_name", ir::getStringAttr(ctx, name)},
        {"type", ir::getTypeAttr(ctx, type)}};
    if (init)
        attrs.emplace_back("init", init);
    return b.create(kVariable, {}, {}, attrs);
}

ir::Value
createLoadVar(ir::OpBuilder &b, const std::string &name, ir::Type type)
{
    return b.create(kLoadVar, {}, {type},
                    {{"var", ir::getStringAttr(b.context(), name)}})
        ->result();
}

ir::Operation *
createStoreVar(ir::OpBuilder &b, const std::string &name, ir::Value value)
{
    return b.create(kStoreVar, {value}, {},
                    {{"var", ir::getStringAttr(b.context(), name)}});
}

ir::Value
createAddressOf(ir::OpBuilder &b, const std::string &name, ir::Type ptrType)
{
    return b.create(kAddressOf, {}, {ptrType},
                    {{"var", ir::getStringAttr(b.context(), name)}})
        ->result();
}

ir::Value
createGetMemDsd(ir::OpBuilder &b, const std::string &var, int64_t offset,
                int64_t length, int64_t stride, bool viaPtr)
{
    ir::Context &ctx = b.context();
    std::vector<std::pair<std::string, ir::Attribute>> attrs = {
        {"var", ir::getStringAttr(ctx, var)},
        {"offset", ir::getIntAttr(ctx, offset)},
        {"length", ir::getIntAttr(ctx, length)},
        {"stride", ir::getIntAttr(ctx, stride)}};
    if (viaPtr)
        attrs.emplace_back("via_ptr", ir::getUnitAttr(ctx));
    return b.create(kGetMemDsd, {}, {getDsdType(ctx)}, attrs)->result();
}

ir::Value
createIncrementDsdOffset(ir::OpBuilder &b, ir::Value dsd,
                         ir::Value offsetElems)
{
    return b.create(kIncrementDsdOffset, {dsd, offsetElems}, {dsd.type()})
        ->result();
}

ir::Operation *
createBuiltin(ir::OpBuilder &b, ir::OpId op,
              const std::vector<ir::Value> &operands)
{
    return b.create(op, operands, {});
}

ir::Operation *
createCommsExchange(ir::OpBuilder &b, ir::Value sendBuf,
                    const CommsExchangeSpec &spec)
{
    ir::Context &ctx = b.context();
    std::vector<int64_t> flatAccesses;
    for (const auto &[dx, dy] : spec.accesses) {
        flatAccesses.push_back(dx);
        flatAccesses.push_back(dy);
    }
    std::vector<std::pair<std::string, ir::Attribute>> attrs = {
        {"recv_cb", ir::getStringAttr(ctx, spec.recvCallback)},
        {"done_cb", ir::getStringAttr(ctx, spec.doneCallback)},
        {"recv_buffer", ir::getStringAttr(ctx, spec.recvBufferName)},
        {"accesses", ir::getIntArrayAttr(ctx, flatAccesses)},
        {"num_chunks", ir::getIntAttr(ctx, spec.numChunks)},
        {"pattern", ir::getIntAttr(ctx, spec.pattern)},
        {"z_size", ir::getIntAttr(ctx, spec.zSize)},
        {"trim_first", ir::getIntAttr(ctx, spec.trimFirst)},
        {"trim_last", ir::getIntAttr(ctx, spec.trimLast)}};
    if (!spec.coeffs.empty()) {
        ir::Type coeffType = ir::getTensorType(
            ctx, {static_cast<int64_t>(spec.coeffs.size())},
            ir::getF32Type(ctx));
        attrs.emplace_back("coeffs",
                           ir::getDenseAttr(ctx, coeffType, spec.coeffs));
    }
    return b.create(kCommsExchange, {sendBuf}, {}, attrs);
}

CommsExchangeSpec
commsExchangeSpec(ir::Operation *op)
{
    WSC_ASSERT(op->opId() == kCommsExchange,
               "commsExchangeSpec on " << op->name());
    CommsExchangeSpec spec;
    spec.recvCallback = op->strAttr(ir::attrs::kRecvCb);
    spec.doneCallback = op->strAttr(ir::attrs::kDoneCb);
    if (op->hasAttr(ir::attrs::kRecvBuffer))
        spec.recvBufferName = op->strAttr(ir::attrs::kRecvBuffer);
    std::vector<int64_t> flat =
        ir::intArrayAttrValue(op->attr(ir::attrs::kAccesses));
    for (size_t i = 0; i + 1 < flat.size(); i += 2)
        spec.accesses.emplace_back(flat[i], flat[i + 1]);
    spec.numChunks = op->intAttr(ir::attrs::kNumChunks);
    spec.pattern = op->intAttr(ir::attrs::kPattern);
    spec.zSize = op->intAttr(ir::attrs::kZSize);
    spec.trimFirst = op->intAttr(ir::attrs::kTrimFirst);
    spec.trimLast = op->intAttr(ir::attrs::kTrimLast);
    if (ir::Attribute coeffs = op->attr(ir::attrs::kCoeffs))
        spec.coeffs = ir::denseAttrValues(coeffs);
    return spec;
}

ir::Operation *
createExport(ir::OpBuilder &b, const std::string &name,
             const std::string &kind)
{
    ir::Context &ctx = b.context();
    return b.create(kExport, {}, {},
                    {{"name", ir::getStringAttr(ctx, name)},
                     {"kind", ir::getStringAttr(ctx, kind)}});
}

ir::Operation *
createUnblockCmdStream(ir::OpBuilder &b)
{
    return b.create(kUnblockCmdStream, {}, {});
}

} // namespace wsc::dialects::csl
