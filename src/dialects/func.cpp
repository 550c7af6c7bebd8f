#include "dialects/func.h"

#include "support/error.h"

namespace wsc::dialects::func {

ir::Operation *
createFunc(ir::OpBuilder &b, const std::string &name,
           const std::vector<ir::Type> &inputs,
           const std::vector<ir::Type> &results)
{
    ir::Context &ctx = b.context();
    ir::Type fnType = ir::getFunctionType(ctx, inputs, results);
    ir::Operation *fn = b.create(
        kFunc, {}, {},
        {{"sym_name", ir::getStringAttr(ctx, name)},
         {"function_type", ir::getTypeAttr(ctx, fnType)}},
        /*numRegions=*/1);
    ir::Block *entry = fn->region(0).addBlock();
    for (ir::Type t : inputs)
        entry->addArgument(t);
    return fn;
}

ir::Block *
funcBody(ir::Operation *funcOp)
{
    WSC_ASSERT(funcOp->opId() == kFunc, "funcBody on " << funcOp->name());
    return &funcOp->region(0).front();
}

const std::string &
funcName(ir::Operation *funcOp)
{
    return funcOp->strAttr(ir::attrs::kSymName);
}

std::vector<ir::Type>
funcResultTypes(ir::Operation *funcOp)
{
    return ir::functionResults(
        ir::typeAttrValue(funcOp->attr(ir::attrs::kFunctionType)));
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

} // namespace wsc::dialects::func
