#include "dialects/scf.h"

#include "support/error.h"

namespace wsc::dialects::scf {

ir::Operation *
createFor(ir::OpBuilder &b, ir::Value lb, ir::Value ub, ir::Value step,
          const std::vector<ir::Value> &iterInits)
{
    std::vector<ir::Value> operands = {lb, ub, step};
    std::vector<ir::Type> resultTypes;
    for (ir::Value v : iterInits) {
        operands.push_back(v);
        resultTypes.push_back(v.type());
    }
    ir::Operation *forOp =
        b.create(kFor, operands, resultTypes, {}, /*numRegions=*/1);
    ir::Block *body = forOp->region(0).addBlock();
    body->addArgument(lb.type());
    for (ir::Value v : iterInits)
        body->addArgument(v.type());
    return forOp;
}

ir::Block *
forBody(ir::Operation *forOp)
{
    WSC_ASSERT(forOp->opId() == kFor, "forBody on " << forOp->name());
    return &forOp->region(0).front();
}

ir::Value
forInductionVar(ir::Operation *forOp)
{
    return forBody(forOp)->argument(0);
}

std::vector<ir::Value>
forIterArgs(ir::Operation *forOp)
{
    std::vector<ir::Value> args = forBody(forOp)->arguments();
    return {args.begin() + 1, args.end()};
}

std::vector<ir::Value>
forIterInits(ir::Operation *forOp)
{
    ir::ValueRange ops = forOp->operands();
    return {ops.begin() + 3, ops.end()};
}

ir::Operation *
createIf(ir::OpBuilder &b, ir::Value condition,
         const std::vector<ir::Type> &resultTypes, bool withElse)
{
    ir::Operation *ifOp =
        b.create(kIf, {condition}, resultTypes, {}, /*numRegions=*/2);
    ifOp->region(0).addBlock();
    if (withElse)
        ifOp->region(1).addBlock();
    return ifOp;
}

ir::Block *
ifThenBlock(ir::Operation *ifOp)
{
    WSC_ASSERT(ifOp->opId() == kIf, "ifThenBlock on " << ifOp->name());
    return &ifOp->region(0).front();
}

ir::Block *
ifElseBlock(ir::Operation *ifOp)
{
    WSC_ASSERT(ifOp->opId() == kIf && !ifOp->region(1).empty(),
               "ifElseBlock on if without else");
    return &ifOp->region(1).front();
}

ir::Operation *
createYield(ir::OpBuilder &b, const std::vector<ir::Value> &values)
{
    return b.create(kYield, values, {});
}

} // namespace wsc::dialects::scf
