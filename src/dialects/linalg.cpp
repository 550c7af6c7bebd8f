#include "dialects/linalg.h"

#include "support/error.h"

namespace wsc::dialects::linalg {

ir::Operation *
createBinary(ir::OpBuilder &b, ir::OpId op, ir::Value lhs, ir::Value rhs,
             ir::Value out)
{
    return b.create(op, {lhs, rhs, out}, {});
}

ir::Operation *
createFill(ir::OpBuilder &b, ir::Value scalar, ir::Value out)
{
    return b.create(kFill, {scalar, out}, {});
}

ir::Operation *
createCopy(ir::OpBuilder &b, ir::Value source, ir::Value out)
{
    return b.create(kCopy, {source, out}, {});
}

ir::Operation *
createFmac(ir::OpBuilder &b, ir::Value addend, ir::Value mulend,
           ir::Value scalar, ir::Value out)
{
    return b.create(kFmac, {addend, mulend, scalar, out}, {});
}

bool
isLinalgOp(ir::Operation *op)
{
    ir::OpId n = op->opId();
    return n == kAdd || n == kSub || n == kMul || n == kDiv || n == kFill ||
           n == kCopy || n == kFmac;
}

int
flopsPerElement(ir::Operation *op)
{
    ir::OpId n = op->opId();
    if (n == kFmac)
        return 2;
    if (n == kAdd || n == kSub || n == kMul || n == kDiv)
        return 1;
    return 0;
}

} // namespace wsc::dialects::linalg
