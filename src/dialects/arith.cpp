#include "dialects/arith.h"

#include "support/error.h"

namespace wsc::dialects::arith {

ir::Value
createConstantF32(ir::OpBuilder &b, double value)
{
    ir::Context &ctx = b.context();
    ir::Type f32 = ir::getF32Type(ctx);
    return b.create(kConstant, {}, {f32},
                    {{"value", ir::getFloatAttr(ctx, value, f32)}})
        ->result();
}

ir::Value
createConstantIndex(ir::OpBuilder &b, int64_t value)
{
    ir::Context &ctx = b.context();
    ir::Type t = ir::getIndexType(ctx);
    return b.create(kConstant, {}, {t},
                    {{"value", ir::getIntAttr(ctx, value, t)}})
        ->result();
}

ir::Value
createConstantI32(ir::OpBuilder &b, int64_t value)
{
    ir::Context &ctx = b.context();
    ir::Type t = ir::getI32Type(ctx);
    return b.create(kConstant, {}, {t},
                    {{"value", ir::getIntAttr(ctx, value, t)}})
        ->result();
}

ir::Value
createConstantI16(ir::OpBuilder &b, int64_t value)
{
    ir::Context &ctx = b.context();
    ir::Type t = ir::getI16Type(ctx);
    return b.create(kConstant, {}, {t},
                    {{"value", ir::getIntAttr(ctx, value, t)}})
        ->result();
}

ir::Value
createDenseConstant(ir::OpBuilder &b, ir::Type shapedType, double splat)
{
    ir::Context &ctx = b.context();
    return b.create(kConstant, {}, {shapedType},
                    {{"value", ir::getDenseAttr(ctx, shapedType, {splat})}})
        ->result();
}

ir::Value
createBinary(ir::OpBuilder &b, ir::OpId op, ir::Value lhs, ir::Value rhs)
{
    WSC_ASSERT(lhs.type() == rhs.type(),
               "createBinary operand type mismatch: " << lhs.type().str()
                   << " vs " << rhs.type().str());
    return b.create(op, {lhs, rhs}, {lhs.type()})->result();
}

ir::Value
createAddF(ir::OpBuilder &b, ir::Value lhs, ir::Value rhs)
{
    return createBinary(b, kAddF, lhs, rhs);
}

ir::Value
createSubF(ir::OpBuilder &b, ir::Value lhs, ir::Value rhs)
{
    return createBinary(b, kSubF, lhs, rhs);
}

ir::Value
createMulF(ir::OpBuilder &b, ir::Value lhs, ir::Value rhs)
{
    return createBinary(b, kMulF, lhs, rhs);
}

ir::Value
createDivF(ir::OpBuilder &b, ir::Value lhs, ir::Value rhs)
{
    return createBinary(b, kDivF, lhs, rhs);
}

ir::Value
createAddI(ir::OpBuilder &b, ir::Value lhs, ir::Value rhs)
{
    return createBinary(b, kAddI, lhs, rhs);
}

ir::Value
createCmpI(ir::OpBuilder &b, const std::string &predicate, ir::Value lhs,
           ir::Value rhs)
{
    ir::Context &ctx = b.context();
    return b.create(kCmpI, {lhs, rhs}, {ir::getI1Type(ctx)},
                    {{"predicate", ir::getStringAttr(ctx, predicate)}})
        ->result();
}

bool
isBinaryFloatOp(ir::Operation *op)
{
    ir::OpId n = op->opId();
    return n == kAddF || n == kSubF || n == kMulF || n == kDivF;
}

bool
isFloatConstant(ir::Operation *op)
{
    if (!op || !op->is(kConstant))
        return false;
    ir::Attribute v = op->attr(ir::attrs::kValue);
    return ir::isFloatAttr(v) ||
           (ir::isDenseAttr(v) && ir::denseAttrValues(v).size() == 1);
}

double
floatConstantValue(ir::Operation *op)
{
    WSC_ASSERT(isFloatConstant(op), "floatConstantValue on " << op->name());
    ir::Attribute v = op->attr(ir::attrs::kValue);
    if (ir::isFloatAttr(v))
        return ir::floatAttrValue(v);
    return ir::denseAttrValues(v)[0];
}

} // namespace wsc::dialects::arith
