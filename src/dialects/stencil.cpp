#include "dialects/stencil.h"

#include "support/error.h"

namespace wsc::dialects::stencil {

namespace {

/** Pack bounds as [lb0, ub0, lb1, ub1, ...]. */
std::vector<int64_t>
packBounds(const Bounds &bounds)
{
    WSC_ASSERT(bounds.lb.size() == bounds.ub.size(),
               "bounds lb/ub rank mismatch");
    std::vector<int64_t> ints;
    for (size_t d = 0; d < bounds.rank(); ++d) {
        WSC_ASSERT(bounds.lb[d] <= bounds.ub[d], "empty bounds dimension");
        ints.push_back(bounds.lb[d]);
        ints.push_back(bounds.ub[d]);
    }
    return ints;
}

} // namespace

ir::Type
getFieldType(ir::Context &ctx, const Bounds &bounds, ir::Type elementType)
{
    return ir::getType(ctx, "stencil.field", packBounds(bounds),
                       {elementType});
}

ir::Type
getTempType(ir::Context &ctx, const Bounds &bounds, ir::Type elementType)
{
    return ir::getType(ctx, "stencil.temp", packBounds(bounds),
                       {elementType});
}

bool
isFieldType(ir::Type t)
{
    return t && t.kind() == "stencil.field";
}

bool
isTempType(ir::Type t)
{
    return t && t.kind() == "stencil.temp";
}

Bounds
boundsOf(ir::Type t)
{
    WSC_ASSERT(isFieldType(t) || isTempType(t),
               "boundsOf on non-stencil type " << t.str());
    const std::vector<int64_t> &ints = t.impl()->ints;
    Bounds bounds;
    for (size_t i = 0; i + 1 < ints.size(); i += 2) {
        bounds.lb.push_back(ints[i]);
        bounds.ub.push_back(ints[i + 1]);
    }
    return bounds;
}

ir::Type
stencilElementTypeOf(ir::Type t)
{
    WSC_ASSERT(isFieldType(t) || isTempType(t),
               "stencilElementTypeOf on non-stencil type " << t.str());
    return ir::Type(t.impl()->types[0]);
}

ir::Value
createLoad(ir::OpBuilder &b, ir::Value field)
{
    ir::Type fieldType = field.type();
    WSC_ASSERT(isFieldType(fieldType), "createLoad on non-field value");
    ir::Type tempType =
        getTempType(b.context(), boundsOf(fieldType),
                    stencilElementTypeOf(fieldType));
    return b.create(kLoad, {field}, {tempType})->result();
}

ir::Operation *
createStore(ir::OpBuilder &b, ir::Value temp, ir::Value field,
            const Bounds &bounds)
{
    return b.create(kStore, {temp, field}, {},
                    {{"bounds", ir::getIntArrayAttr(b.context(),
                                                    packBounds(bounds))}});
}

ir::Operation *
createApply(ir::OpBuilder &b, const std::vector<ir::Value> &operands,
            const std::vector<ir::Type> &resultTypes)
{
    ir::Operation *apply =
        b.create(kApply, operands, resultTypes, {}, /*numRegions=*/1);
    ir::Block *body = apply->region(0).addBlock();
    for (ir::Value v : operands)
        body->addArgument(v.type());
    return apply;
}

ir::Block *
applyBody(ir::Operation *applyOp)
{
    WSC_ASSERT(applyOp->numRegions() >= 1 && !applyOp->region(0).empty(),
               "applyBody on op without body: " << applyOp->name());
    return &applyOp->region(0).front();
}

ir::Value
createAccess(ir::OpBuilder &b, ir::Value temp,
             const std::vector<int64_t> &offset)
{
    ir::Type elem;
    if (isTempType(temp.type())) {
        elem = stencilElementTypeOf(temp.type());
    } else if (ir::isTensor(temp.type())) {
        elem = temp.type();
    } else {
        panic("stencil.access on unsupported type " + temp.type().str());
    }
    return b.create(kAccess, {temp}, {elem},
                    {{"offset", ir::getIntArrayAttr(b.context(), offset)}})
        ->result();
}

std::vector<int64_t>
accessOffset(ir::Operation *accessOp)
{
    return ir::intArrayAttrValue(accessOp->attr(ir::attrs::kOffset));
}

ir::Operation *
createReturn(ir::OpBuilder &b, const std::vector<ir::Value> &values)
{
    return b.create(kReturn, values, {});
}

} // namespace wsc::dialects::stencil
