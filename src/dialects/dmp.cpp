#include "dialects/dmp.h"

#include "support/error.h"

namespace wsc::dialects::dmp {

ir::Value
createSwap(ir::OpBuilder &b, ir::Value input,
           const std::vector<Exchange> &swaps, int64_t nx, int64_t ny)
{
    ir::Context &ctx = b.context();
    std::vector<ir::Attribute> swapAttrs;
    for (const Exchange &e : swaps) {
        swapAttrs.push_back(ir::getDictAttr(
            ctx, {{"to", ir::getIntArrayAttr(ctx, {e.dx, e.dy})},
                  {"width", ir::getIntAttr(ctx, e.width)}}));
    }
    return b.create(kSwap, {input}, {input.type()},
                    {{"swaps", ir::getArrayAttr(ctx, swapAttrs)},
                     {"topology", ir::getIntArrayAttr(ctx, {nx, ny})}})
        ->result();
}

std::vector<Exchange>
swapExchanges(ir::Operation *swapOp)
{
    std::vector<Exchange> out;
    for (ir::Attribute entry : ir::arrayAttrValue(swapOp->attr(ir::attrs::kSwaps))) {
        Exchange e;
        std::vector<int64_t> to =
            ir::intArrayAttrValue(ir::dictAttrGet(entry, "to"));
        e.dx = to[0];
        e.dy = to[1];
        e.width = ir::intAttrValue(ir::dictAttrGet(entry, "width"));
        out.push_back(e);
    }
    return out;
}

std::pair<int64_t, int64_t>
swapTopology(ir::Operation *swapOp)
{
    std::vector<int64_t> t =
        ir::intArrayAttrValue(swapOp->attr(ir::attrs::kTopology));
    WSC_ASSERT(t.size() == 2, "dmp.swap topology must be 2-D");
    return {t[0], t[1]};
}

} // namespace wsc::dialects::dmp
