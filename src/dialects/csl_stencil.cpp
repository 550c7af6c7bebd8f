#include "dialects/csl_stencil.h"

#include <algorithm>
#include <cstdlib>

#include "support/error.h"

namespace wsc::dialects::csl_stencil {

namespace {

ir::Attribute
encodeSwaps(ir::Context &ctx, const std::vector<dmp::Exchange> &swaps)
{
    std::vector<ir::Attribute> swapAttrs;
    for (const dmp::Exchange &e : swaps) {
        swapAttrs.push_back(ir::getDictAttr(
            ctx, {{"to", ir::getIntArrayAttr(ctx, {e.dx, e.dy})},
                  {"width", ir::getIntAttr(ctx, e.width)}}));
    }
    return ir::getArrayAttr(ctx, swapAttrs);
}

} // namespace

ir::Value
createPrefetch(ir::OpBuilder &b, ir::Value input,
               const std::vector<dmp::Exchange> &swaps, int64_t numChunks,
               ir::Type bufferType)
{
    ir::Context &ctx = b.context();
    return b.create(kPrefetch, {input}, {bufferType},
                    {{"swaps", encodeSwaps(ctx, swaps)},
                     {"num_chunks", ir::getIntAttr(ctx, numChunks)}})
        ->result();
}

ir::Operation *
createApply(ir::OpBuilder &b, ir::Value input, ir::Value accumulator,
            const std::vector<ir::Value> &otherInputs,
            const std::vector<dmp::Exchange> &swaps, int64_t numChunks,
            std::pair<int64_t, int64_t> topology, ir::Type resultType,
            ir::Type recvChunkType)
{
    ir::Context &ctx = b.context();
    std::vector<ir::Value> operands = {input, accumulator};
    operands.insert(operands.end(), otherInputs.begin(), otherInputs.end());
    ir::Operation *apply = b.create(
        kApply, operands, {resultType},
        {{"swaps", encodeSwaps(ctx, swaps)},
         {"num_chunks", ir::getIntAttr(ctx, numChunks)},
         {"topology",
          ir::getIntArrayAttr(ctx, {topology.first, topology.second})}},
        /*numRegions=*/2);
    ir::Block *recv = apply->region(0).addBlock();
    recv->addArgument(recvChunkType);
    recv->addArgument(ir::getIndexType(ctx));
    recv->addArgument(accumulator.type());
    ir::Block *done = apply->region(1).addBlock();
    done->addArgument(input.type());
    done->addArgument(accumulator.type());
    for (ir::Value v : otherInputs)
        done->addArgument(v.type());
    return apply;
}

std::vector<dmp::Exchange>
canonicalExchangeOrder(std::vector<dmp::Exchange> swaps)
{
    auto rank = [](const dmp::Exchange &e) {
        // E, W, N, S by the direction of the *source* PE.
        if (e.dx > 0)
            return 0;
        if (e.dx < 0)
            return 1;
        if (e.dy < 0)
            return 2;
        return 3;
    };
    auto distance = [](const dmp::Exchange &e) {
        return std::max(std::abs(e.dx), std::abs(e.dy));
    };
    std::sort(swaps.begin(), swaps.end(),
              [&](const dmp::Exchange &a, const dmp::Exchange &b) {
                  if (rank(a) != rank(b))
                      return rank(a) < rank(b);
                  return distance(a) < distance(b);
              });
    return swaps;
}

ir::Block *
applyRecvBlock(ir::Operation *applyOp)
{
    WSC_ASSERT(applyOp->opId() == kApply,
               "applyRecvBlock on " << applyOp->name());
    return &applyOp->region(0).front();
}

ir::Block *
applyDoneBlock(ir::Operation *applyOp)
{
    WSC_ASSERT(applyOp->opId() == kApply,
               "applyDoneBlock on " << applyOp->name());
    return &applyOp->region(1).front();
}

std::vector<dmp::Exchange>
applyExchanges(ir::Operation *op)
{
    std::vector<dmp::Exchange> out;
    for (ir::Attribute entry : ir::arrayAttrValue(op->attr(ir::attrs::kSwaps))) {
        dmp::Exchange e;
        std::vector<int64_t> to =
            ir::intArrayAttrValue(ir::dictAttrGet(entry, "to"));
        e.dx = to[0];
        e.dy = to[1];
        e.width = ir::intAttrValue(ir::dictAttrGet(entry, "width"));
        out.push_back(e);
    }
    return out;
}

int64_t
applyNumChunks(ir::Operation *op)
{
    return op->intAttr(ir::attrs::kNumChunks);
}

ir::Value
createAccess(ir::OpBuilder &b, ir::Value source,
             const std::vector<int64_t> &offset, ir::Type resultType)
{
    return b.create(kAccess, {source}, {resultType},
                    {{"offset", ir::getIntArrayAttr(b.context(), offset)}})
        ->result();
}

ir::Operation *
createYield(ir::OpBuilder &b, const std::vector<ir::Value> &values)
{
    return b.create(kYield, values, {});
}

} // namespace wsc::dialects::csl_stencil
