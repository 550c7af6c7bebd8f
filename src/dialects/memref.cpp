#include "dialects/memref.h"

#include "support/error.h"

namespace wsc::dialects::memref {

ir::Value
createAlloc(ir::OpBuilder &b, ir::Type memrefType)
{
    WSC_ASSERT(ir::isMemRef(memrefType), "alloc requires a memref type");
    return b.create(kAlloc, {}, {memrefType})->result();
}

ir::Operation *
createCopy(ir::OpBuilder &b, ir::Value source, ir::Value dest)
{
    return b.create(kCopy, {source, dest}, {});
}

ir::Value
createSubview(ir::OpBuilder &b, ir::Value source, int64_t staticOffset,
              int64_t size, ir::Value dynOffset)
{
    ir::Context &ctx = b.context();
    ir::Type resultType =
        ir::getMemRefType(ctx, {size}, ir::elementTypeOf(source.type()));
    std::vector<ir::Value> operands = {source};
    if (dynOffset)
        operands.push_back(dynOffset);
    return b.create(kSubview, operands, {resultType},
                    {{"static_offset", ir::getIntAttr(ctx, staticOffset)},
                     {"static_size", ir::getIntAttr(ctx, size)}})
        ->result();
}

ir::Value
createLoad(ir::OpBuilder &b, ir::Value memref,
           const std::vector<ir::Value> &indices)
{
    std::vector<ir::Value> operands = {memref};
    operands.insert(operands.end(), indices.begin(), indices.end());
    return b.create(kLoad, operands,
                    {ir::elementTypeOf(memref.type())})
        ->result();
}

ir::Operation *
createStore(ir::OpBuilder &b, ir::Value value, ir::Value memref,
            const std::vector<ir::Value> &indices)
{
    std::vector<ir::Value> operands = {value, memref};
    operands.insert(operands.end(), indices.begin(), indices.end());
    return b.create(kStore, operands, {});
}

} // namespace wsc::dialects::memref
