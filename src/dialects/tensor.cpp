#include "dialects/tensor.h"

#include "support/error.h"

namespace wsc::dialects::tensor {

ir::Value
createEmpty(ir::OpBuilder &b, ir::Type tensorType)
{
    WSC_ASSERT(ir::isTensor(tensorType), "tensor.empty requires tensor type");
    return b.create(kEmpty, {}, {tensorType})->result();
}

ir::Value
createInsertSlice(ir::OpBuilder &b, ir::Value source, ir::Value dest,
                  ir::Value offset, int64_t size)
{
    return b.create(kInsertSlice, {source, dest, offset},
                    {dest.type()},
                    {{"static_size", ir::getIntAttr(b.context(), size)}})
        ->result();
}

ir::Value
createExtractSlice(ir::OpBuilder &b, ir::Value source, int64_t offset,
                   int64_t size)
{
    ir::Context &ctx = b.context();
    ir::Type resultType =
        ir::getTensorType(ctx, {size}, ir::elementTypeOf(source.type()));
    return b.create(kExtractSlice, {source}, {resultType},
                    {{"static_offset", ir::getIntAttr(ctx, offset)},
                     {"static_size", ir::getIntAttr(ctx, size)}})
        ->result();
}

} // namespace wsc::dialects::tensor
