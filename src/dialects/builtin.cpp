#include "dialects/builtin.h"

#include "support/error.h"

namespace wsc::dialects::builtin {

ir::OwningOp
createModule(ir::Context &ctx)
{
    ir::Operation *module =
        ir::Operation::create(ctx, kModule, {}, {}, {}, 1);
    module->region(0).addBlock();
    return ir::OwningOp(module);
}

ir::Block *
moduleBody(ir::Operation *module)
{
    WSC_ASSERT(module->opId() == kModule,
               "moduleBody on non-module op " << module->name());
    return &module->region(0).front();
}

ir::Value
createCast(ir::OpBuilder &b, ir::Value value, ir::Type type)
{
    return b.create(kUnrealizedCast, {value}, {type})->result();
}

} // namespace wsc::dialects::builtin
