#include "dialects/csl_wrapper.h"

#include "support/error.h"

namespace wsc::dialects::csl_wrapper {

ir::Operation *
createModule(ir::OpBuilder &b, int64_t width, int64_t height,
             const std::vector<Param> &params,
             const std::string &programName)
{
    ir::Context &ctx = b.context();
    std::vector<ir::Attribute> paramAttrs;
    for (const Param &p : params) {
        paramAttrs.push_back(ir::getDictAttr(
            ctx, {{"name", ir::getStringAttr(ctx, p.name)},
                  {"value", ir::getIntAttr(ctx, p.value)}}));
    }
    ir::Operation *module = b.create(
        kModule, {}, {},
        {{"width", ir::getIntAttr(ctx, width)},
         {"height", ir::getIntAttr(ctx, height)},
         {"params", ir::getArrayAttr(ctx, paramAttrs)},
         {"program_name", ir::getStringAttr(ctx, programName)}},
        /*numRegions=*/2);
    ir::Type i16 = ir::getI16Type(ctx);
    ir::Block *layout = module->region(0).addBlock();
    for (int i = 0; i < 4; ++i)
        layout->addArgument(i16);
    ir::Block *program = module->region(1).addBlock();
    for (size_t i = 0; i < params.size(); ++i)
        program->addArgument(i16);
    return module;
}

ir::Block *
layoutBlock(ir::Operation *moduleOp)
{
    WSC_ASSERT(moduleOp->opId() == kModule,
               "layoutBlock on " << moduleOp->name());
    return &moduleOp->region(0).front();
}

ir::Block *
programBlock(ir::Operation *moduleOp)
{
    WSC_ASSERT(moduleOp->opId() == kModule,
               "programBlock on " << moduleOp->name());
    return &moduleOp->region(1).front();
}

std::vector<Param>
moduleParams(ir::Operation *moduleOp)
{
    std::vector<Param> out;
    for (ir::Attribute entry :
         ir::arrayAttrValue(moduleOp->attr(ir::attrs::kParams))) {
        Param p;
        p.name = ir::stringAttrValue(ir::dictAttrGet(entry, "name"));
        p.value = ir::intAttrValue(ir::dictAttrGet(entry, "value"));
        out.push_back(p);
    }
    return out;
}

std::pair<int64_t, int64_t>
moduleExtent(ir::Operation *moduleOp)
{
    return {moduleOp->intAttr(ir::attrs::kWidth), moduleOp->intAttr(ir::attrs::kHeight)};
}

ir::Value
createImport(ir::OpBuilder &b, const std::string &module,
             const std::vector<std::pair<std::string, ir::Value>> &fields)
{
    ir::Context &ctx = b.context();
    std::vector<ir::Value> operands;
    std::vector<ir::Attribute> names;
    for (const auto &[name, value] : fields) {
        names.push_back(ir::getStringAttr(ctx, name));
        operands.push_back(value);
    }
    return b.create(kImport, operands,
                    {ir::getType(ctx, "csl.comptime_struct")},
                    {{"module", ir::getStringAttr(ctx, module)},
                     {"fields", ir::getArrayAttr(ctx, names)}})
        ->result();
}

ir::Operation *
createYield(ir::OpBuilder &b, const std::vector<ir::Value> &values)
{
    return b.create(kYield, values, {});
}

} // namespace wsc::dialects::csl_wrapper
