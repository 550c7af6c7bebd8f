#include "dialects/all.h"

#include <span>

namespace wsc::dialects {

namespace {

using ir::OpSpec;
using ir::Operation;
namespace at = ir::attrs;

/** All operands and the result share one type (arith binaries, varith). */
std::string
verifySameType(Operation *op)
{
    bool variadic = op->is(varith::kAdd) || op->is(varith::kMul);
    ir::Type t = op->operand(0).type();
    for (unsigned i = 1; i < op->numOperands(); ++i)
        if (op->operand(i).type() != t)
            return variadic ? "varith operand types differ"
                            : "operand types differ";
    if (op->result(0).type() != t)
        return variadic ? "varith result type differs"
                        : "result type differs from operand type";
    return "";
}

constexpr OpSpec kBuiltinOps[] = {
    {.op = &builtin::kModule, .numOperands = 0, .numResults = 0,
     .numRegions = 1},
    {.op = &builtin::kUnrealizedCast, .numOperands = 1, .numResults = 1},
};

constexpr OpSpec kFuncOps[] = {
    {.op = &func::kFunc, .numOperands = 0, .numResults = 0, .numRegions = 1,
     .attrs = {{at::kSymName, "func.func requires a sym_name attribute"},
               {at::kFunctionType,
                "func.func requires a function_type attribute"}}},
    {.op = &func::kReturn, .numResults = 0, .isTerminator = true},
    {.op = &func::kCall,
     .attrs = {{at::kCallee, "func.call requires a callee attribute"}}},
};

constexpr OpSpec kArithOps[] = {
    {.op = &arith::kConstant, .numOperands = 0, .numResults = 1,
     .attrs = {{at::kValue, "arith.constant requires a value attribute"}}},
    {.op = &arith::kAddF, .numOperands = 2, .numResults = 1,
     .verify = verifySameType},
    {.op = &arith::kSubF, .numOperands = 2, .numResults = 1,
     .verify = verifySameType},
    {.op = &arith::kMulF, .numOperands = 2, .numResults = 1,
     .verify = verifySameType},
    {.op = &arith::kDivF, .numOperands = 2, .numResults = 1,
     .verify = verifySameType},
    {.op = &arith::kAddI, .numOperands = 2, .numResults = 1,
     .verify = verifySameType},
    {.op = &arith::kSubI, .numOperands = 2, .numResults = 1,
     .verify = verifySameType},
    {.op = &arith::kMulI, .numOperands = 2, .numResults = 1,
     .verify = verifySameType},
    {.op = &arith::kCmpI, .numOperands = 2, .numResults = 1,
     .attrs = {{at::kPredicate, "arith.cmpi requires a predicate attribute"}}},
    {.op = &arith::kSelect, .numOperands = 3, .numResults = 1},
};

constexpr OpSpec kScfOps[] = {
    {.op = &scf::kFor, .minOperands = 3, .numRegions = 1,
     .verify = [](Operation *op) -> std::string {
         unsigned n_iter = op->numOperands() - 3;
         if (op->numResults() != n_iter)
             return "scf.for result count must match iter_args";
         if (op->region(0).empty())
             return "scf.for requires a body block";
         if (op->region(0).front().numArguments() != n_iter + 1)
             return "scf.for body must take (iv, iterArgs...)";
         return "";
     }},
    {.op = &scf::kIf, .numOperands = 1, .numRegions = 2,
     .verify = [](Operation *op) -> std::string {
         return op->region(0).empty() ? "scf.if requires a then block" : "";
     }},
    {.op = &scf::kYield, .numResults = 0, .isTerminator = true},
};

constexpr OpSpec kStencilOps[] = {
    {.op = &stencil::kLoad, .numOperands = 1, .numResults = 1,
     .verify = [](Operation *op) -> std::string {
         if (!stencil::isFieldType(op->operand(0).type()))
             return "stencil.load operand must be a field";
         if (!stencil::isTempType(op->result(0).type()))
             return "stencil.load result must be a temp";
         return "";
     }},
    {.op = &stencil::kStore, .numOperands = 2, .numResults = 0,
     .verify = [](Operation *op) -> std::string {
         if (!stencil::isTempType(op->operand(0).type()))
             return "stencil.store value must be a temp";
         if (!stencil::isFieldType(op->operand(1).type()))
             return "stencil.store destination must be a field";
         return "";
     }},
    {.op = &stencil::kApply, .numRegions = 1,
     .verify = [](Operation *op) -> std::string {
         if (op->region(0).empty())
             return "stencil.apply requires a body block";
         ir::Block &body = op->region(0).front();
         if (body.numArguments() != op->numOperands())
             return "stencil.apply body arguments must match operands";
         for (unsigned i = 0; i < op->numOperands(); ++i)
             if (body.argument(i).type() != op->operand(i).type())
                 return "stencil.apply body argument type mismatch";
         for (unsigned i = 0; i < op->numResults(); ++i)
             if (!stencil::isTempType(op->result(i).type()))
                 return "stencil.apply results must be temps";
         return "";
     }},
    {.op = &stencil::kAccess, .numOperands = 1, .numResults = 1,
     .attrs = {{at::kOffset, "stencil.access requires an offset attribute"}}},
    {.op = &stencil::kReturn, .numResults = 0, .isTerminator = true},
};

constexpr OpSpec kTensorOps[] = {
    {.op = &tensor::kEmpty, .numOperands = 0, .numResults = 1},
    {.op = &tensor::kInsertSlice, .numOperands = 3, .numResults = 1,
     .verify = [](Operation *op) -> std::string {
         if (op->result(0).type() != op->operand(1).type())
             return "insert_slice result must match dest type";
         if (!ir::isIndex(op->operand(2).type()))
             return "insert_slice offset must be index-typed";
         return "";
     }},
    {.op = &tensor::kExtractSlice, .numOperands = 1, .numResults = 1},
};

constexpr OpSpec kMemrefOps[] = {
    {.op = &memref::kAlloc, .numOperands = 0, .numResults = 1,
     .verify = [](Operation *op) -> std::string {
         return ir::isMemRef(op->result(0).type())
                    ? ""
                    : "memref.alloc result must be a memref";
     }},
    {.op = &memref::kDealloc, .numOperands = 1, .numResults = 0},
    {.op = &memref::kCopy, .numOperands = 2, .numResults = 0},
    {.op = &memref::kSubview, .minOperands = 1, .numResults = 1},
    {.op = &memref::kLoad, .minOperands = 1, .numResults = 1},
    {.op = &memref::kStore, .minOperands = 2, .numResults = 0},
};

constexpr OpSpec kLinalgOps[] = {
    {.op = &linalg::kAdd, .numOperands = 3, .numResults = 0},
    {.op = &linalg::kSub, .numOperands = 3, .numResults = 0},
    {.op = &linalg::kMul, .numOperands = 3, .numResults = 0},
    {.op = &linalg::kDiv, .numOperands = 3, .numResults = 0},
    {.op = &linalg::kFill, .numOperands = 2, .numResults = 0},
    {.op = &linalg::kCopy, .numOperands = 2, .numResults = 0},
    {.op = &linalg::kFmac, .numOperands = 4, .numResults = 0},
};

constexpr OpSpec kDmpOps[] = {
    {.op = &dmp::kSwap, .numOperands = 1, .numResults = 1,
     .attrs = {{at::kSwaps, "dmp.swap requires a swaps attribute"},
               {at::kTopology, "dmp.swap requires a topology attribute"}},
     .verify = [](Operation *op) -> std::string {
         return op->operand(0).type() != op->result(0).type()
                    ? "dmp.swap result type must match operand"
                    : "";
     }},
};

constexpr OpSpec kVarithOps[] = {
    {.op = &varith::kAdd, .minOperands = 1, .numResults = 1,
     .verify = verifySameType},
    {.op = &varith::kMul, .minOperands = 1, .numResults = 1,
     .verify = verifySameType},
};

constexpr OpSpec kCslStencilOps[] = {
    {.op = &csl_stencil::kPrefetch, .numOperands = 1, .numResults = 1,
     .attrs = {{at::kSwaps, "csl_stencil.prefetch requires swaps"},
               {at::kNumChunks, "csl_stencil.prefetch requires num_chunks"}}},
    {.op = &csl_stencil::kApply, .minOperands = 2, .numResults = 1,
     .numRegions = 2,
     .attrs = {{at::kSwaps, "csl_stencil.apply requires swaps"},
               {at::kNumChunks, "csl_stencil.apply requires num_chunks"}},
     .verify = [](Operation *op) -> std::string {
         if (op->intAttr(at::kNumChunks) < 1)
             return "num_chunks must be >= 1";
         if (op->region(0).empty() || op->region(1).empty())
             return "csl_stencil.apply requires two populated regions";
         if (op->region(0).front().numArguments() != 3)
             return "receive-chunk region must take (buf, offset, acc)";
         if (op->region(1).front().numArguments() != op->numOperands())
             return "done-exchange region must take (input, acc, "
                    "others...)";
         return "";
     }},
    {.op = &csl_stencil::kAccess, .numOperands = 1, .numResults = 1,
     .attrs = {{at::kOffset, "csl_stencil.access requires an offset"}}},
    {.op = &csl_stencil::kYield, .numResults = 0, .isTerminator = true},
};

constexpr OpSpec kCslWrapperOps[] = {
    {.op = &csl_wrapper::kModule, .numOperands = 0, .numResults = 0,
     .numRegions = 2,
     .attrs = {{at::kWidth, "csl_wrapper.module requires width/height"},
               {at::kHeight, "csl_wrapper.module requires width/height"},
               {at::kParams, "csl_wrapper.module requires params"}},
     .verify = [](Operation *op) -> std::string {
         if (op->region(0).empty() || op->region(1).empty())
             return "csl_wrapper.module requires layout and program blocks";
         if (op->region(0).front().numArguments() != 4)
             return "layout block must take (x, y, width, height)";
         return "";
     }},
    {.op = &csl_wrapper::kImport, .numResults = 1},
    {.op = &csl_wrapper::kParam, .numOperands = 0, .numResults = 1},
    {.op = &csl_wrapper::kYield, .numResults = 0, .isTerminator = true},
};

constexpr OpSpec kCslOps[] = {
    {.op = &csl::kModule, .numOperands = 0, .numResults = 0, .numRegions = 1,
     .verify = [](Operation *op) -> std::string {
         ir::Attribute kind = op->attr(at::kKind);
         if (!kind || !ir::isStringAttr(kind))
             return "csl.module requires a kind attribute";
         const std::string &k = ir::stringAttrValue(kind);
         if (k != "program" && k != "layout")
             return "csl.module kind must be program or layout";
         return "";
     }},
    {.op = &csl::kParam, .numOperands = 0, .numResults = 1,
     .attrs = {{at::kName, "csl.param requires a name"}}},
    {.op = &csl::kImportModule, .numResults = 1,
     .attrs = {{at::kModule, "csl.import_module requires a module name"}}},
    {.op = &csl::kMemberCall, .minOperands = 1,
     .attrs = {{at::kMember, "csl.member_call requires a member name"}}},
    {.op = &csl::kFunc, .numOperands = 0, .numResults = 0, .numRegions = 1,
     .attrs = {{at::kSymName, "csl.func requires a sym_name"}}},
    {.op = &csl::kTask, .numOperands = 0, .numResults = 0, .numRegions = 1,
     .attrs = {{at::kSymName, "csl.task requires a sym_name"}},
     .verify = [](Operation *op) -> std::string {
         ir::Attribute kind = op->attr(at::kKind);
         if (!kind || !ir::isStringAttr(kind))
             return "csl.task requires a kind";
         const std::string &k = ir::stringAttrValue(kind);
         if (k != "data" && k != "control" && k != "local")
             return "csl.task kind must be data, control or local";
         if (!op->attr(at::kId))
             return "csl.task requires an id";
         return "";
     }},
    {.op = &csl::kReturn, .numResults = 0, .isTerminator = true},
    {.op = &csl::kCall, .attrs = {{at::kCallee, "csl.call requires a callee"}}},
    {.op = &csl::kActivate, .numOperands = 0, .numResults = 0,
     .attrs = {{at::kTask, "csl.activate requires a task name"}}},
    {.op = &csl::kVariable, .numOperands = 0, .numResults = 0,
     .attrs = {{at::kSymName, "csl.variable requires a sym_name"},
               {at::kType, "csl.variable requires a type"}}},
    {.op = &csl::kLoadVar, .numOperands = 0, .numResults = 1,
     .attrs = {{at::kVar, "csl.load_var requires a var"}}},
    {.op = &csl::kStoreVar, .numOperands = 1, .numResults = 0,
     .attrs = {{at::kVar, "csl.store_var requires a var"}}},
    {.op = &csl::kAddressOf, .numOperands = 0, .numResults = 1,
     .attrs = {{at::kVar, "csl.addressof requires a var"}},
     .verify = [](Operation *op) -> std::string {
         return csl::isPtrType(op->result(0).type())
                    ? ""
                    : "csl.addressof result must be a pointer";
     }},
    {.op = &csl::kGetMemDsd, .numResults = 1,
     .attrs = {{at::kVar, "csl.get_mem_dsd requires a var"}},
     .verify = [](Operation *op) -> std::string {
         return csl::isDsdType(op->result(0).type())
                    ? ""
                    : "csl.get_mem_dsd result must be a DSD";
     }},
    {.op = &csl::kSetDsdBaseAddr, .numOperands = 2, .numResults = 1},
    {.op = &csl::kIncrementDsdOffset, .numOperands = 2, .numResults = 1},
    {.op = &csl::kSetDsdLength, .numOperands = 2, .numResults = 1},
    {.op = &csl::kFadds, .numOperands = 3, .numResults = 0},
    {.op = &csl::kFsubs, .numOperands = 3, .numResults = 0},
    {.op = &csl::kFmuls, .numOperands = 3, .numResults = 0},
    {.op = &csl::kFmovs, .numOperands = 2, .numResults = 0},
    {.op = &csl::kFmacs, .numOperands = 4, .numResults = 0},
    {.op = &csl::kCommsExchange, .numOperands = 1, .numResults = 0,
     .attrs = {{at::kRecvCb, "csl.comms_exchange requires recv_cb and done_cb"},
               {at::kDoneCb, "csl.comms_exchange requires recv_cb and done_cb"},
               {at::kNumChunks, "csl.comms_exchange requires num_chunks"}}},
    {.op = &csl::kExport, .numOperands = 0, .numResults = 0},
    {.op = &csl::kUnblockCmdStream, .numOperands = 0, .numResults = 0},
    {.op = &csl::kSetRectangle, .numOperands = 0, .numResults = 0},
    {.op = &csl::kSetTileCode, .numOperands = 0, .numResults = 0},
};

constexpr std::span<const OpSpec> kDialects[] = {
    kBuiltinOps, kFuncOps,   kArithOps,     kScfOps,        kStencilOps,
    kTensorOps,  kMemrefOps, kLinalgOps,    kDmpOps,        kVarithOps,
    kCslStencilOps, kCslWrapperOps, kCslOps,
};

} // namespace

void
registerAllDialects(ir::Context &ctx)
{
    for (std::span<const OpSpec> table : kDialects)
        for (const OpSpec &spec : table)
            ctx.registerOp(spec);
}

} // namespace wsc::dialects
