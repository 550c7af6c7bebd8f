/**
 * @file
 * Golden lock on the op verifiers. Every dialect op is built bare over a
 * small cross product of shapes (0-4 operands, 0-1 results, 0-2 empty
 * regions, with no attributes and with every well-known attribute set),
 * and the first verifier message reported against it, or "ok", is
 * compared line by line against tests/golden/verifier_messages.txt.
 *
 * The file pins both the message texts and the order in which each op's
 * checks run: counts first, then required attributes and semantic
 * checks. Regenerate after an intentional change with
 *
 *     WSC_UPDATE_GOLDEN=1 ./build/wsc_golden_tests
 *
 * and review the diff of tests/golden/ before committing.
 */

#include "test_helpers.h"

#include <fstream>
#include <iterator>
#include <sstream>

#include "support/env.h"

namespace wsc::test {
namespace {

namespace d = dialects;

/** Every op constant the dialect headers declare. */
const ir::OpId kAllOps[] = {
    d::builtin::kModule, d::builtin::kUnrealizedCast,
    d::func::kFunc, d::func::kReturn, d::func::kCall,
    d::arith::kConstant, d::arith::kAddF, d::arith::kSubF, d::arith::kMulF,
    d::arith::kDivF, d::arith::kAddI, d::arith::kSubI, d::arith::kMulI,
    d::arith::kCmpI, d::arith::kSelect,
    d::scf::kFor, d::scf::kIf, d::scf::kYield,
    d::stencil::kLoad, d::stencil::kStore, d::stencil::kApply,
    d::stencil::kAccess, d::stencil::kReturn,
    d::tensor::kEmpty, d::tensor::kInsertSlice, d::tensor::kExtractSlice,
    d::memref::kAlloc, d::memref::kDealloc, d::memref::kCopy,
    d::memref::kSubview, d::memref::kLoad, d::memref::kStore,
    d::linalg::kAdd, d::linalg::kSub, d::linalg::kMul, d::linalg::kDiv,
    d::linalg::kFill, d::linalg::kCopy, d::linalg::kFmac,
    d::dmp::kSwap,
    d::varith::kAdd, d::varith::kMul,
    d::csl_stencil::kPrefetch, d::csl_stencil::kApply,
    d::csl_stencil::kAccess, d::csl_stencil::kYield,
    d::csl_wrapper::kModule, d::csl_wrapper::kImport,
    d::csl_wrapper::kParam, d::csl_wrapper::kYield,
    d::csl::kModule, d::csl::kParam, d::csl::kImportModule,
    d::csl::kMemberCall, d::csl::kFunc, d::csl::kTask, d::csl::kReturn,
    d::csl::kCall, d::csl::kActivate, d::csl::kVariable, d::csl::kLoadVar,
    d::csl::kStoreVar, d::csl::kAddressOf, d::csl::kGetMemDsd,
    d::csl::kSetDsdBaseAddr, d::csl::kIncrementDsdOffset,
    d::csl::kSetDsdLength, d::csl::kFadds, d::csl::kFsubs, d::csl::kFmuls,
    d::csl::kFmovs, d::csl::kFmacs, d::csl::kCommsExchange,
    d::csl::kExport, d::csl::kUnblockCmdStream, d::csl::kSetRectangle,
    d::csl::kSetTileCode,
};
static_assert(std::size(kAllOps) == 77);

constexpr unsigned kMaxOperands = 4;

class VerifierMessagesTest : public IrTest
{
  protected:
    /**
     * Every well-known attribute except `skip`: i64 1, but `kind` is the
     * string `kind` ("data" is a valid csl.task kind and an invalid
     * csl.module kind).
     */
    ir::AttrList
    attrsExcept(const char *skip, const char *kind = "data")
    {
        ir::AttrList out;
        for (const char *name : ir::attrs::kWellKnownNames)
            if (name != skip)
                out.emplace_back(name, std::string(name) == "kind"
                                           ? ir::getStringAttr(ctx, kind)
                                           : ir::getIntAttr(ctx, 1));
        return out;
    }

    /**
     * First verifier message reported against a bare `id` op placed alone
     * in a valid host function. The host's arguments (f32, f32, i32, f32)
     * feed the operands, so three or more operands mix types.
     */
    std::string
    firstMessage(ir::OpId id, unsigned numOperands,
                 const std::vector<ir::Type> &results, unsigned numRegions,
                 const ir::AttrList &attrs)
    {
        ir::OwningOp module = d::builtin::createModule(ctx);
        ir::OpBuilder b(ctx);
        b.setInsertionPointToEnd(d::builtin::moduleBody(module.get()));
        ir::Type f32 = ir::getF32Type(ctx);
        ir::Operation *host = d::func::createFunc(
            b, "host", {f32, f32, ir::getI32Type(ctx), f32}, {});
        b.setInsertionPointToEnd(d::func::funcBody(host));
        std::vector<ir::Value> args = d::func::funcBody(host)->arguments();
        args.resize(numOperands);
        b.create(id, args, results, attrs, numRegions);
        std::string prefix = "'" + id.str() + "': ";
        for (const std::string &e : ir::verifyCollect(module.get()))
            if (e.compare(0, prefix.size(), prefix) == 0)
                return e.substr(prefix.size());
        return "ok";
    }
};

/**
 * One line per (op, operand count, result count, region count) with no
 * attributes and one with every attribute. Three kinds of variant line
 * follow only when they change the message of the all-attributes line:
 * the single result typed i32 instead of f32, `kind` set to a value no
 * op accepts, and each attribute left out in turn (which pins every
 * required-attribute message and its place in the check order).
 */
TEST_F(VerifierMessagesTest, FirstMessagePerShapeMatchesGolden)
{
    ir::Type f32 = ir::getF32Type(ctx);
    ir::Type i32 = ir::getI32Type(ctx);
    std::ostringstream actual;
    for (ir::OpId id : kAllOps) {
        EXPECT_TRUE(ctx.isRegisteredOp(id)) << id << " is not registered";
        for (unsigned ops = 0; ops <= kMaxOperands; ++ops)
            for (unsigned res = 0; res <= 1; ++res)
                for (unsigned regs = 0; regs <= 2; ++regs) {
                    std::ostringstream shape;
                    shape << id << " operands=" << ops << " results=" << res
                          << " regions=" << regs << " attrs=";
                    std::vector<ir::Type> results(res, f32);
                    std::string none =
                        firstMessage(id, ops, results, regs, {});
                    std::string all = firstMessage(id, ops, results, regs,
                                                   attrsExcept(nullptr));
                    actual << shape.str() << "none: " << none << "\n"
                           << shape.str() << "all: " << all << "\n";
                    if (res == 1) {
                        std::string m = firstMessage(id, ops, {i32}, regs,
                                                     attrsExcept(nullptr));
                        if (m != all)
                            actual << shape.str() << "all result=i32: " << m
                                   << "\n";
                    }
                    std::string bogus = firstMessage(
                        id, ops, results, regs,
                        attrsExcept(nullptr, "bogus"));
                    if (bogus != all)
                        actual << shape.str() << "all kind=bogus: " << bogus
                               << "\n";
                    if (none == all)
                        continue;
                    for (const char *skip : ir::attrs::kWellKnownNames) {
                        std::string m = firstMessage(id, ops, results, regs,
                                                     attrsExcept(skip));
                        if (m != all)
                            actual << shape.str() << "all-" << skip << ": "
                                   << m << "\n";
                    }
                }
    }

    std::string path =
        std::string(WSC_GOLDEN_DIR) + "/verifier_messages.txt";
    if (envFlag("WSC_UPDATE_GOLDEN")) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.is_open()) << "cannot write " << path;
        out << actual.str();
        return;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.is_open())
        << "missing golden file " << path
        << " — regenerate with WSC_UPDATE_GOLDEN=1 ./wsc_golden_tests";
    std::istringstream got(actual.str());
    std::string want, have;
    for (int line = 1;; ++line) {
        bool moreWant = static_cast<bool>(std::getline(in, want));
        bool moreHave = static_cast<bool>(std::getline(got, have));
        if (!moreWant && !moreHave)
            break;
        if (!moreWant)
            want = "<end of golden file>";
        if (!moreHave)
            have = "<end of output>";
        ASSERT_EQ(want, have) << "verifier_messages.txt line " << line;
    }
}

} // namespace
} // namespace wsc::test
