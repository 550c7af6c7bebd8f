#include "ir/verifier.h"

#include <unordered_set>

#include "ir/context.h"
#include "ir/operation.h"

namespace wsc::ir {

namespace {

/**
 * Check `op` against its registered row: operand, result and region
 * counts, then required attributes in row order, then the row's
 * semantic check. Messages are built only on the failure paths.
 */
std::string
checkSpec(Operation *op, const OpSpec &spec)
{
    if (spec.numOperands >= 0 &&
        op->numOperands() != static_cast<unsigned>(spec.numOperands))
        return "expected " + std::to_string(spec.numOperands) +
               " operands, got " + std::to_string(op->numOperands());
    if (spec.minOperands >= 0 &&
        op->numOperands() < static_cast<unsigned>(spec.minOperands))
        return "expected at least " + std::to_string(spec.minOperands) +
               " operands, got " + std::to_string(op->numOperands());
    if (spec.numResults >= 0 &&
        op->numResults() != static_cast<unsigned>(spec.numResults))
        return "expected " + std::to_string(spec.numResults) +
               " results, got " + std::to_string(op->numResults());
    if (op->numRegions() != static_cast<unsigned>(spec.numRegions))
        return "expected " + std::to_string(spec.numRegions) +
               " regions, got " + std::to_string(op->numRegions());
    for (const RequiredAttr &a : spec.attrs)
        if (a.message && !op->attr(a.name))
            return a.message;
    return spec.verify ? spec.verify(op) : "";
}

/** Walks the IR accumulating (op, message) violations. */
class Verifier
{
  public:
    struct Violation
    {
        Operation *op;
        std::string message;
    };

    void
    error(Operation *op, std::string msg)
    {
        violations_.push_back({op, std::move(msg)});
    }

    /**
     * Verify `op`, with `visible` holding the set of values defined in
     * enclosing scopes (dominating this op).
     */
    void
    verifyOp(Operation *op, std::unordered_set<ValueImpl *> &visible)
    {
        // Operand visibility (SSA dominance in structured IR).
        for (unsigned i = 0; i < op->numOperands(); ++i) {
            Value v = op->operand(i);
            if (!visible.count(v.impl())) {
                error(op, "operand #" + std::to_string(i) +
                              " is not visible at its use (SSA violation)");
            }
        }
        // Parent links of regions/blocks.
        for (unsigned r = 0; r < op->numRegions(); ++r) {
            Region &region = op->region(r);
            if (region.parentOp() != op)
                error(op, "region parent link corrupted");
            for (Block *block : region.blocks()) {
                if (block->parentRegion() != &region)
                    error(op, "block parent link corrupted");
                verifyBlock(block, visible);
            }
        }
        // Registered per-op invariants.
        if (const OpSpec *spec = op->context().opInfo(op->opId())) {
            std::string msg = checkSpec(op, *spec);
            if (!msg.empty())
                error(op, std::move(msg));
        }
    }

    void
    verifyBlock(Block *block, std::unordered_set<ValueImpl *> &visible)
    {
        std::vector<ValueImpl *> introduced;
        for (unsigned i = 0; i < block->numArguments(); ++i) {
            visible.insert(block->argument(i).impl());
            introduced.push_back(block->argument(i).impl());
        }
        size_t i = 0, numOps = block->size();
        for (Operation *op : block->operations()) {
            if (op->parentBlock() != block)
                error(op, "op parent link corrupted");
            if (op->isTerminator() && i + 1 != numOps)
                error(op, "terminator is not the last op in its block");
            verifyOp(op, visible);
            for (unsigned r = 0; r < op->numResults(); ++r) {
                visible.insert(op->result(r).impl());
                introduced.push_back(op->result(r).impl());
            }
            ++i;
        }
        for (ValueImpl *v : introduced)
            visible.erase(v);
    }

    std::vector<Violation> takeViolations() { return std::move(violations_); }

  private:
    std::vector<Violation> violations_;
};

std::vector<Verifier::Violation>
collectViolations(Operation *root)
{
    Verifier verifier;
    std::unordered_set<ValueImpl *> visible;
    verifier.verifyOp(root, visible);
    return verifier.takeViolations();
}

} // namespace

std::vector<std::string>
verifyCollect(Operation *root)
{
    std::vector<std::string> errors;
    for (const Verifier::Violation &v : collectViolations(root))
        errors.push_back("'" + v.op->name() + "': " + v.message);
    return errors;
}

LogicalResult
verify(Operation *root)
{
    std::vector<Verifier::Violation> violations = collectViolations(root);
    for (Verifier::Violation &v : violations)
        emitError(v.op) << v.message;
    return violations.empty() ? success() : failure();
}

bool
verifies(Operation *root)
{
    return collectViolations(root).empty();
}

} // namespace wsc::ir
