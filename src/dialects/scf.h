/**
 * @file
 * The scf dialect: structured control flow (for / if / yield). The
 * timestep loop that must later be recast into the WSE task graph is
 * represented as an scf.for.
 */

#ifndef WSC_DIALECTS_SCF_H
#define WSC_DIALECTS_SCF_H

#include "ir/builder.h"

namespace wsc::dialects::scf {

inline const ir::OpId kFor = ir::OpId::get("scf.for");
inline const ir::OpId kIf = ir::OpId::get("scf.if");
inline const ir::OpId kYield = ir::OpId::get("scf.yield");

/**
 * Create an scf.for loop. Operands are (lb, ub, step, iterInits...); the
 * body block receives (iv, iterArgs...) and must be terminated with an
 * scf.yield of the next iteration values. Results are the final values of
 * the iteration arguments.
 */
ir::Operation *createFor(ir::OpBuilder &b, ir::Value lb, ir::Value ub,
                         ir::Value step,
                         const std::vector<ir::Value> &iterInits = {});

/** The loop body block. */
ir::Block *forBody(ir::Operation *forOp);
/** The induction variable. */
ir::Value forInductionVar(ir::Operation *forOp);
/** Body block arguments corresponding to the iteration values. */
std::vector<ir::Value> forIterArgs(ir::Operation *forOp);
/** Operands corresponding to the initial iteration values. */
std::vector<ir::Value> forIterInits(ir::Operation *forOp);

/** Create an scf.if with a then and (optional) else region. */
ir::Operation *createIf(ir::OpBuilder &b, ir::Value condition,
                        const std::vector<ir::Type> &resultTypes = {},
                        bool withElse = true);

ir::Block *ifThenBlock(ir::Operation *ifOp);
ir::Block *ifElseBlock(ir::Operation *ifOp);

/** Create scf.yield. */
ir::Operation *createYield(ir::OpBuilder &b,
                           const std::vector<ir::Value> &values = {});

} // namespace wsc::dialects::scf

#endif // WSC_DIALECTS_SCF_H
