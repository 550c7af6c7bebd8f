/**
 * @file
 * The varith dialect (xDSL lineage): variadic arithmetic. A chain of
 * additions or multiplications is represented as a single n-ary op, which
 * greatly simplifies splitting the computation between remotely- and
 * locally-held data and enables the fuse-repeated-operands optimization.
 */

#ifndef WSC_DIALECTS_VARITH_H
#define WSC_DIALECTS_VARITH_H

#include "ir/builder.h"

namespace wsc::dialects::varith {

inline const ir::OpId kAdd = ir::OpId::get("varith.add");
inline const ir::OpId kMul = ir::OpId::get("varith.mul");

/** Create an n-ary add/mul over same-typed operands. */
ir::Value createVariadic(ir::OpBuilder &b, ir::OpId op,
                         const std::vector<ir::Value> &operands);

} // namespace wsc::dialects::varith

#endif // WSC_DIALECTS_VARITH_H
