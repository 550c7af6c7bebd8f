/**
 * @file
 * The arith dialect: scalar and rank-polymorphic (tensor) arithmetic with
 * value semantics.
 */

#ifndef WSC_DIALECTS_ARITH_H
#define WSC_DIALECTS_ARITH_H

#include "ir/builder.h"

namespace wsc::dialects::arith {

inline const ir::OpId kConstant = ir::OpId::get("arith.constant");
inline const ir::OpId kAddF = ir::OpId::get("arith.addf");
inline const ir::OpId kSubF = ir::OpId::get("arith.subf");
inline const ir::OpId kMulF = ir::OpId::get("arith.mulf");
inline const ir::OpId kDivF = ir::OpId::get("arith.divf");
inline const ir::OpId kAddI = ir::OpId::get("arith.addi");
inline const ir::OpId kSubI = ir::OpId::get("arith.subi");
inline const ir::OpId kMulI = ir::OpId::get("arith.muli");
inline const ir::OpId kCmpI = ir::OpId::get("arith.cmpi");
inline const ir::OpId kSelect = ir::OpId::get("arith.select");

/** Scalar f32 constant. */
ir::Value createConstantF32(ir::OpBuilder &b, double value);
/** Index-typed constant. */
ir::Value createConstantIndex(ir::OpBuilder &b, int64_t value);
/** i32 constant. */
ir::Value createConstantI32(ir::OpBuilder &b, int64_t value);
/** i16 constant. */
ir::Value createConstantI16(ir::OpBuilder &b, int64_t value);
/** Splat dense constant over a tensor/memref type. */
ir::Value createDenseConstant(ir::OpBuilder &b, ir::Type shapedType,
                              double splat);

/** Generic binary float op (both operands must have identical type). */
ir::Value createBinary(ir::OpBuilder &b, ir::OpId op, ir::Value lhs,
                       ir::Value rhs);

ir::Value createAddF(ir::OpBuilder &b, ir::Value lhs, ir::Value rhs);
ir::Value createSubF(ir::OpBuilder &b, ir::Value lhs, ir::Value rhs);
ir::Value createMulF(ir::OpBuilder &b, ir::Value lhs, ir::Value rhs);
ir::Value createDivF(ir::OpBuilder &b, ir::Value lhs, ir::Value rhs);
ir::Value createAddI(ir::OpBuilder &b, ir::Value lhs, ir::Value rhs);

/** Integer comparison; predicate is one of lt, le, gt, ge, eq, ne. */
ir::Value createCmpI(ir::OpBuilder &b, const std::string &predicate,
                     ir::Value lhs, ir::Value rhs);

/** True when the op is one of the arith binary float ops. */
bool isBinaryFloatOp(ir::Operation *op);

/** True when the op is an arith.constant with a (splat) float payload. */
bool isFloatConstant(ir::Operation *op);

/** Splat/scalar float payload of an arith.constant. */
double floatConstantValue(ir::Operation *op);

} // namespace wsc::dialects::arith

#endif // WSC_DIALECTS_ARITH_H
