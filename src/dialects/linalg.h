/**
 * @file
 * Minimal linalg dialect in Destination-Passing Style: element-wise ops
 * reading `ins` and writing `outs`, mirroring CSL's DSD builtin model
 * (computations operate on physical memory passed as operands).
 *
 * Convention: operands are [ins..., out]; ops have no results when acting
 * on memrefs (reference semantics after bufferization).
 */

#ifndef WSC_DIALECTS_LINALG_H
#define WSC_DIALECTS_LINALG_H

#include "ir/builder.h"

namespace wsc::dialects::linalg {

inline const ir::OpId kAdd = ir::OpId::get("linalg.add");
inline const ir::OpId kSub = ir::OpId::get("linalg.sub");
inline const ir::OpId kMul = ir::OpId::get("linalg.mul");
inline const ir::OpId kDiv = ir::OpId::get("linalg.div");
inline const ir::OpId kFill = ir::OpId::get("linalg.fill");
inline const ir::OpId kCopy = ir::OpId::get("linalg.copy");
/**
 * linalg.fmac: out = addend + mulend * scalar (element-wise), the DPS
 * model of CSL's @fmacs builtin. Operands: [addend, mulend, scalar, out].
 */
inline const ir::OpId kFmac = ir::OpId::get("linalg.fmac");

/** Binary DPS op: op(ins[0], ins[1]) -> out. */
ir::Operation *createBinary(ir::OpBuilder &b, ir::OpId op, ir::Value lhs,
                            ir::Value rhs, ir::Value out);

/** linalg.fill(scalar) -> out. */
ir::Operation *createFill(ir::OpBuilder &b, ir::Value scalar, ir::Value out);

/** linalg.copy(source) -> out. */
ir::Operation *createCopy(ir::OpBuilder &b, ir::Value source, ir::Value out);

/** linalg.fmac(addend, mulend, scalar) -> out. */
ir::Operation *createFmac(ir::OpBuilder &b, ir::Value addend,
                          ir::Value mulend, ir::Value scalar, ir::Value out);

/** True for any linalg compute op. */
bool isLinalgOp(ir::Operation *op);

/** Number of FLOPs per element for a linalg op (fmac counts 2). */
int flopsPerElement(ir::Operation *op);

} // namespace wsc::dialects::linalg

#endif // WSC_DIALECTS_LINALG_H
