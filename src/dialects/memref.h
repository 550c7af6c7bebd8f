/**
 * @file
 * Minimal memref dialect: reference-semantics buffers produced by
 * bufferization, lowered further to CSL DSDs.
 */

#ifndef WSC_DIALECTS_MEMREF_H
#define WSC_DIALECTS_MEMREF_H

#include "ir/builder.h"

namespace wsc::dialects::memref {

inline const ir::OpId kAlloc = ir::OpId::get("memref.alloc");
inline const ir::OpId kDealloc = ir::OpId::get("memref.dealloc");
inline const ir::OpId kCopy = ir::OpId::get("memref.copy");
inline const ir::OpId kSubview = ir::OpId::get("memref.subview");
inline const ir::OpId kLoad = ir::OpId::get("memref.load");
inline const ir::OpId kStore = ir::OpId::get("memref.store");

/** Allocate a buffer of the given memref type. */
ir::Value createAlloc(ir::OpBuilder &b, ir::Type memrefType);

/** memref.copy(source, dest). */
ir::Operation *createCopy(ir::OpBuilder &b, ir::Value source,
                          ir::Value dest);

/**
 * 1-D subview at a static or dynamic offset. When `dynOffset` is a valid
 * value it is used; otherwise `staticOffset` applies.
 */
ir::Value createSubview(ir::OpBuilder &b, ir::Value source,
                        int64_t staticOffset, int64_t size,
                        ir::Value dynOffset = ir::Value());

/** Scalar load at indices. */
ir::Value createLoad(ir::OpBuilder &b, ir::Value memref,
                     const std::vector<ir::Value> &indices);

/** Scalar store at indices. */
ir::Operation *createStore(ir::OpBuilder &b, ir::Value value,
                           ir::Value memref,
                           const std::vector<ir::Value> &indices);

} // namespace wsc::dialects::memref

#endif // WSC_DIALECTS_MEMREF_H
