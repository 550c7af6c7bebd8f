/**
 * @file
 * Minimal tensor dialect: value-semantics aggregate manipulation used by
 * the chunked-communication regions (insert_slice of received chunks into
 * the accumulator).
 */

#ifndef WSC_DIALECTS_TENSOR_H
#define WSC_DIALECTS_TENSOR_H

#include "ir/builder.h"

namespace wsc::dialects::tensor {

inline const ir::OpId kEmpty = ir::OpId::get("tensor.empty");
inline const ir::OpId kInsertSlice = ir::OpId::get("tensor.insert_slice");
inline const ir::OpId kExtractSlice = ir::OpId::get("tensor.extract_slice");

/** Create an uninitialized tensor of the given type. */
ir::Value createEmpty(ir::OpBuilder &b, ir::Type tensorType);

/**
 * Insert `source` into `dest` at a dynamic 1-D `offset` (index value);
 * `size` elements with unit stride. Returns the updated tensor.
 */
ir::Value createInsertSlice(ir::OpBuilder &b, ir::Value source,
                            ir::Value dest, ir::Value offset, int64_t size);

/** Extract `size` elements at static `offset` (1-D, unit stride). */
ir::Value createExtractSlice(ir::OpBuilder &b, ir::Value source,
                             int64_t offset, int64_t size);

} // namespace wsc::dialects::tensor

#endif // WSC_DIALECTS_TENSOR_H
