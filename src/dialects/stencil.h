/**
 * @file
 * The stencil dialect (Open Earth Compiler / xDSL lineage): an
 * architecture-agnostic, value-semantics description of stencil
 * computations over bounded grids.
 *
 * Types:
 *   !stencil.field<[lb,ub]x...xT>  — a named grid in storage
 *   !stencil.temp<[lb,ub]x...xT>   — an SSA value holding grid data
 *
 * Ops: stencil.load / stencil.apply / stencil.access / stencil.return /
 * stencil.store.
 */

#ifndef WSC_DIALECTS_STENCIL_H
#define WSC_DIALECTS_STENCIL_H

#include <cstdint>
#include <vector>

#include "ir/builder.h"

namespace wsc::dialects::stencil {

inline const ir::OpId kLoad = ir::OpId::get("stencil.load");
inline const ir::OpId kStore = ir::OpId::get("stencil.store");
inline const ir::OpId kApply = ir::OpId::get("stencil.apply");
inline const ir::OpId kAccess = ir::OpId::get("stencil.access");
inline const ir::OpId kReturn = ir::OpId::get("stencil.return");

/** Per-dimension inclusive-lower / exclusive-upper bounds. */
struct Bounds
{
    std::vector<int64_t> lb;
    std::vector<int64_t> ub;

    size_t rank() const { return lb.size(); }
    int64_t size(size_t dim) const { return ub[dim] - lb[dim]; }
    int64_t
    totalSize() const
    {
        int64_t n = 1;
        for (size_t d = 0; d < rank(); ++d)
            n *= size(d);
        return n;
    }
    bool operator==(const Bounds &other) const = default;
};

/// @name Types
/// @{
ir::Type getFieldType(ir::Context &ctx, const Bounds &bounds,
                      ir::Type elementType);
ir::Type getTempType(ir::Context &ctx, const Bounds &bounds,
                     ir::Type elementType);
bool isFieldType(ir::Type t);
bool isTempType(ir::Type t);
/** Bounds of a field/temp type. */
Bounds boundsOf(ir::Type t);
/** Element type of a field/temp type (scalar or tensor when tensorized). */
ir::Type stencilElementTypeOf(ir::Type t);
/// @}

/// @name Ops
/// @{
/** stencil.load: field -> temp covering the field bounds. */
ir::Value createLoad(ir::OpBuilder &b, ir::Value field);

/** stencil.store: write a temp back to a field over `bounds`. */
ir::Operation *createStore(ir::OpBuilder &b, ir::Value temp, ir::Value field,
                           const Bounds &bounds);

/**
 * stencil.apply over `operands`. The body block receives one argument per
 * operand (same types) and must be terminated with stencil.return. Result
 * types are temps with the given bounds and element types.
 */
ir::Operation *createApply(ir::OpBuilder &b,
                           const std::vector<ir::Value> &operands,
                           const std::vector<ir::Type> &resultTypes);

/** The body block of a stencil.apply (or csl_stencil.apply region). */
ir::Block *applyBody(ir::Operation *applyOp);

/**
 * stencil.access of a temp at a constant offset relative to the current
 * grid point. Result type is the temp's element type.
 */
ir::Value createAccess(ir::OpBuilder &b, ir::Value temp,
                       const std::vector<int64_t> &offset);

/** Offset of a stencil.access / csl_stencil.access op. */
std::vector<int64_t> accessOffset(ir::Operation *accessOp);

/** stencil.return terminator. */
ir::Operation *createReturn(ir::OpBuilder &b,
                            const std::vector<ir::Value> &values);
/// @}

} // namespace wsc::dialects::stencil

#endif // WSC_DIALECTS_STENCIL_H
