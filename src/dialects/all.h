/**
 * @file
 * Every dialect in the pipeline, and their registration.
 */

#ifndef WSC_DIALECTS_ALL_H
#define WSC_DIALECTS_ALL_H

#include "dialects/arith.h"
#include "dialects/builtin.h"
#include "dialects/csl.h"
#include "dialects/csl_stencil.h"
#include "dialects/csl_wrapper.h"
#include "dialects/dmp.h"
#include "dialects/func.h"
#include "dialects/linalg.h"
#include "dialects/memref.h"
#include "dialects/scf.h"
#include "dialects/stencil.h"
#include "dialects/tensor.h"
#include "dialects/varith.h"

namespace wsc::dialects {

/**
 * Register every dialect used by the lowering pipeline: one constexpr
 * table of ir::OpSpec rows per dialect (all.cpp). Idempotent.
 */
void registerAllDialects(ir::Context &ctx);

/** True when `op` has the given interned identity. */
inline bool
isa(ir::Operation *op, ir::OpId id)
{
    return op && op->is(id);
}

} // namespace wsc::dialects

#endif // WSC_DIALECTS_ALL_H
