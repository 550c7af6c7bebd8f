/**
 * @file
 * The builtin dialect: the top-level module op and the transitional
 * unrealized_cast used while converting between type systems.
 */

#ifndef WSC_DIALECTS_BUILTIN_H
#define WSC_DIALECTS_BUILTIN_H

#include "ir/builder.h"

namespace wsc::dialects::builtin {

inline const ir::OpId kModule = ir::OpId::get("builtin.module");
inline const ir::OpId kUnrealizedCast = ir::OpId::get("builtin.unrealized_cast");

/** Create an empty module (one region, one block). */
ir::OwningOp createModule(ir::Context &ctx);

/** The module's single body block. */
ir::Block *moduleBody(ir::Operation *module);

/** Build an unrealized cast of `value` to `type`. */
ir::Value createCast(ir::OpBuilder &b, ir::Value value, ir::Type type);

} // namespace wsc::dialects::builtin

#endif // WSC_DIALECTS_BUILTIN_H
