/**
 * @file
 * The func dialect: functions, calls and returns.
 */

#ifndef WSC_DIALECTS_FUNC_H
#define WSC_DIALECTS_FUNC_H

#include <string>
#include <vector>

#include "ir/builder.h"

namespace wsc::dialects::func {

inline const ir::OpId kFunc = ir::OpId::get("func.func");
inline const ir::OpId kReturn = ir::OpId::get("func.return");
inline const ir::OpId kCall = ir::OpId::get("func.call");

/**
 * Create a func.func with the given symbol name and signature; the entry
 * block is created with matching arguments.
 */
ir::Operation *createFunc(ir::OpBuilder &b, const std::string &name,
                          const std::vector<ir::Type> &inputs,
                          const std::vector<ir::Type> &results);

/** The entry block of a func.func. */
ir::Block *funcBody(ir::Operation *funcOp);

/** Symbol name of a func.func. */
const std::string &funcName(ir::Operation *funcOp);

/** Result types of a func.func. */
std::vector<ir::Type> funcResultTypes(ir::Operation *funcOp);

/** Create func.return. */
ir::Operation *createReturn(ir::OpBuilder &b,
                            const std::vector<ir::Value> &values = {});

/** Create func.call to `callee`. */
ir::Operation *createCall(ir::OpBuilder &b, const std::string &callee,
                          const std::vector<ir::Value> &operands,
                          const std::vector<ir::Type> &results);

} // namespace wsc::dialects::func

#endif // WSC_DIALECTS_FUNC_H
