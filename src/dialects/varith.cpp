#include "dialects/varith.h"

#include "support/error.h"

namespace wsc::dialects::varith {

ir::Value
createVariadic(ir::OpBuilder &b, ir::OpId op,
               const std::vector<ir::Value> &operands)
{
    WSC_ASSERT(!operands.empty(), "varith op requires operands");
    return b.create(op, operands, {operands[0].type()})->result();
}

} // namespace wsc::dialects::varith
