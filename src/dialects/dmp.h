/**
 * @file
 * The dmp (distributed-memory parallelism) dialect from Bisbas et al.,
 * reused unchanged for the WSE: dmp.swap declares the halo exchanges that
 * must complete before a stencil.apply can run.
 */

#ifndef WSC_DIALECTS_DMP_H
#define WSC_DIALECTS_DMP_H

#include <cstdint>
#include <vector>

#include "ir/builder.h"

namespace wsc::dialects::dmp {

inline const ir::OpId kSwap = ir::OpId::get("dmp.swap");

/** One halo exchange with a neighbour at grid offset (dx, dy). */
struct Exchange
{
    int64_t dx = 0;
    int64_t dy = 0;
    /** Halo depth in grid points along the exchange direction. */
    int64_t width = 1;

    bool operator==(const Exchange &other) const = default;
};

/**
 * Create dmp.swap on a temp value: declares that before consuming the
 * result, the listed exchanges must complete on a (nx, ny) PE grid.
 */
ir::Value createSwap(ir::OpBuilder &b, ir::Value input,
                     const std::vector<Exchange> &swaps, int64_t nx,
                     int64_t ny);

/** Decode the swaps attribute. */
std::vector<Exchange> swapExchanges(ir::Operation *swapOp);

/** Decode the grid topology attribute (nx, ny). */
std::pair<int64_t, int64_t> swapTopology(ir::Operation *swapOp);

} // namespace wsc::dialects::dmp

#endif // WSC_DIALECTS_DMP_H
