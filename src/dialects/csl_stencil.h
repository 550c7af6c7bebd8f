/**
 * @file
 * The csl-stencil dialect (paper §4.1): the WSE-specific stencil form that
 * makes communication explicit and splits computation into processing of
 * remotely-held data (received in chunks) and locally-held data.
 *
 * csl_stencil.apply carries two regions:
 *   region 0 — receive-chunk: executed once per incoming chunk, with block
 *     args (%recvBuf, %offset : index, %acc); reduces the chunk into the
 *     accumulator (and may apply promoted coefficients);
 *   region 1 — done-exchange: executed once after all chunks arrived, with
 *     block args (%input, %acc); performs the remaining local compute.
 */

#ifndef WSC_DIALECTS_CSL_STENCIL_H
#define WSC_DIALECTS_CSL_STENCIL_H

#include <cstdint>
#include <vector>

#include "ir/builder.h"
#include "dialects/dmp.h"

namespace wsc::dialects::csl_stencil {

inline const ir::OpId kPrefetch = ir::OpId::get("csl_stencil.prefetch");
inline const ir::OpId kApply = ir::OpId::get("csl_stencil.apply");
inline const ir::OpId kAccess = ir::OpId::get("csl_stencil.access");
inline const ir::OpId kYield = ir::OpId::get("csl_stencil.yield");

/**
 * csl_stencil.prefetch: fetch remote data described by the exchanges into
 * a local receive buffer. Result type is the buffer tensor
 * (neighbours x z-size).
 */
ir::Value createPrefetch(ir::OpBuilder &b, ir::Value input,
                         const std::vector<dmp::Exchange> &swaps,
                         int64_t numChunks, ir::Type bufferType);

/**
 * csl_stencil.apply combining communication and computation.
 *
 * Operands: [input temp (communicated), accumulator init tensor,
 * otherInputs... (local-only temps)].
 * Attributes: swaps, num_chunks, topology; optional `coeffs` (per-neighbour
 * factors promoted into the communication path, canonical section order).
 * Results: one temp (the computed output).
 *
 * Region blocks are created with the canonical arguments:
 *   region 0 (receive-chunk): (recvBufferChunk tensor, offset index, acc)
 *   region 1 (done-exchange): (input temp, acc tensor, otherInputs...)
 */
ir::Operation *createApply(ir::OpBuilder &b, ir::Value input,
                           ir::Value accumulator,
                           const std::vector<ir::Value> &otherInputs,
                           const std::vector<dmp::Exchange> &swaps,
                           int64_t numChunks,
                           std::pair<int64_t, int64_t> topology,
                           ir::Type resultType,
                           ir::Type recvChunkType);

/**
 * Canonical section order of exchanges: by source direction (E, W, N, S),
 * then by distance — the order the runtime library's receive buffer uses.
 */
std::vector<dmp::Exchange> canonicalExchangeOrder(
    std::vector<dmp::Exchange> swaps);

/** Receive-chunk region block. */
ir::Block *applyRecvBlock(ir::Operation *applyOp);
/** Done-exchange region block. */
ir::Block *applyDoneBlock(ir::Operation *applyOp);

/** Decode the swaps attribute of prefetch/apply. */
std::vector<dmp::Exchange> applyExchanges(ir::Operation *op);

/** num_chunks attribute. */
int64_t applyNumChunks(ir::Operation *op);

/**
 * csl_stencil.access: offset-based access, resolved to either local data
 * or the receive buffer depending on the offset.
 */
ir::Value createAccess(ir::OpBuilder &b, ir::Value source,
                       const std::vector<int64_t> &offset,
                       ir::Type resultType);

/** csl_stencil.yield terminator. */
ir::Operation *createYield(ir::OpBuilder &b,
                           const std::vector<ir::Value> &values);

} // namespace wsc::dialects::csl_stencil

#endif // WSC_DIALECTS_CSL_STENCIL_H
