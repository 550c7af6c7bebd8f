/**
 * @file
 * The csl-wrapper dialect (paper §4.2): packages program-wide parameters,
 * the layout metaprogram, and the PE program together, mirroring CSL's
 * staged compilation (the layout file is executed at compile time to
 * specialize per-PE programs).
 *
 * csl_wrapper.module has two regions:
 *   region 0 — layout: block args (x, y, width, height); computes per-PE
 *     parameters and yields them;
 *   region 1 — program: block args are the module parameters (as declared
 *     by the `params` attribute) followed by the values yielded by the
 *     layout region.
 */

#ifndef WSC_DIALECTS_CSL_WRAPPER_H
#define WSC_DIALECTS_CSL_WRAPPER_H

#include <cstdint>
#include <string>
#include <vector>

#include "ir/builder.h"

namespace wsc::dialects::csl_wrapper {

inline const ir::OpId kModule = ir::OpId::get("csl_wrapper.module");
inline const ir::OpId kImport = ir::OpId::get("csl_wrapper.import");
inline const ir::OpId kParam = ir::OpId::get("csl_wrapper.param");
inline const ir::OpId kYield = ir::OpId::get("csl_wrapper.yield");

/** A named compile-time module parameter. */
struct Param
{
    std::string name;
    int64_t value = 0;
};

/**
 * Create a csl_wrapper.module of the given fabric extent with the given
 * program-wide parameters. Both regions get an empty entry block; the
 * layout block receives (x, y, width, height) i16 arguments, the program
 * block one i16 argument per parameter.
 */
ir::Operation *createModule(ir::OpBuilder &b, int64_t width, int64_t height,
                            const std::vector<Param> &params,
                            const std::string &programName);

ir::Block *layoutBlock(ir::Operation *moduleOp);
ir::Block *programBlock(ir::Operation *moduleOp);

/** Decode the params attribute. */
std::vector<Param> moduleParams(ir::Operation *moduleOp);
/** Fabric extent (width, height). */
std::pair<int64_t, int64_t> moduleExtent(ir::Operation *moduleOp);

/** csl_wrapper.import of a CSL library into the layout region. */
ir::Value createImport(ir::OpBuilder &b, const std::string &module,
                       const std::vector<std::pair<std::string, ir::Value>>
                           &fields);

/** csl_wrapper.yield terminator. */
ir::Operation *createYield(ir::OpBuilder &b,
                           const std::vector<ir::Value> &values);

} // namespace wsc::dialects::csl_wrapper

#endif // WSC_DIALECTS_CSL_WRAPPER_H
