/**
 * @file
 * The csl-ir dialect (paper §4.3): a direct re-implementation of a large
 * subset of the Cerebras CSL programming language. Constructs present in
 * CSL are represented 1:1 so that a printer can emit CSL source, and so
 * that the interpreter can execute the same IR on the simulated WSE.
 *
 * Key concepts mirrored from CSL:
 *  - modules (program and layout, reflecting staged compilation),
 *  - comptime params,
 *  - functions and tasks (data / control / local — software actors),
 *  - module-level variables (actor state shared between tasks),
 *  - Data Structure Descriptors (DSDs) and the DSD compute builtins
 *    (@fadds, @fsubs, @fmuls, @fmovs, @fmacs),
 *  - task activation and the memcpy host interface,
 *  - the chunked communication entry point of the runtime library (§5.6).
 */

#ifndef WSC_DIALECTS_CSL_H
#define WSC_DIALECTS_CSL_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ir/builder.h"

namespace wsc::dialects::csl {

/// @name Module structure
/// @{
inline const ir::OpId kModule = ir::OpId::get("csl.module");
inline const ir::OpId kParam = ir::OpId::get("csl.param");
inline const ir::OpId kImportModule = ir::OpId::get("csl.import_module");
inline const ir::OpId kMemberCall = ir::OpId::get("csl.member_call");
/// @}

/// @name Functions, tasks and control
/// @{
inline const ir::OpId kFunc = ir::OpId::get("csl.func");
inline const ir::OpId kTask = ir::OpId::get("csl.task");
inline const ir::OpId kReturn = ir::OpId::get("csl.return");
inline const ir::OpId kCall = ir::OpId::get("csl.call");
inline const ir::OpId kActivate = ir::OpId::get("csl.activate");
/// @}

/// @name Module-level state
/// @{
inline const ir::OpId kVariable = ir::OpId::get("csl.variable");
inline const ir::OpId kLoadVar = ir::OpId::get("csl.load_var");
inline const ir::OpId kStoreVar = ir::OpId::get("csl.store_var");
inline const ir::OpId kAddressOf = ir::OpId::get("csl.addressof");
/// @}

/// @name DSDs and compute builtins
/// @{
inline const ir::OpId kGetMemDsd = ir::OpId::get("csl.get_mem_dsd");
inline const ir::OpId kSetDsdBaseAddr = ir::OpId::get("csl.set_dsd_base_addr");
inline const ir::OpId kIncrementDsdOffset = ir::OpId::get("csl.increment_dsd_offset");
inline const ir::OpId kSetDsdLength = ir::OpId::get("csl.set_dsd_length");
inline const ir::OpId kFadds = ir::OpId::get("csl.fadds");
inline const ir::OpId kFsubs = ir::OpId::get("csl.fsubs");
inline const ir::OpId kFmuls = ir::OpId::get("csl.fmuls");
inline const ir::OpId kFmovs = ir::OpId::get("csl.fmovs");
inline const ir::OpId kFmacs = ir::OpId::get("csl.fmacs");
/// @}

/// @name Communication and host interface
/// @{
inline const ir::OpId kCommsExchange = ir::OpId::get("csl.comms_exchange");
inline const ir::OpId kExport = ir::OpId::get("csl.export");
inline const ir::OpId kUnblockCmdStream = ir::OpId::get("csl.unblock_cmd_stream");
/// @}

/// @name Layout metaprogram
/// @{
inline const ir::OpId kSetRectangle = ir::OpId::get("csl.set_rectangle");
inline const ir::OpId kSetTileCode = ir::OpId::get("csl.set_tile_code");
/// @}

/// @name Types
/// @{
/** DSD type; kind is one of mem1d_dsd, mem4d_dsd, fabin_dsd, fabout_dsd. */
ir::Type getDsdType(ir::Context &ctx, const std::string &kind = "mem1d_dsd");
bool isDsdType(ir::Type t);
/** Pointer to a (possibly array) value, modelling CSL [*]T pointers. */
ir::Type getPtrType(ir::Context &ctx, ir::Type pointee);
bool isPtrType(ir::Type t);
ir::Type ptrPointeeType(ir::Type t);
/** Result of importing a module at comptime. */
ir::Type getComptimeStructType(ir::Context &ctx);
ir::Type getColorType(ir::Context &ctx);
/// @}

/// @name Module structure builders
/// @{
/** Create a csl.module of kind "program" or "layout". */
ir::Operation *createModule(ir::OpBuilder &b, const std::string &kind,
                            const std::string &name);
ir::Block *moduleBody(ir::Operation *moduleOp);

/** Comptime param declaration; result is the param value. */
ir::Value createParam(ir::OpBuilder &b, const std::string &name,
                      ir::Type type, std::optional<int64_t> defaultValue);

/** Import a CSL library module at comptime. */
ir::Value createImportModule(ir::OpBuilder &b, const std::string &module,
                             const std::vector<std::pair<std::string,
                                                         ir::Value>> &fields
                             = {});

/** Call a member function of an imported module. */
ir::Operation *createMemberCall(ir::OpBuilder &b, ir::Value moduleStruct,
                                const std::string &member,
                                const std::vector<ir::Value> &args,
                                const std::vector<ir::Type> &results = {});
/// @}

/// @name Function / task builders
/// @{
/** Create a csl.func; entry block args match `inputs`. */
ir::Operation *createFunc(ir::OpBuilder &b, const std::string &name,
                          const std::vector<ir::Type> &inputs = {},
                          const std::vector<ir::Type> &results = {});

/**
 * Create a csl.task. Kind is "data", "control" or "local"; `id` is the
 * task ID (for local tasks) or the color (for data/control tasks).
 * `argTypes` describes the wavelet payload for data tasks.
 */
ir::Operation *createTask(ir::OpBuilder &b, const std::string &name,
                          const std::string &kind, int64_t id,
                          const std::vector<ir::Type> &argTypes = {});

ir::Block *calleeBody(ir::Operation *funcOrTask);

ir::Operation *createReturn(ir::OpBuilder &b,
                            const std::vector<ir::Value> &values = {});
ir::Operation *createCall(ir::OpBuilder &b, const std::string &callee,
                          const std::vector<ir::Value> &operands = {},
                          const std::vector<ir::Type> &results = {});
/** Activate a local task by symbol name. */
ir::Operation *createActivate(ir::OpBuilder &b, const std::string &task);
/// @}

/// @name Module state builders
/// @{
/**
 * Declare a module-level variable. For arrays pass a memref type; for
 * scalars an int/float type; for symbolic pointers a csl.ptr type.
 */
ir::Operation *createVariable(ir::OpBuilder &b, const std::string &name,
                              ir::Type type,
                              ir::Attribute init = ir::Attribute());

ir::Value createLoadVar(ir::OpBuilder &b, const std::string &name,
                        ir::Type type);
ir::Operation *createStoreVar(ir::OpBuilder &b, const std::string &name,
                              ir::Value value);
/** Pointer to a module-level variable (CSL &var). */
ir::Value createAddressOf(ir::OpBuilder &b, const std::string &name,
                          ir::Type ptrType);
/// @}

/// @name DSD builders
/// @{
/**
 * Build a mem1d DSD over a module-level array variable (or over the
 * buffer a ptr variable currently points at when `viaPtr` is set):
 * `length` elements starting at `offset` with `stride`.
 */
ir::Value createGetMemDsd(ir::OpBuilder &b, const std::string &var,
                          int64_t offset, int64_t length, int64_t stride = 1,
                          bool viaPtr = false);

/** DSD with the same shape but shifted base offset (dynamic). */
ir::Value createIncrementDsdOffset(ir::OpBuilder &b, ir::Value dsd,
                                   ir::Value offsetElems);

/** DSD compute builtins. Operands may be DSDs or f32 scalars. */
ir::Operation *createBuiltin(ir::OpBuilder &b, ir::OpId op,
                             const std::vector<ir::Value> &operands);
/// @}

/// @name Communication / host builders
/// @{
/** Parameters of a chunked exchange (see comms/star_comm.h). */
struct CommsExchangeSpec
{
    std::string recvCallback; ///< invoked per received chunk
    std::string doneCallback; ///< invoked when the exchange completes
    /** Module variable receiving landed chunks (library-owned). */
    std::string recvBufferName = "recv_buffer";
    /** Remote accesses (dx, dy), in canonical section order. */
    std::vector<std::pair<int64_t, int64_t>> accesses;
    int64_t numChunks = 1;
    int64_t pattern = 1;      ///< star-stencil radius
    int64_t zSize = 0;        ///< elements per column
    int64_t trimFirst = 0;    ///< leading elements omitted from sends
    int64_t trimLast = 0;     ///< trailing elements omitted from sends
    /** Per-access coefficients promoted into the comm path (or empty). */
    std::vector<double> coeffs;
};

/** Start an asynchronous chunked exchange of `sendBuf` (a DSD). */
ir::Operation *createCommsExchange(ir::OpBuilder &b, ir::Value sendBuf,
                                   const CommsExchangeSpec &spec);

/** Decode a csl.comms_exchange op back into its spec. */
CommsExchangeSpec commsExchangeSpec(ir::Operation *op);

ir::Operation *createExport(ir::OpBuilder &b, const std::string &name,
                            const std::string &kind);
ir::Operation *createUnblockCmdStream(ir::OpBuilder &b);
/// @}

} // namespace wsc::dialects::csl

#endif // WSC_DIALECTS_CSL_H
