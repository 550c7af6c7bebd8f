/**
 * @file
 * The pre-decoded instruction set of the csl-ir interpreter. Each opcode
 * mirrors one csl/arith/scf op the interpreter executes; the split
 * opcodes (LoadBuffer vs LoadBufferViaPtr, StoreScalar vs StorePtr, ...)
 * are decided once at configure() from the op's static types and
 * attributes, so the hot loop never re-dispatches on them.
 */

#ifndef WSC_INTERP_INTERP_OPCODES_H
#define WSC_INTERP_INTERP_OPCODES_H

#include <cstdint>

namespace wsc::interp {

enum class Opcode : uint8_t
{
    Constant,
    Add,
    Sub,
    Mul,
    Div,
    Cmp,
    If,
    Return,
    LoadScalar,
    LoadBuffer,
    LoadBufferViaPtr,
    LoadPtr,
    StoreScalar,
    StorePtr,
    AddressOf,
    GetMemDsd,
    GetMemDsdViaPtr,
    IncrementDsdOffset,
    SetDsdLength,
    Fadds,
    Fsubs,
    Fmuls,
    Fmovs,
    Fmacs,
    Call,
    Activate,
    CommsExchange,
    UnblockCmdStream,
    Nop,
    Unsupported,
};

} // namespace wsc::interp

#endif // WSC_INTERP_INTERP_OPCODES_H
