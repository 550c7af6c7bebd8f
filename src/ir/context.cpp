#include "ir/context.h"

#include <cstring>
#include <deque>
#include <mutex>
#include <ostream>

#include "ir/intern_key.h"

#include "support/error.h"

namespace wsc::ir {

//===----------------------------------------------------------------------===
// OpId interning
//===----------------------------------------------------------------------===

namespace {

/**
 * Process-wide op-name pool. A deque keeps the interned strings at stable
 * addresses, so the index map can key string_views into them and OpId::str
 * can hand out references that never move.
 */
struct OpNamePool
{
    std::mutex mu;
    std::unordered_map<std::string_view, uint32_t> index;
    std::deque<std::string> names;
};

OpNamePool &
opNamePool()
{
    static OpNamePool pool;
    return pool;
}

} // namespace

OpId
OpId::get(std::string_view name)
{
    OpNamePool &pool = opNamePool();
    std::lock_guard<std::mutex> lock(pool.mu);
    auto it = pool.index.find(name);
    OpId id;
    if (it != pool.index.end()) {
        id.id_ = it->second;
        return id;
    }
    id.id_ = static_cast<uint32_t>(pool.names.size());
    pool.names.emplace_back(name);
    pool.index.emplace(pool.names.back(), id.id_);
    return id;
}

const std::string &
OpId::str() const
{
    WSC_ASSERT(valid(), "str() on an invalid OpId");
    // The deque guarantees the returned reference stays valid forever,
    // but its internal block map mutates on insert, so reads take the
    // pool lock too.
    OpNamePool &pool = opNamePool();
    std::lock_guard<std::mutex> lock(pool.mu);
    return pool.names[id_];
}

std::ostream &
operator<<(std::ostream &os, OpId id)
{
    return os << (id.valid() ? id.str() : std::string("<invalid-op>"));
}

//===----------------------------------------------------------------------===
// Context
//===----------------------------------------------------------------------===

// Defined in attributes.cpp; serializes an AttrStorage into an interning key.
void internalAttrKeyInto(const AttrStorage &s, std::string &key);

static void
typeKeyInto(const TypeStorage &s, std::string &key)
{
    key.clear();
    key += s.kind;
    key += '\x01';
    for (int64_t v : s.ints)
        appendRaw(key, v);
    key += '\x01';
    for (const TypeStorage *t : s.types)
        appendRaw(key, t);
    key += '\x01';
    for (const std::string &str : s.strs) {
        key += str;
        key += ',';
    }
}

Context::Context()
{
    // Pre-intern the well-known attribute names so the attrs::k*
    // constants are valid in every context (ids are assigned in array
    // order, starting from 0).
    for (const char *name : attrs::kWellKnownNames) {
        AttrNameId id = internAttrName(name);
        WSC_ASSERT(id.raw() < std::size(attrs::kWellKnownNames),
                   "well-known attribute ids must be dense");
    }
}

void
Context::reset()
{
    WSC_ASSERT(diagEngine_.handlerDepth() == 0,
               "Context::reset with a diagnostic handler still installed");
    // Same teardown order as ~Context: registered destructors first
    // (interned storage with heap members), then every structure whose
    // keys or values point into arena memory, then the arena rewind.
    for (auto it = arenaDtors_.rbegin(); it != arenaDtors_.rend(); ++it)
        it->first(it->second);
    arenaDtors_.clear();
    typePool_.clear();
    attrPool_.clear();
    attrNames_.clear();
    attrNameIds_.clear();
    keyScratch_.clear();
    keyScratch_.shrink_to_fit();
    listener_ = nullptr;
    diagEngine_.reset();
    arena_.reset();
    // The op registry and loaded-dialect marks survive (OpIds are
    // process-stable and the hooks are stateless), so a recycled
    // context needs no dialect re-registration. Re-intern the
    // well-known attribute names in the canonical order.
    for (const char *name : attrs::kWellKnownNames)
        internAttrName(name);
}

Context::~Context()
{
    // Interned storage is arena-placed and never individually freed; run
    // the registered destructors (newest first) before the members —
    // including the arena pages — are torn down.
    for (auto it = arenaDtors_.rbegin(); it != arenaDtors_.rend(); ++it)
        it->first(it->second);
}

/** Copies the scratch key into the arena, returning a stable view. */
static std::string_view
internKeyBytes(Arena &arena, const std::string &key)
{
    if (key.empty())
        return {};
    char *mem = static_cast<char *>(arena.allocate(key.size()));
    std::memcpy(mem, key.data(), key.size());
    return {mem, key.size()};
}

const TypeStorage *
Context::uniqueType(const TypeStorage &proto)
{
    typeKeyInto(proto, keyScratch_);
    auto it = typePool_.find(std::string_view(keyScratch_));
    if (it != typePool_.end())
        return it->second;
    const TypeStorage *storage = allocate<TypeStorage>(proto);
    typePool_.emplace(internKeyBytes(arena_, keyScratch_), storage);
    return storage;
}

const AttrStorage *
Context::uniqueAttr(const AttrStorage &proto)
{
    internalAttrKeyInto(proto, keyScratch_);
    auto it = attrPool_.find(std::string_view(keyScratch_));
    if (it != attrPool_.end())
        return it->second;
    const AttrStorage *storage = allocate<AttrStorage>(proto);
    attrPool_.emplace(internKeyBytes(arena_, keyScratch_), storage);
    return storage;
}

AttrNameId
Context::internAttrName(std::string_view name)
{
    auto it = attrNameIds_.find(name);
    if (it != attrNameIds_.end())
        return AttrNameId(it->second);
    uint32_t id = static_cast<uint32_t>(attrNames_.size());
    attrNames_.emplace_back(name);
    attrNameIds_.emplace(std::string_view(attrNames_.back()), id);
    return AttrNameId(id);
}

AttrNameId
Context::findAttrName(std::string_view name) const
{
    auto it = attrNameIds_.find(name);
    return it == attrNameIds_.end() ? AttrNameId()
                                    : AttrNameId(it->second);
}

const std::string &
Context::attrName(AttrNameId id) const
{
    WSC_ASSERT(id.valid() && id.raw() < attrNames_.size(),
               "invalid attribute-name id " << id.raw());
    return attrNames_[id.raw()];
}

void
Context::registerOp(const OpSpec &spec)
{
    OpId id = *spec.op;
    WSC_ASSERT(id.valid(), "registerOp with invalid id");
    if (id.raw() >= opRegistry_.size())
        opRegistry_.resize(id.raw() + 1, nullptr);
    opRegistry_[id.raw()] = &spec;
}

} // namespace wsc::ir
