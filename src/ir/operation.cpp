#include "ir/operation.h"

#include <algorithm>
#include <cstring>
#include <new>
#include <utility>

#include "ir/context.h"
#include "ir/printer.h"
#include "support/error.h"

namespace wsc::ir {

//===----------------------------------------------------------------------===
// UseList
//===----------------------------------------------------------------------===

void
UseList::push_back(Operation *op, Context &ctx)
{
    if (size_ == cap_) {
        uint32_t newCap = cap_ * 2;
        auto **arr = static_cast<Operation **>(
            ctx.allocateBytes(newCap * sizeof(Operation *)));
        std::memcpy(arr, data(), size_ * sizeof(Operation *));
        if (spill_)
            ctx.deallocateBytes(spill_, cap_ * sizeof(Operation *));
        spill_ = arr;
        cap_ = newCap;
    }
    data()[size_++] = op;
}

void
UseList::eraseOne(Operation *op)
{
    Operation **arr = data();
    for (uint32_t i = 0; i < size_; ++i) {
        if (arr[i] == op) {
            std::memmove(arr + i, arr + i + 1,
                         (size_ - i - 1) * sizeof(Operation *));
            --size_;
            return;
        }
    }
    panic("use-list corruption: erasing an unrecorded use");
}

//===----------------------------------------------------------------------===
// Value
//===----------------------------------------------------------------------===

Type
Value::type() const
{
    WSC_ASSERT(impl_, "type() on null value");
    return impl_->type;
}

void
Value::setType(Type newType)
{
    WSC_ASSERT(impl_ && newType, "setType requires a valid value and type");
    impl_->type = newType;
}

Operation *
Value::definingOp() const
{
    WSC_ASSERT(impl_, "definingOp() on null value");
    return impl_->definingOp;
}

Block *
Value::ownerBlock() const
{
    WSC_ASSERT(impl_, "ownerBlock() on null value");
    return impl_->ownerBlock;
}

bool
Value::isBlockArgument() const
{
    WSC_ASSERT(impl_, "isBlockArgument() on null value");
    return impl_->ownerBlock != nullptr;
}

unsigned
Value::index() const
{
    WSC_ASSERT(impl_, "index() on null value");
    return impl_->index;
}

std::vector<Operation *>
Value::users() const
{
    WSC_ASSERT(impl_, "users() on null value");
    std::vector<Operation *> unique;
    for (Operation *user : impl_->users)
        if (std::find(unique.begin(), unique.end(), user) == unique.end())
            unique.push_back(user);
    return unique;
}

bool
Value::hasUses() const
{
    WSC_ASSERT(impl_, "hasUses() on null value");
    return !impl_->users.empty();
}

size_t
Value::numUses() const
{
    WSC_ASSERT(impl_, "numUses() on null value");
    return impl_->users.size();
}

void
Value::replaceAllUsesWith(Value other)
{
    WSC_ASSERT(impl_ && other, "replaceAllUsesWith requires valid values");
    if (*this == other)
        return;
    // Users mutate as we go; snapshot first.
    std::vector<Operation *> users(impl_->users.begin(),
                                   impl_->users.end());
    for (Operation *user : users) {
        for (unsigned i = 0, e = user->numOperands(); i < e; ++i)
            if (user->operand(i) == *this)
                user->setOperand(i, other);
    }
}

//===----------------------------------------------------------------------===
// StoredAttrList
//===----------------------------------------------------------------------===

void
StoredAttrList::grow(Context &ctx, size_t minCap)
{
    size_t newCap = std::max<size_t>(cap_ ? size_t{cap_} * 2 : 2, minCap);
    auto *data = static_cast<StoredAttr *>(
        ctx.allocateBytes(newCap * sizeof(StoredAttr)));
    for (uint32_t i = 0; i < size_; ++i) {
        new (data + i) StoredAttr(std::move(data_[i]));
        data_[i].~StoredAttr();
    }
    if (data_)
        ctx.deallocateBytes(data_, cap_ * sizeof(StoredAttr));
    data_ = data;
    cap_ = static_cast<uint32_t>(newCap);
}

void
StoredAttrList::reserve(Context &ctx, size_t cap)
{
    if (cap > cap_)
        grow(ctx, cap);
}

void
StoredAttrList::insertAt(Context &ctx, size_t pos, StoredAttr entry)
{
    if (size_ == cap_)
        grow(ctx, size_ + 1);
    new (data_ + size_) StoredAttr();
    for (size_t i = size_; i > pos; --i)
        data_[i] = data_[i - 1];
    data_[pos] = std::move(entry);
    ++size_;
}

void
StoredAttrList::eraseAt(size_t pos)
{
    for (size_t i = pos; i + 1 < size_; ++i)
        data_[i] = data_[i + 1];
    data_[--size_].~StoredAttr();
}

void
StoredAttrList::destroy(Context &ctx)
{
    for (uint32_t i = 0; i < size_; ++i)
        data_[i].~StoredAttr();
    if (data_)
        ctx.deallocateBytes(data_, cap_ * sizeof(StoredAttr));
    data_ = nullptr;
    size_ = 0;
    cap_ = 0;
}

//===----------------------------------------------------------------------===
// ArgList
//===----------------------------------------------------------------------===

void
ArgList::grow(Context &ctx)
{
    size_t newCap = cap_ ? size_t{cap_} * 2 : 2;
    auto **data = static_cast<ValueImpl **>(
        ctx.allocateBytes(newCap * sizeof(ValueImpl *)));
    for (uint32_t i = 0; i < size_; ++i)
        data[i] = data_[i];
    if (data_)
        ctx.deallocateBytes(data_, cap_ * sizeof(ValueImpl *));
    data_ = data;
    cap_ = static_cast<uint32_t>(newCap);
}

void
ArgList::push_back(Context &ctx, ValueImpl *v)
{
    if (size_ == cap_)
        grow(ctx);
    data_[size_++] = v;
}

void
ArgList::eraseAt(size_t pos)
{
    for (size_t i = pos; i + 1 < size_; ++i)
        data_[i] = data_[i + 1];
    --size_;
}

void
ArgList::destroy(Context &ctx)
{
    if (data_)
        ctx.deallocateBytes(data_, cap_ * sizeof(ValueImpl *));
    data_ = nullptr;
    size_ = 0;
    cap_ = 0;
}

//===----------------------------------------------------------------------===
// Operation
//===----------------------------------------------------------------------===

Operation::Operation(Context &ctx, OpId id) : ctx_(&ctx), id_(id) {}

Value *
Operation::inlineOperandsBeginImpl() const
{
    return reinterpret_cast<Value *>(regionsBegin() + numRegions_);
}

Operation *
Operation::create(Context &ctx, OpId id, const std::vector<Value> &operands,
                  const std::vector<Type> &resultTypes, const AttrList &attrs,
                  unsigned numRegions)
{
    // One arena block: op header, result ValueImpls, Regions and the
    // initial operand array (see the layout note in operation.h).
    size_t bytes = sizeof(Operation) +
                   resultTypes.size() * sizeof(ValueImpl) +
                   numRegions * sizeof(Region) +
                   operands.size() * sizeof(Value);
    void *mem = ctx.allocateBytes(bytes);
    auto *op = new (mem) Operation(ctx, id);
    op->allocSize_ = static_cast<uint32_t>(bytes);
    op->numResults_ = static_cast<uint32_t>(resultTypes.size());
    for (uint32_t i = 0; i < op->numResults_; ++i) {
        WSC_ASSERT(resultTypes[i], "null result type creating " << id.str());
        ValueImpl *impl = new (op->resultsBegin() + i) ValueImpl();
        impl->type = resultTypes[i];
        impl->definingOp = op;
        impl->index = i;
    }
    op->numRegions_ = numRegions;
    for (uint32_t i = 0; i < numRegions; ++i)
        new (op->regionsBegin() + i) Region(op);
    op->operands_ = op->inlineOperandsBegin();
    op->operandCap_ = static_cast<uint32_t>(operands.size());
    for (Value v : operands) {
        WSC_ASSERT(v, "null operand creating " << id.str());
        new (op->operands_ + op->numOperands_++) Value(v);
        op->addUse(v);
    }
    op->attrs_.reserve(ctx, attrs.size());
    for (const auto &[key, value] : attrs)
        op->setAttr(key, value);
    return op;
}

Operation *
Operation::createInterned(Context &ctx, OpId id,
                          const std::vector<Value> &operands,
                          const std::vector<Type> &resultTypes,
                          const StoredAttrList &attrs, unsigned numRegions)
{
    Operation *op =
        create(ctx, id, operands, resultTypes, AttrList{}, numRegions);
    op->attrs_.reserve(ctx, attrs.size());
    for (const StoredAttr &a : attrs)
        op->setAttr(a.name, a.value);
    return op;
}

void
Operation::destroy(Operation *op)
{
    WSC_ASSERT(op->parent_ == nullptr, "destroy() on attached op");
    Context &ctx = *op->ctx_;
    uint32_t bytes = op->allocSize_;
    op->~Operation();
    ctx.deallocateBytes(op, bytes);
}

Operation::~Operation()
{
    if (IRListener *listener = ctx_->listener())
        listener->notifyDestroyed(this);
    // Destroy nested regions before dropping operand uses so inner ops
    // (destroyed region-by-region) unregister their own references while
    // the values they may use in enclosing scopes are still alive.
    for (uint32_t i = numRegions_; i > 0; --i)
        regionsBegin()[i - 1].~Region();
    numRegions_ = 0;
    for (uint32_t i = 0; i < numOperands_; ++i)
        removeUse(operands_[i]);
    numOperands_ = 0;
    if (operandsOwned_)
        ctx_->deallocateBytes(operands_,
                              operandCap_ * sizeof(Value));
    for (uint32_t i = 0; i < numResults_; ++i) {
        ValueImpl &result = resultsBegin()[i];
        WSC_ASSERT(result.users.empty(),
                   "destroying op `" << name() << "` with live result uses");
        result.~ValueImpl();
    }
    numResults_ = 0;
    attrs_.destroy(*ctx_);
}

Value
Operation::operand(unsigned i) const
{
    WSC_ASSERT(i < numOperands_,
               "operand index " << i << " out of range on " << name());
    return operands_[i];
}

void
Operation::addUse(Value v)
{
    v.impl()->users.push_back(this, *ctx_);
}

void
Operation::removeUse(Value v)
{
    v.impl()->users.eraseOne(this);
}

void
Operation::notifyOperandChanged()
{
    if (IRListener *listener = ctx_->listener())
        listener->notifyOperandChanged(this);
}

void
Operation::notifyUseRemoved(Value v)
{
    IRListener *listener = ctx_->listener();
    if (listener && !v.isBlockArgument())
        listener->notifyValueUseRemoved(v.definingOp());
}

void
Operation::setOperand(unsigned i, Value v)
{
    WSC_ASSERT(i < numOperands_, "setOperand out of range on " << name());
    WSC_ASSERT(v, "setOperand with null value on " << name());
    Value old = operands_[i];
    removeUse(old);
    operands_[i] = v;
    addUse(v);
    notifyOperandChanged();
    if (old != v)
        notifyUseRemoved(old);
}

void
Operation::setOperands(const std::vector<Value> &values)
{
    std::vector<Value> old(operands_, operands_ + numOperands_);
    for (uint32_t i = 0; i < numOperands_; ++i)
        removeUse(operands_[i]);
    numOperands_ = 0;
    for (Value v : values)
        appendOperand(v);
    for (Value v : old)
        notifyUseRemoved(v);
}

void
Operation::growOperands(uint32_t minCap)
{
    uint32_t newCap = operandCap_ ? operandCap_ * 2 : 4;
    if (newCap < minCap)
        newCap = minCap;
    Value *arr = static_cast<Value *>(
        ctx_->allocateBytes(newCap * sizeof(Value)));
    std::memcpy(arr, operands_, numOperands_ * sizeof(Value));
    if (operandsOwned_)
        ctx_->deallocateBytes(operands_, operandCap_ * sizeof(Value));
    operands_ = arr;
    operandCap_ = newCap;
    operandsOwned_ = 1;
}

void
Operation::appendOperand(Value v)
{
    WSC_ASSERT(v, "appendOperand with null value on " << name());
    if (numOperands_ == operandCap_)
        growOperands(numOperands_ + 1);
    new (operands_ + numOperands_++) Value(v);
    addUse(v);
    notifyOperandChanged();
}

void
Operation::eraseOperand(unsigned i)
{
    WSC_ASSERT(i < numOperands_,
               "eraseOperand out of range on " << name());
    Value old = operands_[i];
    removeUse(old);
    std::memmove(operands_ + i, operands_ + i + 1,
                 (numOperands_ - i - 1) * sizeof(Value));
    --numOperands_;
    notifyOperandChanged();
    notifyUseRemoved(old);
}

void
Operation::dropAllReferences()
{
    for (uint32_t i = 0; i < numOperands_; ++i)
        removeUse(operands_[i]);
    numOperands_ = 0;
    for (uint32_t r = 0; r < numRegions_; ++r)
        for (Block *block : regionsBegin()[r].blocks())
            for (Operation *op : block->operations())
                op->dropAllReferences();
}

Value
Operation::result(unsigned i) const
{
    WSC_ASSERT(i < numResults_,
               "result index " << i << " out of range on " << name());
    return Value(resultsBegin() + i);
}

std::vector<Value>
Operation::results() const
{
    std::vector<Value> out;
    out.reserve(numResults_);
    for (uint32_t i = 0; i < numResults_; ++i)
        out.push_back(Value(resultsBegin() + i));
    return out;
}

bool
Operation::hasResultUses() const
{
    for (uint32_t i = 0; i < numResults_; ++i)
        if (!resultsBegin()[i].users.empty())
            return true;
    return false;
}

namespace {

/** First attrs_ entry with name id >= `key` (sorted by id). */
StoredAttrList::const_iterator
attrLowerBound(const StoredAttrList &attrs, AttrNameId key)
{
    return std::lower_bound(attrs.begin(), attrs.end(), key,
                            [](const StoredAttr &entry, AttrNameId k) {
                                return entry.name < k;
                            });
}

} // namespace

Attribute
Operation::attr(AttrNameId key) const
{
    if (!key.valid())
        return Attribute();
    auto it = attrLowerBound(attrs_, key);
    return it != attrs_.end() && it->name == key ? it->value
                                                 : Attribute();
}

void
Operation::setAttr(AttrNameId key, Attribute value)
{
    WSC_ASSERT(value, "setAttr(" << ctx_->attrName(key)
                                 << ") with null attribute");
    auto it = attrLowerBound(attrs_, key);
    size_t pos = static_cast<size_t>(it - attrs_.begin());
    if (it != attrs_.end() && it->name == key) {
        attrs_.setValueAt(pos, value);
        return;
    }
    attrs_.insertAt(*ctx_, pos, {key, value});
}

void
Operation::removeAttr(AttrNameId key)
{
    if (!key.valid())
        return;
    auto it = attrLowerBound(attrs_, key);
    if (it != attrs_.end() && it->name == key)
        attrs_.eraseAt(static_cast<size_t>(it - attrs_.begin()));
}

Attribute
Operation::attr(const std::string &key) const
{
    return attr(ctx_->findAttrName(key));
}

bool
Operation::hasAttr(const std::string &key) const
{
    return bool(attr(key));
}

void
Operation::setAttr(const std::string &key, Attribute value)
{
    setAttr(ctx_->internAttrName(key), value);
}

void
Operation::removeAttr(const std::string &key)
{
    removeAttr(ctx_->findAttrName(key));
}

const std::string &
Operation::attrKeyName(AttrNameId key) const
{
    return ctx_->attrName(key);
}

int64_t
Operation::intAttr(const std::string &key) const
{
    Attribute a = attr(key);
    WSC_ASSERT(a, "missing int attribute `" << key << "` on " << name());
    return intAttrValue(a);
}

int64_t
Operation::intAttr(AttrNameId key) const
{
    Attribute a = attr(key);
    WSC_ASSERT(a, "missing int attribute `" << ctx_->attrName(key)
                                            << "` on " << name());
    return intAttrValue(a);
}

const std::string &
Operation::strAttr(const std::string &key) const
{
    Attribute a = attr(key);
    WSC_ASSERT(a, "missing string attribute `" << key << "` on " << name());
    return stringAttrValue(a);
}

const std::string &
Operation::strAttr(AttrNameId key) const
{
    Attribute a = attr(key);
    WSC_ASSERT(a, "missing string attribute `"
                      << ctx_->attrName(key) << "` on " << name());
    return stringAttrValue(a);
}

Region &
Operation::region(unsigned i) const
{
    WSC_ASSERT(i < numRegions_,
               "region index " << i << " out of range on " << name());
    return regionsBegin()[i];
}

Operation *
Operation::parentOp() const
{
    return parent_ ? parent_->parentOp() : nullptr;
}

Operation *
Operation::parentOf(OpId id) const
{
    for (auto *op = const_cast<Operation *>(this); op; op = op->parentOp())
        if (op->id_ == id)
            return op;
    return nullptr;
}

void
Operation::erase()
{
    WSC_ASSERT(parent_, "erase() on detached op " << name());
    WSC_ASSERT(!hasResultUses(),
               "erase() on op `" << name() << "` with live result uses");
    removeFromParent();
    destroy(this);
}

void
Operation::removeFromParent()
{
    WSC_ASSERT(parent_, "removeFromParent() on detached op");
    parent_->unlink(this);
    parent_ = nullptr;
}

void
Operation::moveBefore(Operation *other)
{
    WSC_ASSERT(other->parent_, "moveBefore target is detached");
    removeFromParent();
    other->parent_->insertBefore(other, this);
}

void
Operation::moveToEnd(Block *block)
{
    removeFromParent();
    block->push_back(this);
}

Operation *
Operation::nextOp() const
{
    WSC_ASSERT(parent_, "nextOp() on detached op");
    return nextInBlock_;
}

Operation *
Operation::prevOp() const
{
    WSC_ASSERT(parent_, "prevOp() on detached op");
    return prevInBlock_;
}

void
Operation::walk(const std::function<void(Operation *)> &fn)
{
    fn(this);
    for (uint32_t r = 0; r < numRegions_; ++r)
        for (Block *block : regionsBegin()[r].blocks())
            for (Operation *op : block->operations())
                op->walk(fn);
}

bool
Operation::isTerminator() const
{
    const OpSpec *spec = ctx_->opInfo(id_);
    return spec && spec->isTerminator;
}

std::string
Operation::str() const
{
    return printOp(const_cast<Operation *>(this));
}

//===----------------------------------------------------------------------===
// Block
//===----------------------------------------------------------------------===

Block::~Block()
{
    // Destroy ops from the back so that each op's operands (earlier ops'
    // results or block arguments) are still alive when it unregisters its
    // uses.
    while (ops_.tail_) {
        Operation *op = ops_.tail_;
        unlink(op);
        op->parent_ = nullptr;
        Operation::destroy(op);
    }
    Context &ctx = parent_->parentOp()->context();
    for (ValueImpl *impl : args_) {
        impl->~ValueImpl();
        ctx.deallocateBytes(impl, sizeof(ValueImpl));
    }
    args_.destroy(ctx);
}

void
Block::unlink(Operation *op)
{
    WSC_ASSERT(op->parent_ == this, "unlink of op from another block");
    if (op->prevInBlock_)
        op->prevInBlock_->nextInBlock_ = op->nextInBlock_;
    else
        ops_.head_ = op->nextInBlock_;
    if (op->nextInBlock_)
        op->nextInBlock_->prevInBlock_ = op->prevInBlock_;
    else
        ops_.tail_ = op->prevInBlock_;
    op->prevInBlock_ = nullptr;
    op->nextInBlock_ = nullptr;
    --ops_.size_;
}

void
Block::link(Operation *before, Operation *op)
{
    if (before == nullptr) {
        op->prevInBlock_ = ops_.tail_;
        op->nextInBlock_ = nullptr;
        if (ops_.tail_)
            ops_.tail_->nextInBlock_ = op;
        else
            ops_.head_ = op;
        ops_.tail_ = op;
    } else {
        op->prevInBlock_ = before->prevInBlock_;
        op->nextInBlock_ = before;
        if (before->prevInBlock_)
            before->prevInBlock_->nextInBlock_ = op;
        else
            ops_.head_ = op;
        before->prevInBlock_ = op;
    }
    ++ops_.size_;
    op->parent_ = this;
}

Operation *
Block::parentOp() const
{
    return parent_ ? parent_->parentOp() : nullptr;
}

Value
Block::addArgument(Type type)
{
    WSC_ASSERT(type, "addArgument with null type");
    Context &ctx = parent_->parentOp()->context();
    auto *impl = new (ctx.allocateBytes(sizeof(ValueImpl))) ValueImpl();
    impl->type = type;
    impl->ownerBlock = this;
    impl->index = static_cast<unsigned>(args_.size());
    args_.push_back(ctx, impl);
    return Value(impl);
}

Value
Block::argument(unsigned i) const
{
    WSC_ASSERT(i < args_.size(), "block argument index out of range");
    return Value(args_[i]);
}

std::vector<Value>
Block::arguments() const
{
    std::vector<Value> out;
    out.reserve(args_.size());
    for (ValueImpl *a : args_)
        out.push_back(Value(a));
    return out;
}

void
Block::eraseArgument(unsigned i)
{
    WSC_ASSERT(i < args_.size(), "eraseArgument index out of range");
    WSC_ASSERT(args_[i]->users.empty(),
               "eraseArgument on argument with live uses");
    Context &ctx = parent_->parentOp()->context();
    ValueImpl *impl = args_[i];
    args_.eraseAt(i);
    impl->~ValueImpl();
    ctx.deallocateBytes(impl, sizeof(ValueImpl));
    for (unsigned j = i; j < args_.size(); ++j)
        args_[j]->index = j;
}

Operation *
Block::terminator() const
{
    WSC_ASSERT(!ops_.empty(), "terminator() on empty block");
    return &ops_.back();
}

void
Block::push_back(Operation *op)
{
    WSC_ASSERT(op->parent_ == nullptr, "push_back of attached op");
    link(nullptr, op);
    if (IRListener *listener = op->ctx_->listener())
        listener->notifyAttached(op);
}

void
Block::insertBefore(Operation *before, Operation *op)
{
    WSC_ASSERT(before->parent_ == this,
               "insertBefore anchor not in this block");
    WSC_ASSERT(op->parent_ == nullptr, "insertBefore of attached op");
    link(before, op);
    if (IRListener *listener = op->ctx_->listener())
        listener->notifyAttached(op);
}

std::vector<Operation *>
Block::opsVector() const
{
    std::vector<Operation *> out;
    out.reserve(ops_.size());
    for (Operation *op : ops_)
        out.push_back(op);
    return out;
}

//===----------------------------------------------------------------------===
// Region
//===----------------------------------------------------------------------===

Region::~Region()
{
    // Blocks are destroyed in order (matching the former std::list
    // semantics); cross-block value uses must already be dropped
    // (dropAllReferences) when they exist.
    Context &ctx = parent_->context();
    for (Block *block : blocks_) {
        block->~Block();
        ctx.deallocateBytes(block, sizeof(Block));
    }
    blocks_.clear();
}

Block *
Region::addBlock()
{
    Context &ctx = parent_->context();
    Block *block = new (ctx.allocateBytes(sizeof(Block))) Block();
    block->parent_ = this;
    blocks_.push_back(block);
    return block;
}

void
Region::takeBody(Region &other)
{
    for (Block *block : other.blocks_) {
        block->parent_ = this;
        blocks_.push_back(block);
    }
    other.blocks_.clear();
}

//===----------------------------------------------------------------------===
// OwningOp
//===----------------------------------------------------------------------===

OwningOp &
OwningOp::operator=(OwningOp &&other) noexcept
{
    if (this != &other) {
        if (op_) {
            op_->dropAllReferences();
            Operation::destroy(op_);
        }
        op_ = other.op_;
        other.op_ = nullptr;
    }
    return *this;
}

OwningOp::~OwningOp()
{
    if (op_) {
        op_->dropAllReferences();
        Operation::destroy(op_);
    }
}

Operation *
OwningOp::release()
{
    Operation *op = op_;
    op_ = nullptr;
    return op;
}

//===----------------------------------------------------------------------===
// Symbol helpers
//===----------------------------------------------------------------------===

Operation *
lookupSymbol(Operation *root, const std::string &name)
{
    WSC_ASSERT(root->numRegions() >= 1, "lookupSymbol on region-less op");
    for (Block *block : root->region(0).blocks())
        for (Operation *op : block->operations()) {
            Attribute sym = op->attr(attrs::kSymName);
            if (sym && isStringAttr(sym) && stringAttrValue(sym) == name)
                return op;
        }
    return nullptr;
}

} // namespace wsc::ir
