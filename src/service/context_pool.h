/**
 * @file
 * Recycling pool of ir::Context instances for the compile service.
 *
 * A full Context construction pays arena page allocation, intern-pool
 * bucket growth and dialect registration; a service handling a stream
 * of requests would pay it per job. The pool instead hands out
 * contexts that have already been through compiles: Context::reset()
 * drops the previous job's IR wholesale (arena rewind, pools cleared)
 * while keeping the arena's pages and the op registry, so a recycled
 * context starts its next compile with warm memory and registered
 * dialects.
 *
 * Thread safety: acquire/release are mutex-protected (a pop/push of a
 * pointer — nanoseconds next to a compile); each leased context is then
 * used by exactly one worker thread, which is what keeps the
 * single-threaded Context contract intact under a concurrent service.
 */

#ifndef WSC_SERVICE_CONTEXT_POOL_H
#define WSC_SERVICE_CONTEXT_POOL_H

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "dialects/all.h"
#include "ir/context.h"

namespace wsc::service {

/** Mutex-protected stack of recycled contexts. */
class ContextPool
{
  public:
    /** RAII lease: returns (and resets) the context on destruction. */
    class Lease
    {
      public:
        Lease() = default;
        Lease(ContextPool *pool, std::unique_ptr<ir::Context> ctx)
            : pool_(pool), ctx_(std::move(ctx))
        {
        }
        Lease(Lease &&other) noexcept
            : pool_(other.pool_), ctx_(std::move(other.ctx_))
        {
            other.pool_ = nullptr;
        }
        Lease &
        operator=(Lease &&other) noexcept
        {
            if (this != &other) {
                release();
                pool_ = other.pool_;
                ctx_ = std::move(other.ctx_);
                other.pool_ = nullptr;
            }
            return *this;
        }
        ~Lease() { release(); }
        Lease(const Lease &) = delete;
        Lease &operator=(const Lease &) = delete;

        ir::Context &operator*() const { return *ctx_; }
        ir::Context *operator->() const { return ctx_.get(); }
        ir::Context *get() const { return ctx_.get(); }
        explicit operator bool() const { return ctx_ != nullptr; }

      private:
        void
        release()
        {
            if (pool_ && ctx_)
                pool_->put(std::move(ctx_));
            pool_ = nullptr;
        }

        ContextPool *pool_ = nullptr;
        std::unique_ptr<ir::Context> ctx_;
    };

    /**
     * Pop a recycled context, or construct a fresh one with every dialect
     * registered (recycled contexts keep theirs: reset() preserves the op
     * registry).
     */
    Lease
    acquire()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (!free_.empty()) {
                std::unique_ptr<ir::Context> ctx = std::move(free_.back());
                free_.pop_back();
                ++recycled_;
                return Lease(this, std::move(ctx));
            }
            ++created_;
        }
        auto ctx = std::make_unique<ir::Context>();
        dialects::registerAllDialects(*ctx);
        return Lease(this, std::move(ctx));
    }

    /// @name Telemetry
    /// @{
    /** Contexts constructed because the pool was empty. */
    uint64_t
    created() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return created_;
    }
    /** Leases served from the recycle stack. */
    uint64_t
    recycled() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return recycled_;
    }
    /** Contexts currently idle in the pool. */
    size_t
    idle() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return free_.size();
    }
    /// @}

  private:
    friend class Lease;

    /** Reset the finished job's context and push it for reuse. */
    void
    put(std::unique_ptr<ir::Context> ctx)
    {
        ctx->reset();
        std::lock_guard<std::mutex> lock(mu_);
        free_.push_back(std::move(ctx));
    }

    mutable std::mutex mu_;
    std::vector<std::unique_ptr<ir::Context>> free_;
    uint64_t created_ = 0;
    uint64_t recycled_ = 0;
};

} // namespace wsc::service

#endif // WSC_SERVICE_CONTEXT_POOL_H
