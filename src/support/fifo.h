/**
 * @file
 * A FIFO queue over one vector and a head index. Unlike std::deque,
 * which allocates its map and first node when it is constructed, an
 * empty Fifo owns no memory: the simulator keeps several queues per PE
 * and most of them stay empty on most PEs.
 */

#ifndef WSC_SUPPORT_FIFO_H
#define WSC_SUPPORT_FIFO_H

#include <cstddef>
#include <utility>
#include <vector>

namespace wsc {

/** First-in first-out queue; allocates on the first push. */
template <typename T>
class Fifo
{
  public:
    bool empty() const { return head_ == items_.size(); }
    size_t size() const { return items_.size() - head_; }

    const T &front() const { return items_[head_]; }

    template <typename... Args>
    void
    emplace_back(Args &&...args)
    {
        items_.emplace_back(std::forward<Args>(args)...);
    }
    void push_back(T value) { items_.push_back(std::move(value)); }

    void
    pop_front()
    {
        ++head_;
        // Reclaim the consumed prefix once it is at least half the
        // storage, so a queue that never drains stays bounded at about
        // twice its live size.
        if (head_ == items_.size()) {
            items_.clear();
            head_ = 0;
        } else if (head_ >= kCompactMin && 2 * head_ >= items_.size()) {
            items_.erase(items_.begin(),
                         items_.begin() + static_cast<std::ptrdiff_t>(head_));
            head_ = 0;
        }
    }

  private:
    static constexpr size_t kCompactMin = 32;

    std::vector<T> items_;
    size_t head_ = 0;
};

} // namespace wsc

#endif // WSC_SUPPORT_FIFO_H
