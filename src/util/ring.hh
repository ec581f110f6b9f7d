/**
 * @file
 * Ring<T>: a FIFO over one power-of-two array that grows by doubling
 * and never shrinks, so a queue cycling at a steady depth stops
 * allocating once warm (std::deque frees and reallocates a block every
 * few hundred bytes of traffic). See DESIGN.md §13.
 */

#ifndef ANIC_UTIL_RING_HH
#define ANIC_UTIL_RING_HH

#include <algorithm>
#include <utility>
#include <vector>

namespace anic::util {

/** Popping resets the slot to T(), releasing what it referenced. */
template <typename T>
class Ring
{
  public:
    bool empty() const { return size_ == 0; }
    size_t size() const { return size_; }
    T &front() { return buf_[head_]; }
    T &back() { return (*this)[size_ - 1]; }
    /** The @p i-th entry from the front. */
    T &operator[](size_t i) { return buf_[(head_ + i) & mask()]; }
    const T &operator[](size_t i) const { return buf_[(head_ + i) & mask()]; }

    void
    push_back(T v)
    {
        if (size_ == buf_.size()) {
            std::vector<T> next(std::max<size_t>(16, 2 * size_));
            for (size_t i = 0; i < size_; i++)
                next[i] = std::move(buf_[(head_ + i) % size_]);
            buf_ = std::move(next);
            head_ = 0;
        }
        buf_[(head_ + size_++) & mask()] = std::move(v);
    }

    void
    pop_front()
    {
        buf_[head_] = T();
        head_ = (head_ + 1) & mask();
        size_--;
    }

  private:
    size_t mask() const { return buf_.size() - 1; }

    std::vector<T> buf_;
    size_t head_ = 0;
    size_t size_ = 0;
};

} // namespace anic::util

#endif // ANIC_UTIL_RING_HH
