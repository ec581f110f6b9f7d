#include "sim/simulator.hh"

#include <cstdlib>
#include <memory>
#include <string_view>

namespace anic::sim {

Simulator::Simulator()
{
    const char *q = std::getenv("ANIC_SIM_QUEUE");
    calendar_ = !(q != nullptr && std::string_view(q) == "heap");
}

Simulator::~Simulator()
{
    // Destroys every slot ever handed out, which destroys the
    // callbacks of events still pending. The newest chunk is
    // constructed only up to the bump pointer.
    for (const Chunk &c : chunks_) {
        Callback *end = &c == &chunks_.back() ? bump_ : c.base + c.slots;
        std::destroy(c.base, end);
        std::allocator<Callback>().deallocate(c.base, c.slots);
    }
}

void
Simulator::growSlots()
{
    const size_t n = chunks_.empty()
                         ? kFirstChunkSlots
                         : std::min(2 * chunks_.back().slots, kMaxChunkSlots);
    chunks_.push_back(Chunk{std::allocator<Callback>().allocate(n), n});
    bump_ = chunks_.back().base;
    bumpEnd_ = bump_ + n;
}

Simulator::Callback *
Simulator::allocSlot()
{
    if (!freeSlots_.empty()) {
        Callback *slot = freeSlots_.back();
        freeSlots_.pop_back();
        return slot;
    }
    if (bump_ == bumpEnd_)
        growSlots();
    return ::new (static_cast<void *>(bump_++)) Callback();
}

void
Simulator::scheduleAt(Tick when, Callback &&cb)
{
    ANIC_ASSERT(when >= now_, "scheduling into the past: %llu < %llu",
                static_cast<unsigned long long>(when),
                static_cast<unsigned long long>(now_));
    Callback *slot = allocSlot();
    *slot = std::move(cb);
    insert(Key{when, nextSeq_++, slot});
}

void
Simulator::insert(const Key &k)
{
    size_++;
    if (!calendar_) {
        heap_.push(k);
        return;
    }
    if (k.when < wheelBase_ + kBucketWidth)
        near_.push(k);
    else if (k.when < windowEnd()) {
        buckets_[bucketIndex(k.when)].push_back(k);
        bucketed_++;
    } else
        far_.push(k);
}

bool
Simulator::settle()
{
    // Invariants: every event in near_ is < wheelBase_ + kBucketWidth,
    // every bucketed event is in [wheelBase_ + kBucketWidth,
    // windowEnd()), every far event is >= windowEnd(). The three
    // ranges are disjoint, so near_'s top (ordered by (when, seq)) is
    // the global minimum whenever near_ is non-empty.
    while (near_.empty()) {
        if (bucketed_ == 0 && far_.empty())
            return false;
        if (bucketed_ == 0) {
            // Sparse period (timer-only horizon): jump the window
            // straight to the earliest far event instead of stepping
            // bucket by bucket.
            wheelBase_ = (far_.top().when >> kBucketShift) << kBucketShift;
        } else {
            wheelBase_ += kBucketWidth;
        }
        // The bucket that just entered [wheelBase_, wheelBase_ +
        // kBucketWidth) spills into near_; heap order restores the
        // exact (when, seq) sequence within it.
        std::vector<Key> &b = buckets_[bucketIndex(wheelBase_)];
        if (!b.empty()) {
            bucketed_ -= b.size();
            for (const Key &k : b)
                near_.push(k);
            b.clear(); // keeps capacity for reuse
        }
        // Far events uncovered by the advancing horizon migrate in.
        while (!far_.empty() && far_.top().when < windowEnd()) {
            Key k = far_.pop();
            if (k.when < wheelBase_ + kBucketWidth)
                near_.push(k);
            else {
                buckets_[bucketIndex(k.when)].push_back(k);
                bucketed_++;
            }
        }
    }
    return true;
}

void
Simulator::execute(const Key &k)
{
    size_--;
    now_ = k.when;
    executed_++;
    // Runs in place: events it schedules take other slots, and the
    // store grows without moving this one.
    (*k.slot)();
    k.slot->reset();
    freeSlots_.push_back(k.slot);
}

void
Simulator::run()
{
    if (!calendar_) {
        while (!heap_.empty())
            execute(heap_.pop());
        return;
    }
    while (settle())
        execute(near_.pop());
}

void
Simulator::runUntil(Tick until)
{
    if (!calendar_) {
        while (!heap_.empty() && heap_.top().when <= until)
            execute(heap_.pop());
    } else {
        while (settle() && near_.top().when <= until)
            execute(near_.pop());
    }
    if (now_ < until)
        now_ = until;
}

} // namespace anic::sim
