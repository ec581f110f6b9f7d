#include "accel/qat.hh"

namespace anic::accel {

namespace {

/** One speed test: @p threads client loops sharing one core. A client
 *  thread carries no state of its own, so each is just a chain of
 *  work items and device completions. */
struct SpeedTest
{
    sim::Simulator &sim;
    host::Core &core;
    OffCpuAccelerator &dev;
    size_t blockSize;
    sim::Tick deadline;
    uint64_t bytes = 0;
    int inflight = 0;     ///< operations submitted and not yet reaped
    bool counting = true; ///< false once the window has closed

    /** One client thread's next submit -> wait -> reap round. */
    void
    loop()
    {
        if (sim.now() >= deadline)
            return;
        inflight++;
        // Submit on the CPU...
        core.post([this] {
            core.charge(dev.config().cpuCyclesPerOp / 2);
            dev.submit(blockSize, [this] {
                // ...completion reaped on the CPU; thread then loops.
                core.post([this] {
                    core.charge(dev.config().cpuCyclesPerOp / 2);
                    inflight--;
                    if (counting)
                        bytes += blockSize;
                    loop();
                });
            });
        });
    }
};

} // namespace

double
runAcceleratedSpeedTest(sim::Simulator &sim, host::Core &core,
                        OffCpuAccelerator &dev, int threads,
                        size_t blockSize, sim::Tick duration)
{
    SpeedTest t{sim, core, dev, blockSize, sim.now() + duration};
    for (int i = 0; i < threads; i++)
        t.loop();
    sim.runUntil(t.deadline);
    // Operations still in flight point at t: reap them (uncounted)
    // before it goes out of scope, or a later run on the same
    // simulator would complete them into freed memory.
    t.counting = false;
    while (t.inflight > 0)
        sim.runFor(10 * sim::kMicrosecond);
    return static_cast<double>(t.bytes) / sim::ticksToSeconds(duration) / 1e6;
}

double
runOnCpuSpeedTest(sim::Simulator &sim, host::Core &core, double cyclesPerByte,
                  size_t blockSize, sim::Tick duration)
{
    // Pure CPU loop: one block per work item until the window closes.
    uint64_t bytes = 0;
    sim::Tick deadline = sim.now() + duration;
    std::function<void()> step = [&sim, &core, cyclesPerByte, blockSize,
                                  deadline, &bytes, &step] {
        if (sim.now() >= deadline)
            return;
        core.charge(cyclesPerByte * static_cast<double>(blockSize));
        bytes += blockSize;
        core.post(step);
    };
    core.post(step);
    sim.runUntil(deadline);
    return static_cast<double>(bytes) / sim::ticksToSeconds(duration) / 1e6;
}

} // namespace anic::accel
