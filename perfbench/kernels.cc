#include "kernels.hh"

#include <chrono>

#include "bench.hh"
#include "crypto/crc32c.hh"
#include "crypto/gcm.hh"
#include "net/packet_pool.hh"
#include "net/toeplitz.hh"

namespace anic::perfbench {

namespace {

constexpr int kRounds = 7;
constexpr double kRoundSeconds = 0.01;

/**
 * Median over rounds of host ns per unit of work. @p step does some
 * work and returns how many units it did; each round repeats it for
 * at least kRoundSeconds.
 */
template <typename Step>
double
nsPerUnit(Step step)
{
    using Clock = std::chrono::steady_clock;
    std::vector<double> rounds;
    for (int r = 0; r < kRounds; r++) {
        double units = 0;
        auto t0 = Clock::now();
        double secs = 0;
        while (secs < kRoundSeconds) {
            units += step();
            secs = std::chrono::duration<double>(Clock::now() - t0).count();
        }
        rounds.push_back(secs * 1e9 / units);
    }
    return median(rounds);
}

} // namespace

KernelTimes
timeKernels(Tracer &tr, size_t messageBytes)
{
    KernelTimes k;
    Bytes msg(messageBytes);
    fillDeterministic(msg, 0x6b65726e, 0);
    double kib = static_cast<double>(messageBytes) / 1024.0;
    uint64_t sink = 0;

    {
        Tracer::Scope s(tr, "kernel.gcm_seal", "crypto");
        Bytes key(16, 0x11), iv(12, 0x22), aad(5, 0x17);
        crypto::AesGcm gcm(key);
        k.gcmNsPerKib = nsPerUnit([&] {
                            Bytes sealed = gcm.seal(iv, aad, msg);
                            sink += sealed.back();
                            return 1.0;
                        }) /
                        kib;
    }
    {
        Tracer::Scope s(tr, "kernel.crc32c", "crypto");
        k.crcNsPerKib = nsPerUnit([&] {
                            sink += crypto::Crc32c::compute(msg);
                            return 1.0;
                        }) /
                        kib;
    }
    {
        Tracer::Scope s(tr, "kernel.toeplitz", "net");
        const net::Toeplitz &t = net::Toeplitz::standard();
        net::FlowKey f;
        f.srcIp = net::makeIp(10, 0, 0, 2);
        f.dstIp = net::makeIp(10, 0, 0, 1);
        f.dstPort = 443;
        k.toeplitzNsPerPkt = nsPerUnit([&] {
            for (uint16_t p = 0; p < 256; p++) {
                f.srcPort = static_cast<uint16_t>(40000 + p);
                sink += t.hashFlow(f);
            }
            return 256.0;
        });
    }
    {
        Tracer::Scope s(tr, "kernel.packet_pool", "net");
        net::PacketPool pool;
        std::vector<net::PacketPtr> held(64);
        k.poolNsPerOp = nsPerUnit([&] {
            for (net::PacketPtr &p : held)
                p = pool.alloc(1514);
            for (net::PacketPtr &p : held)
                p.reset();
            return static_cast<double>(held.size());
        });
    }
    {
        Tracer::Scope s(tr, "kernel.sim_schedule_run", "sim");
        k.schedNsPerEvent = nsPerUnit([&] {
            sim::Simulator sim;
            for (int i = 0; i < 4096; i++) {
                // Mixed near/far delays, as link, NIC and timer events.
                sim::Tick d = static_cast<sim::Tick>((i * 7919) % 50000) *
                              sim::kNanosecond / 10;
                sim.schedule(d, [&sink] { sink++; });
            }
            sim.run();
            return 4096.0;
        });
    }
    // Keep the results observable so no kernel call is optimised away.
    if (sink == 42)
        std::fprintf(stderr, "\n");
    return k;
}

} // namespace anic::perfbench
