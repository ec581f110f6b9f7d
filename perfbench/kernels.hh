/**
 * @file
 * Host cost of the simulator's per-packet kernels, timed through their
 * public APIs on workload-shaped inputs (traced run only).
 */

#ifndef ANIC_PERFBENCH_KERNELS_HH
#define ANIC_PERFBENCH_KERNELS_HH

#include <cstddef>

#include "trace.hh"

namespace anic::perfbench {

struct KernelTimes
{
    double gcmNsPerKib = 0;     ///< AES-128-GCM seal, one L5P message
    double crcNsPerKib = 0;     ///< CRC32C over one L5P message
    double toeplitzNsPerPkt = 0; ///< RSS hash of one packet's 4-tuple
    double poolNsPerOp = 0;     ///< PacketPool alloc + release
    double schedNsPerEvent = 0; ///< Simulator schedule + dispatch
};

/** Times each kernel (median of rounds) inside a span of its layer. */
KernelTimes timeKernels(Tracer &tr, size_t messageBytes);

} // namespace anic::perfbench

#endif // ANIC_PERFBENCH_KERNELS_HH
