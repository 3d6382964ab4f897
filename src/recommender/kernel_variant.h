// Which instruction-set variant of the scoring kernels this CPU runs.
//
// The ItemCF walk (cf_kernel.h) and the SVD dot products (svd_kernel.h)
// are each compiled once per variant; every variant gives the same bits
// (DESIGN.md §10). This is the one place the process asks the CPU which it
// can run.
#pragma once

#include <cstdint>
#include <span>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define RECDB_KERNEL_AVX2 1
#endif

#if defined(__GNUC__) || defined(__clang__)
// A kernel's helpers are forced inline, so each variant compiles them with
// its own instruction set instead of calling one baseline copy.
#define RECDB_KERNEL_INLINE inline __attribute__((always_inline))
#else
#define RECDB_KERNEL_INLINE inline
#endif

namespace recdb {

/// A compiled kernel variant. kAvx2 exists in x86-64 GCC/Clang builds only.
enum class KernelVariant : uint8_t { kBaseline, kAvx2 };

const char* KernelVariantName(KernelVariant variant);

/// The variants this host's CPU runs, baseline first. Decided once per
/// process; the models run the last one.
std::span<const KernelVariant> SupportedKernelVariants();

}  // namespace recdb
