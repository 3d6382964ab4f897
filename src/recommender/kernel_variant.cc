#include "recommender/kernel_variant.h"

#include <vector>

namespace recdb {

const char* KernelVariantName(KernelVariant variant) {
  switch (variant) {
    case KernelVariant::kBaseline:
      return "baseline";
    case KernelVariant::kAvx2:
      return "avx2";
  }
  return "?";
}

std::span<const KernelVariant> SupportedKernelVariants() {
  static const std::vector<KernelVariant> variants = [] {
    std::vector<KernelVariant> v{KernelVariant::kBaseline};
#ifdef RECDB_KERNEL_AVX2
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2")) v.push_back(KernelVariant::kAvx2);
#endif
    return v;
  }();
  return variants;
}

}  // namespace recdb
