// Internal contract between FlatForest's dispatcher (tree_kernel.cpp)
// and the AVX2 quantized descent (tree_kernel_avx2.cpp, compiled with
// -mavx2). That TU exists only when the build enables GAUGUR_SIMD_X86;
// the dispatcher never calls it on a CPU without AVX2.
#pragma once

#include <cstddef>
#include <cstdint>

namespace gaugur::ml::detail {

#if defined(GAUGUR_SIMD_X86)

/// Quantized descent of one tree over a pre-binned batch (uint16 bin ids,
/// row-major, padded with two trailing elements for the 32-bit bin
/// gather's 4-byte read): for each row, walk `levels` steps from `root`
/// following `idx = child[idx] + (bin[meta[idx] >> 16] > (meta[idx] &
/// 0xFFFF))`, then `out[i] += scale * value[idx]` (separate multiply and
/// add). Bit-identical to the portable scalar quantized kernel in
/// tree_kernel.cpp, and therefore to the float descent.
void AccumulateTreeQuantAvx2(const std::int32_t* meta,
                             const std::int32_t* child, const double* value,
                             std::int32_t root, std::int32_t levels,
                             const std::uint16_t* bins, std::size_t rows,
                             std::size_t cols, double* out, double scale);

#endif  // GAUGUR_SIMD_X86

}  // namespace gaugur::ml::detail
