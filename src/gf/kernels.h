// Region kernels behind gf::mul_add_region. Internal to src/gf: the public
// op dispatches through here, and the tests include this header to compare
// the SSSE3 kernel with the portable one byte for byte.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/bytes.h"

namespace rockfs::gf::detail {

/// out[i] ^= c·in[i] for i < n.
using RegionKernel = void (*)(std::uint8_t c, const Byte* in, Byte* out, std::size_t n);

/// Scalar loop over the split-nibble tables: the fallback and the reference.
void mul_add_region_portable(std::uint8_t c, const Byte* in, Byte* out, std::size_t n);

/// The SSSE3 pshufb kernel, or nullptr when the CPU (or the build's
/// architecture) lacks SSSE3.
RegionKernel ssse3_region_kernel();

}  // namespace rockfs::gf::detail
