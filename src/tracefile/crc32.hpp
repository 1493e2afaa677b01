// CRC-32 (IEEE 802.3, polynomial 0xEDB88320): slice-by-8 tables, eight
// bytes per step, in portable C++ with no intrinsics.  Protects every
// .ecctrace header, chunk payload, and footer so corruption is detected
// per chunk instead of crashing a sweep.
#pragma once

#include <cstddef>
#include <cstdint>

namespace eccsim::tracefile {

/// CRC of `len` bytes at `data`.  Pass a previous result as `seed` to
/// continue a running CRC over discontiguous buffers.
std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed = 0);

}  // namespace eccsim::tracefile
