// LEB128 varint + zigzag primitives for the .ecctrace chunk payloads, and
// a bounds-checked decode cursor.  Dependency-free; all corruption paths
// (overrun, overlong varint) throw TraceError instead of reading past the
// buffer or looping.
#pragma once

#include <cstdint>
#include <string>

#include "tracefile/format.hpp"

namespace eccsim::tracefile {

/// Appends `v` to `out` as an unsigned LEB128 varint (1-10 bytes).
inline void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7Fu) | 0x80u));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

/// Appends a fixed-width little-endian u32 / u64.
inline void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

inline void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

inline std::uint32_t get_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

inline std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

/// Zigzag-maps a signed delta so small magnitudes of either sign encode
/// as short varints.  Deltas are computed modulo 2^64, so the full u64
/// line-address space round-trips.
inline std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1u);
}

/// Read cursor over one decoded chunk payload.  Every read is
/// bounds-checked; a malformed payload that survives its CRC (or a logic
/// error) surfaces as TraceError, never undefined behavior.
class ByteCursor {
 public:
  ByteCursor(const unsigned char* data, std::size_t size)
      : data_(data), size_(size) {}

  /// Longest valid varint: ten 7-bit groups cover 64 bits.
  static constexpr std::size_t kMaxVarintBytes = 10;

  std::uint64_t varint() {
    // Fast path: a one-byte varint (most flags, gaps and line deltas).
    if (pos_ < size_ && data_[pos_] < 0x80u) return data_[pos_++];
    // Only a varint starting in the payload's last 10 bytes can overrun
    // it; elsewhere the per-byte bounds test is skipped.
    const bool near_end = size_ - pos_ < kMaxVarintBytes;
    std::uint64_t v = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
      if (near_end && pos_ >= size_) {
        throw TraceError("ecctrace: varint overruns chunk payload");
      }
      const unsigned char b = data_[pos_++];
      v |= static_cast<std::uint64_t>(b & 0x7Fu) << shift;
      if ((b & 0x80u) == 0) return v;
    }
    throw TraceError("ecctrace: overlong varint");
  }

  bool done() const { return pos_ == size_; }
  std::size_t position() const { return pos_; }

 private:
  const unsigned char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace eccsim::tracefile
