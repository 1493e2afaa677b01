// Chunk payload codec: delta+varint encoding of pre-/post-LLC records.
//
// Chunks are self-contained: all delta state (per-core previous line,
// previous cycle, previous packed address) resets at each chunk boundary,
// which is what makes TraceReader::seek_chunk() possible and confines a
// corrupted chunk's blast radius to itself.
//
// Pre-LLC record  -> varint(core<<1 | is_write), varint(gap),
//                    zigzag-varint(line delta vs this core's previous line)
// Post-LLC record -> varint(line_class<<1 | is_write),
//                    zigzag-varint(cycle delta),
//                    zigzag-varint(packed-address delta), where
//                    packed = row<<40 | bank<<32 | rank<<24 | channel<<16
//                             | col  (field widths checked at encode time).
#pragma once

#include <string>
#include <vector>

#include "tracefile/format.hpp"
#include "tracefile/varint.hpp"

namespace eccsim::tracefile {

/// Encodes one chunk of pre-LLC records.
std::string encode_pre_chunk(const std::vector<PreOp>& ops);

/// Encodes one chunk of post-LLC records.
std::string encode_post_chunk(const std::vector<PostOp>& ops);

/// Decodes exactly `op_count` pre-LLC records from a chunk payload in one
/// pass, handing each to `sink(core, op)` in stream order.  `prev_line`
/// is caller-owned scratch for the per-core delta state, so a caller that
/// decodes chunk after chunk allocates nothing.  Throws TraceError if the
/// payload is malformed or its length disagrees with `op_count`; the sink
/// has then seen the records before the fault, so it must hold them back
/// until the call returns.
template <typename Sink>
void decode_pre_records(const unsigned char* data, std::size_t size,
                        std::uint32_t op_count,
                        std::vector<std::uint64_t>& prev_line, Sink&& sink) {
  prev_line.assign(prev_line.size(), 0);
  ByteCursor cur(data, size);
  for (std::uint32_t i = 0; i < op_count; ++i) {
    const std::uint64_t ctrl = cur.varint();
    if ((ctrl >> 1) > 0xFFFFu) {
      throw TraceError("ecctrace: implausible core index in chunk");
    }
    const auto core = static_cast<std::uint32_t>(ctrl >> 1);
    trace::MemOp op;
    op.is_write = (ctrl & 1u) != 0;
    const std::uint64_t gap = cur.varint();
    if (gap > 0xFFFFFFFFu) {
      throw TraceError("ecctrace: instruction gap exceeds 32 bits");
    }
    op.gap = static_cast<std::uint32_t>(gap);
    if (core >= prev_line.size()) prev_line.resize(core + 1, 0);
    op.line = prev_line[core] + static_cast<std::uint64_t>(
                                    unzigzag(cur.varint()));
    prev_line[core] = op.line;
    sink(core, op);
  }
  if (!cur.done()) {
    throw TraceError("ecctrace: trailing bytes after last record in chunk");
  }
}

/// Decodes exactly `op_count` pre-LLC records from a chunk payload into
/// `out` (cleared first).  Throws as decode_pre_records does.
void decode_pre_chunk(const unsigned char* data, std::size_t size,
                      std::uint32_t op_count, std::vector<PreOp>& out);

/// Post-LLC counterpart of decode_pre_chunk.
void decode_post_chunk(const unsigned char* data, std::size_t size,
                       std::uint32_t op_count, std::vector<PostOp>& out);

/// Packs a DramAddress into the codec's 64-bit form; throws TraceError if
/// any field exceeds its width (col 16 bits, channel/rank/bank 8 bits
/// each, row 24 bits -- comfortably above any Table II geometry).
std::uint64_t pack_address(const dram::DramAddress& addr);

/// Inverse of pack_address.
dram::DramAddress unpack_address(std::uint64_t packed);

}  // namespace eccsim::tracefile
