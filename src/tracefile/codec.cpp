#include "tracefile/codec.hpp"

namespace eccsim::tracefile {

namespace {

/// Wrapping delta between consecutive u64 values: computed modulo 2^64 so
/// the full address space round-trips through zigzag.
std::int64_t wrapping_delta(std::uint64_t cur, std::uint64_t prev) {
  return static_cast<std::int64_t>(cur - prev);
}

}  // namespace

std::uint64_t pack_address(const dram::DramAddress& addr) {
  if (addr.col >= (1u << 16) || addr.channel >= (1u << 8) ||
      addr.rank >= (1u << 8) || addr.bank >= (1u << 8) ||
      addr.row >= (1ULL << 24)) {
    throw TraceError("ecctrace: DRAM address field exceeds codec width");
  }
  return (addr.row << 40) | (static_cast<std::uint64_t>(addr.bank) << 32) |
         (static_cast<std::uint64_t>(addr.rank) << 24) |
         (static_cast<std::uint64_t>(addr.channel) << 16) | addr.col;
}

dram::DramAddress unpack_address(std::uint64_t packed) {
  dram::DramAddress a;
  a.col = static_cast<std::uint32_t>(packed & 0xFFFFu);
  a.channel = static_cast<std::uint32_t>((packed >> 16) & 0xFFu);
  a.rank = static_cast<std::uint32_t>((packed >> 24) & 0xFFu);
  a.bank = static_cast<std::uint32_t>((packed >> 32) & 0xFFu);
  a.row = packed >> 40;
  return a;
}

std::string encode_pre_chunk(const std::vector<PreOp>& ops) {
  std::string payload;
  payload.reserve(ops.size() * 4);
  std::vector<std::uint64_t> prev_line;
  for (const PreOp& p : ops) {
    if (p.core >= prev_line.size()) prev_line.resize(p.core + 1, 0);
    put_varint(payload, (static_cast<std::uint64_t>(p.core) << 1) |
                            (p.op.is_write ? 1u : 0u));
    put_varint(payload, p.op.gap);
    put_varint(payload, zigzag(wrapping_delta(p.op.line, prev_line[p.core])));
    prev_line[p.core] = p.op.line;
  }
  return payload;
}

std::string encode_post_chunk(const std::vector<PostOp>& ops) {
  std::string payload;
  payload.reserve(ops.size() * 4);
  std::uint64_t prev_cycle = 0;
  std::uint64_t prev_pack = 0;
  for (const PostOp& p : ops) {
    const std::uint64_t pack = pack_address(p.addr);
    put_varint(payload,
               (static_cast<std::uint64_t>(p.line_class) << 1) |
                   (p.is_write ? 1u : 0u));
    put_varint(payload, zigzag(wrapping_delta(p.cycle, prev_cycle)));
    put_varint(payload, zigzag(wrapping_delta(pack, prev_pack)));
    prev_cycle = p.cycle;
    prev_pack = pack;
  }
  return payload;
}

void decode_pre_chunk(const unsigned char* data, std::size_t size,
                      std::uint32_t op_count, std::vector<PreOp>& out) {
  out.clear();
  out.reserve(op_count);
  std::vector<std::uint64_t> prev_line;
  decode_pre_records(data, size, op_count, prev_line,
                     [&out](std::uint32_t core, const trace::MemOp& op) {
                       out.push_back(PreOp{core, op});
                     });
}

void decode_post_chunk(const unsigned char* data, std::size_t size,
                       std::uint32_t op_count, std::vector<PostOp>& out) {
  out.clear();
  out.reserve(op_count);
  ByteCursor cur(data, size);
  std::uint64_t prev_cycle = 0;
  std::uint64_t prev_pack = 0;
  for (std::uint32_t i = 0; i < op_count; ++i) {
    PostOp p;
    const std::uint64_t ctrl = cur.varint();
    if ((ctrl >> 1) > static_cast<std::uint64_t>(dram::LineClass::kEccOther)) {
      throw TraceError("ecctrace: unknown line class in chunk");
    }
    p.line_class = static_cast<dram::LineClass>(ctrl >> 1);
    p.is_write = (ctrl & 1u) != 0;
    p.cycle = prev_cycle + static_cast<std::uint64_t>(unzigzag(cur.varint()));
    const std::uint64_t pack =
        prev_pack + static_cast<std::uint64_t>(unzigzag(cur.varint()));
    p.addr = unpack_address(pack);
    prev_cycle = p.cycle;
    prev_pack = pack;
    out.push_back(p);
  }
  if (!cur.done()) {
    throw TraceError("ecctrace: trailing bytes after last record in chunk");
  }
}

}  // namespace eccsim::tracefile
