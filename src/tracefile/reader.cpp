#include "tracefile/reader.hpp"

#include <cstring>

#include "tracefile/codec.hpp"
#include "tracefile/crc32.hpp"
#include "tracefile/varint.hpp"

namespace eccsim::tracefile {

namespace {

/// Reads exactly `n` bytes or throws the given truncation message.
void read_exact(std::ifstream& in, unsigned char* buf, std::size_t n,
                const std::string& what) {
  in.read(reinterpret_cast<char*>(buf), static_cast<std::streamsize>(n));
  if (static_cast<std::size_t>(in.gcount()) != n) {
    throw TraceError("ecctrace: truncated file (" + what + ")");
  }
}

}  // namespace

TraceReader::TraceReader(const std::string& path) : path_(path) {
  in_.open(path, std::ios::binary);
  if (!in_) {
    throw TraceError("ecctrace: cannot open " + path);
  }
  parse_header();
  index_chunks();
  seek_chunk(0);
}

void TraceReader::parse_header() {
  unsigned char fixed[32];
  read_exact(in_, fixed, sizeof fixed, "header");
  if (std::memcmp(fixed, kMagic, sizeof kMagic) != 0) {
    throw TraceError("ecctrace: bad magic (not an .ecctrace file): " + path_);
  }
  const std::uint32_t version = get_u32(fixed + 8);
  if (version != kFormatVersion) {
    throw TraceError("ecctrace: unsupported format version " +
                     std::to_string(version) + " (expected " +
                     std::to_string(kFormatVersion) + ")");
  }
  const std::uint32_t point = get_u32(fixed + 12);
  if (point > static_cast<std::uint32_t>(CapturePoint::kPostLlc)) {
    throw TraceError("ecctrace: unknown capture point " +
                     std::to_string(point));
  }
  meta_.point = static_cast<CapturePoint>(point);
  meta_.cores = get_u32(fixed + 16);
  meta_.seed = get_u64(fixed + 20);
  const std::uint32_t name_len = get_u32(fixed + 28);
  if (name_len > kMaxNameBytes) {
    throw TraceError("ecctrace: corrupt header (name length)");
  }
  std::string name(name_len, '\0');
  if (name_len > 0) {
    read_exact(in_, reinterpret_cast<unsigned char*>(name.data()), name_len,
               "workload name");
  }
  meta_.workload = std::move(name);
  unsigned char crc_bytes[4];
  read_exact(in_, crc_bytes, sizeof crc_bytes, "header CRC");
  std::uint32_t expect = crc32(fixed, sizeof fixed);
  expect = crc32(meta_.workload.data(), meta_.workload.size(), expect);
  if (get_u32(crc_bytes) != expect) {
    throw TraceError("ecctrace: header CRC mismatch in " + path_);
  }
}

void TraceReader::index_chunks() {
  std::uint64_t ops_seen = 0;
  for (;;) {
    unsigned char marker_bytes[4];
    read_exact(in_, marker_bytes, sizeof marker_bytes,
               "chunk marker / footer");
    const std::uint32_t marker = get_u32(marker_bytes);
    if (marker == kChunkMarker) {
      unsigned char head[12];
      read_exact(in_, head, sizeof head, "chunk header");
      ChunkInfo ci;
      ci.payload_bytes = get_u32(head);
      ci.op_count = get_u32(head + 4);
      ci.crc = get_u32(head + 8);
      if (ci.payload_bytes > kMaxPayloadBytes) {
        throw TraceError("ecctrace: corrupt chunk header (payload size)");
      }
      ci.payload_offset = static_cast<std::uint64_t>(in_.tellg());
      in_.seekg(static_cast<std::streamoff>(ci.payload_bytes),
                std::ios::cur);
      // seekg past EOF only fails at the next read; probe now so a
      // truncated final chunk is reported as truncation, not bad framing.
      if (in_.peek() == std::ifstream::traits_type::eof()) {
        throw TraceError("ecctrace: truncated file (chunk payload)");
      }
      ops_seen += ci.op_count;
      chunks_.push_back(ci);
      continue;
    }
    if (marker == kEndMarker) {
      // Footer body after the marker: u32 chunk_count, u64 total_ops,
      // u32 crc over (marker, chunk_count, total_ops).
      unsigned char foot[16];
      read_exact(in_, foot, sizeof foot, "footer");
      std::string crc_input(reinterpret_cast<const char*>(marker_bytes), 4);
      crc_input.append(reinterpret_cast<const char*>(foot), 12);
      if (get_u32(foot + 12) != crc32(crc_input.data(), crc_input.size())) {
        throw TraceError("ecctrace: footer CRC mismatch in " + path_);
      }
      const std::uint32_t chunk_count = get_u32(foot);
      total_ops_ = get_u64(foot + 4);
      if (chunk_count != chunks_.size() || total_ops_ != ops_seen) {
        throw TraceError("ecctrace: footer totals disagree with chunk "
                         "index in " + path_);
      }
      file_bytes_ = static_cast<std::uint64_t>(in_.tellg());
      if (in_.peek() != std::ifstream::traits_type::eof()) {
        throw TraceError("ecctrace: trailing bytes after footer in " +
                         path_);
      }
      in_.clear();
      return;
    }
    throw TraceError("ecctrace: corrupt chunk framing in " + path_);
  }
}

bool TraceReader::ensure_records() {
  const bool pre = meta_.point == CapturePoint::kPreLlc;
  // Loops because an empty chunk decodes to no records.
  while (dec_pos_ >= (pre ? dec_pre_.size() : dec_post_.size())) {
    Chunk chunk;
    if (!next_chunk(chunk)) return false;
    if (pre) {
      decode_pre_chunk(chunk.data, chunk.size, chunk.op_count, dec_pre_);
    } else {
      decode_post_chunk(chunk.data, chunk.size, chunk.op_count, dec_post_);
    }
  }
  return true;
}

void TraceReader::load_payload(std::size_t index) {
  const ChunkInfo& ci = chunks_[index];
  payload_.resize(ci.payload_bytes);
  in_.clear();
  in_.seekg(static_cast<std::streamoff>(ci.payload_offset));
  if (ci.payload_bytes > 0) {
    read_exact(in_, payload_.data(), payload_.size(), "chunk payload");
  }
  if (crc32(payload_.data(), payload_.size()) != ci.crc) {
    throw TraceError("ecctrace: chunk " + std::to_string(index) +
                     " CRC mismatch in " + path_);
  }
  counters_.chunks_decoded += 1;
  counters_.payload_bytes += ci.payload_bytes;
}

bool TraceReader::next_chunk(Chunk& out) {
  dec_pre_.clear();
  dec_post_.clear();
  dec_pos_ = 0;
  if (next_chunk_ >= chunks_.size()) return false;
  const std::uint32_t op_count = chunks_[next_chunk_].op_count;
  load_payload(next_chunk_++);
  out = Chunk{payload_.data(), payload_.size(), op_count};
  return true;
}

bool TraceReader::next(PreOp& out) {
  if (meta_.point != CapturePoint::kPreLlc) {
    throw TraceError("ecctrace: pre-LLC read from a " +
                     to_string(meta_.point) + " trace");
  }
  if (!ensure_records()) return false;
  out = dec_pre_[dec_pos_++];
  return true;
}

bool TraceReader::next(PostOp& out) {
  if (meta_.point != CapturePoint::kPostLlc) {
    throw TraceError("ecctrace: post-LLC read from a " +
                     to_string(meta_.point) + " trace");
  }
  if (!ensure_records()) return false;
  out = dec_post_[dec_pos_++];
  return true;
}

void TraceReader::seek_chunk(std::size_t index) {
  if (index > chunks_.size()) {
    throw TraceError("ecctrace: seek past end of trace");
  }
  next_chunk_ = index;
  dec_pre_.clear();
  dec_post_.clear();
  dec_pos_ = 0;
}

ValidateResult validate_file(const std::string& path) {
  ValidateResult r;
  try {
    TraceReader reader(path);
    r.meta = reader.meta();
    r.chunks = reader.chunk_count();
    r.file_bytes = reader.file_bytes();
    if (reader.meta().point == CapturePoint::kPreLlc) {
      PreOp op;
      while (reader.next(op)) ++r.ops;
    } else {
      PostOp op;
      while (reader.next(op)) ++r.ops;
    }
    if (r.ops != reader.total_ops()) {
      r.error = "ecctrace: op count mismatch (footer says " +
                std::to_string(reader.total_ops()) + ", decoded " +
                std::to_string(r.ops) + ")";
      return r;
    }
    r.ok = true;
  } catch (const TraceError& e) {
    r.error = e.what();
  }
  return r;
}

}  // namespace eccsim::tracefile
