// Buffered, seekable .ecctrace reader plus the non-throwing deep
// validator behind `tracetool validate`.
//
// Construction parses and CRC-checks the header, then scans the chunk
// framing (seeking over payloads) to build an in-memory chunk index and
// verify the footer -- so a truncated file or bad magic/version is
// rejected up front, in O(chunks) I/O.  Payload CRCs are checked lazily,
// when a chunk is first decoded; a flipped bit is therefore caught before
// a single record of that chunk is surfaced.
//
// The per-chunk delta reset (codec.hpp) makes seek_chunk() exact: reading
// after a seek yields the same records as streaming from the start.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "tracefile/format.hpp"

namespace eccsim::tracefile {

/// Reader-side tallies, exported as tracefile.* stats during replay.
struct ReaderCounters {
  std::uint64_t chunks_decoded = 0;
  std::uint64_t payload_bytes = 0;
};

class TraceReader {
 public:
  /// Opens and indexes `path`.  Throws TraceError on missing file, bad
  /// magic/version, header corruption, or truncation.
  explicit TraceReader(const std::string& path);

  const TraceMeta& meta() const { return meta_; }
  const std::string& path() const { return path_; }
  std::uint64_t total_ops() const { return total_ops_; }
  std::size_t chunk_count() const { return chunks_.size(); }
  std::uint64_t file_bytes() const { return file_bytes_; }
  const ReaderCounters& counters() const { return counters_; }

  /// Next pre-LLC record in stream order; false cleanly at end-of-trace.
  /// Throws TraceError on payload corruption or if meta().point is not
  /// kPreLlc.
  bool next(PreOp& out);
  /// Post-LLC counterpart of next(PreOp&).
  bool next(PostOp& out);

  /// One CRC-checked, still-encoded chunk payload.  `data` stays valid
  /// until the reader's next read or seek.
  struct Chunk {
    const unsigned char* data = nullptr;
    std::size_t size = 0;
    std::uint32_t op_count = 0;
  };
  /// Loads the next chunk and checks its CRC, without decoding it: for a
  /// caller that decodes straight into its own buffers (ReplaySource).
  /// Records of the current chunk not yet read by next() are skipped.
  /// False cleanly at end-of-trace; throws TraceError on a CRC mismatch.
  bool next_chunk(Chunk& out);

  /// Positions the stream at the first record of chunk `index`
  /// (chunk_count() == end-of-trace).  Throws on out-of-range.
  void seek_chunk(std::size_t index);

 private:
  struct ChunkInfo {
    std::uint64_t payload_offset = 0;
    std::uint32_t payload_bytes = 0;
    std::uint32_t op_count = 0;
    std::uint32_t crc = 0;
  };

  void parse_header();
  void index_chunks();
  /// Reads chunk `index`'s payload into payload_ and checks its CRC.
  void load_payload(std::size_t index);
  /// Advances to the next chunk if the decode buffer is drained; returns
  /// false at end-of-trace.
  bool ensure_records();

  std::string path_;
  std::ifstream in_;
  TraceMeta meta_;
  std::vector<ChunkInfo> chunks_;
  std::uint64_t total_ops_ = 0;
  std::uint64_t file_bytes_ = 0;
  ReaderCounters counters_;

  std::size_t next_chunk_ = 0;  ///< next chunk to load
  std::vector<unsigned char> payload_;  ///< the last chunk loaded
  std::vector<PreOp> dec_pre_;
  std::vector<PostOp> dec_post_;
  std::size_t dec_pos_ = 0;
};

/// Outcome of a full-file scan: every chunk decoded and CRC-verified.
struct ValidateResult {
  bool ok = false;
  std::string error;  ///< empty when ok
  std::uint64_t ops = 0;
  std::uint64_t chunks = 0;
  std::uint64_t file_bytes = 0;
  TraceMeta meta;  ///< valid only when the header parsed
};

/// Deep-validates `path` without throwing: any TraceError is captured in
/// the result.  This is the engine of `tracetool validate` and the reason
/// a corrupted trace fails a sweep with a message instead of a crash.
ValidateResult validate_file(const std::string& path);

}  // namespace eccsim::tracefile
