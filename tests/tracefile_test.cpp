// Tests for the .ecctrace container: codec round-trips, framing and CRC
// rejection of corrupted files, seekability, replay equivalence, and the
// seed contract that makes recorded traces interchangeable with the
// paper-sweep stimulus.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "runner/runner.hpp"
#include "trace/source.hpp"
#include "trace/workload.hpp"
#include "tracefile/codec.hpp"
#include "tracefile/crc32.hpp"
#include "tracefile/reader.hpp"
#include "tracefile/replay.hpp"
#include "tracefile/varint.hpp"
#include "tracefile/writer.hpp"

namespace eccsim::tracefile {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::vector<PreOp> random_pre_ops(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<PreOp> ops(n);
  for (auto& rec : ops) {
    rec.core = static_cast<std::uint32_t>(rng() % 8);
    rec.op.line = rng();  // full 64-bit range: the codec must wrap deltas
    rec.op.gap = static_cast<std::uint32_t>(rng() % 10'000);
    rec.op.is_write = (rng() & 1) != 0;
  }
  return ops;
}

std::vector<PostOp> random_post_ops(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<PostOp> ops(n);
  std::uint64_t cycle = 0;
  for (auto& rec : ops) {
    cycle += rng() % 50;
    rec.cycle = cycle;
    rec.addr.channel = static_cast<std::uint32_t>(rng() % 256);
    rec.addr.rank = static_cast<std::uint32_t>(rng() % 256);
    rec.addr.bank = static_cast<std::uint32_t>(rng() % 256);
    rec.addr.row = rng() % (1ULL << 24);
    rec.addr.col = static_cast<std::uint32_t>(rng() % (1ULL << 16));
    rec.is_write = (rng() & 1) != 0;
    rec.line_class = static_cast<dram::LineClass>(rng() % 4);
  }
  return ops;
}

void expect_pre_eq(const PreOp& a, const PreOp& b) {
  EXPECT_EQ(a.core, b.core);
  EXPECT_EQ(a.op.line, b.op.line);
  EXPECT_EQ(a.op.gap, b.op.gap);
  EXPECT_EQ(a.op.is_write, b.op.is_write);
}

TEST(Codec, PreChunkRoundTrip) {
  const auto ops = random_pre_ops(1000, 1);
  const std::string payload = encode_pre_chunk(ops);
  std::vector<PreOp> back;
  decode_pre_chunk(reinterpret_cast<const unsigned char*>(payload.data()),
                   payload.size(), static_cast<std::uint32_t>(ops.size()),
                   back);
  ASSERT_EQ(back.size(), ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) expect_pre_eq(ops[i], back[i]);
}

TEST(Codec, PostChunkRoundTrip) {
  const auto ops = random_post_ops(1000, 2);
  const std::string payload = encode_post_chunk(ops);
  std::vector<PostOp> back;
  decode_post_chunk(reinterpret_cast<const unsigned char*>(payload.data()),
                    payload.size(), static_cast<std::uint32_t>(ops.size()),
                    back);
  ASSERT_EQ(back.size(), ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(ops[i].cycle, back[i].cycle);
    EXPECT_EQ(ops[i].addr, back[i].addr);
    EXPECT_EQ(ops[i].is_write, back[i].is_write);
    EXPECT_EQ(ops[i].line_class, back[i].line_class);
  }
}

TEST(Codec, PackAddressRejectsOutOfRange) {
  dram::DramAddress a;
  a.col = 1u << 16;
  EXPECT_THROW(pack_address(a), TraceError);
  a = {};
  a.row = 1ULL << 24;
  EXPECT_THROW(pack_address(a), TraceError);
  a = {};
  a.channel = 256;
  EXPECT_THROW(pack_address(a), TraceError);
  a = {};
  a.channel = 3;
  a.rank = 1;
  a.bank = 7;
  a.row = (1ULL << 24) - 1;
  a.col = 65535;
  EXPECT_EQ(unpack_address(pack_address(a)), a);
}

TEST(Codec, DecodeRejectsTrailingBytes) {
  const auto ops = random_pre_ops(10, 3);
  std::string payload = encode_pre_chunk(ops);
  payload.push_back('\0');
  std::vector<PreOp> back;
  EXPECT_THROW(
      decode_pre_chunk(reinterpret_cast<const unsigned char*>(payload.data()),
                       payload.size(), 10, back),
      TraceError);
}

// ---------------------------------------------------------------------------
// CRC-32: the slice-by-8 implementation must equal the classic bytewise
// definition, kept here as the reference, at every length and alignment.

std::uint32_t bytewise_crc32(const unsigned char* p, std::size_t len,
                             std::uint32_t seed = 0) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, KnownAnswer) {
  const std::string check = "123456789";
  EXPECT_EQ(crc32(check.data(), check.size()), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(Crc32, MatchesBytewiseAtEveryLengthAndAlignment) {
  std::mt19937_64 rng(12);
  std::vector<unsigned char> buf(64 + 8);
  for (auto& b : buf) b = static_cast<unsigned char>(rng());
  for (std::size_t align = 0; align < 8; ++align) {
    for (std::size_t len = 0; len <= 64; ++len) {
      ASSERT_EQ(crc32(buf.data() + align, len),
                bytewise_crc32(buf.data() + align, len))
          << "length " << len << " at offset " << align;
    }
  }
  std::vector<unsigned char> page(4096);
  for (int trial = 0; trial < 8; ++trial) {
    for (auto& b : page) b = static_cast<unsigned char>(rng());
    ASSERT_EQ(crc32(page.data(), page.size()),
              bytewise_crc32(page.data(), page.size()));
  }
}

TEST(Crc32, ContinuesAcrossBuffers) {
  std::mt19937_64 rng(13);
  std::vector<unsigned char> buf(1000);
  for (auto& b : buf) b = static_cast<unsigned char>(rng());
  for (const std::size_t cut : {std::size_t{0}, std::size_t{1},
                                std::size_t{7}, std::size_t{8},
                                std::size_t{333}, std::size_t{1000}}) {
    const std::uint32_t a = crc32(buf.data(), cut);
    EXPECT_EQ(crc32(buf.data() + cut, buf.size() - cut, a),
              crc32(buf.data(), buf.size()))
        << "split at " << cut;
    EXPECT_EQ(crc32(buf.data() + cut, buf.size() - cut, a),
              bytewise_crc32(buf.data() + cut, buf.size() - cut,
                             bytewise_crc32(buf.data(), cut)));
  }
}

// ---------------------------------------------------------------------------
// ByteCursor: the one-byte and windowed fast paths must return the
// values, positions and errors of the bytewise LEB128 loop, kept here as
// the reference.

struct RefVarint {
  std::uint64_t value = 0;
  std::size_t end = 0;  ///< position after the varint
  std::string error;    ///< empty when the varint is well formed
};

RefVarint bytewise_varint(const std::string& buf, std::size_t pos) {
  RefVarint r;
  for (unsigned shift = 0; shift < 64; shift += 7) {
    if (pos >= buf.size()) {
      r.error = "ecctrace: varint overruns chunk payload";
      return r;
    }
    const auto b = static_cast<unsigned char>(buf[pos++]);
    r.value |= static_cast<std::uint64_t>(b & 0x7Fu) << shift;
    if ((b & 0x80u) == 0) {
      r.end = pos;
      return r;
    }
  }
  r.error = "ecctrace: overlong varint";
  return r;
}

TEST(ByteCursor, FastPathsMatchBytewiseDecode) {
  std::mt19937_64 rng(14);
  for (int trial = 0; trial < 2000; ++trial) {
    // Varints of every length 1-12 (11 and 12 are overlong), with random
    // payload bits, and sometimes a truncated tail.
    std::string buf;
    const int count = 1 + static_cast<int>(rng() % 40);
    for (int v = 0; v < count; ++v) {
      const std::size_t len = 1 + rng() % (trial % 4 == 0 ? 12 : 4);
      for (std::size_t i = 0; i < len; ++i) {
        const auto bits = static_cast<unsigned char>(rng() & 0x7Fu);
        buf.push_back(static_cast<char>(i + 1 < len ? bits | 0x80u : bits));
      }
    }
    if (trial % 3 == 0) buf.resize(rng() % (buf.size() + 1));
    const auto* data = reinterpret_cast<const unsigned char*>(buf.data());
    ByteCursor cur(data, buf.size());
    std::size_t pos = 0;
    std::vector<RefVarint> want;
    while (pos < buf.size()) {
      want.push_back(bytewise_varint(buf, pos));
      if (!want.back().error.empty()) break;
      pos = want.back().end;
    }
    std::size_t i = 0;
    try {
      for (; i < want.size(); ++i) {
        const std::uint64_t v = cur.varint();
        ASSERT_TRUE(want[i].error.empty()) << "trial " << trial;
        ASSERT_EQ(v, want[i].value) << "trial " << trial;
        ASSERT_EQ(cur.position(), want[i].end);
      }
      EXPECT_TRUE(cur.done());
    } catch (const TraceError& e) {
      ASSERT_LT(i, want.size()) << "trial " << trial;
      EXPECT_EQ(want[i].error, e.what()) << "trial " << trial;
    }
  }
}

// ---------------------------------------------------------------------------
// Decoder guards: payloads whose CRC is valid but whose bytes are
// malformed.  Each must surface as TraceError with its usual message from
// the codec, from the reader's deep scan, and from replay.

/// A one-chunk pre-LLC trace around `payload`, framed and CRC-signed
/// exactly as TraceWriter would sign it.
std::string trace_with_payload(const std::string& payload,
                               std::uint32_t op_count) {
  const std::string empty_path = temp_path("guard_empty.ecctrace");
  TraceMeta meta;
  meta.point = CapturePoint::kPreLlc;
  meta.cores = 2;
  meta.workload = "mcf";
  {
    TraceWriter writer(empty_path, meta);
    writer.close();
  }
  const std::string empty = read_file(empty_path);
  std::remove(empty_path.c_str());
  std::string bytes = empty.substr(0, empty.size() - 20);  // drop footer
  put_u32(bytes, kChunkMarker);
  put_u32(bytes, static_cast<std::uint32_t>(payload.size()));
  put_u32(bytes, op_count);
  put_u32(bytes, crc32(payload.data(), payload.size()));
  bytes += payload;
  std::string footer;
  put_u32(footer, kEndMarker);
  put_u32(footer, 1);
  put_u64(footer, op_count);
  put_u32(footer, crc32(footer.data(), footer.size()));
  return bytes + footer;
}

void expect_guard_fires(const std::string& payload, std::uint32_t op_count,
                        const std::string& message) {
  SCOPED_TRACE(message);
  std::vector<PreOp> out;
  try {
    decode_pre_chunk(reinterpret_cast<const unsigned char*>(payload.data()),
                     payload.size(), op_count, out);
    ADD_FAILURE() << "decode_pre_chunk accepted the payload";
  } catch (const TraceError& e) {
    EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
        << e.what();
  }
  const std::string path = temp_path("guard.ecctrace");
  write_file(path, trace_with_payload(payload, op_count));
  const ValidateResult res = validate_file(path);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find(message), std::string::npos) << res.error;
  ReplaySource replay(path);
  try {
    (void)replay.next(0);
    ADD_FAILURE() << "replay surfaced a record of a malformed chunk";
  } catch (const TraceError& e) {
    EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(replay.ops_replayed(), 0u);
  std::remove(path.c_str());
}

/// One well-formed record for core 0 (three one-byte varints).
std::string good_record() { return std::string("\x00\x05\x02", 3); }

TEST(DecoderGuards, OverlongVarint) {
  std::string payload(10, '\xFF');  // ten continuation bytes
  payload += std::string(20, '\0');
  expect_guard_fires(payload, 1, "overlong varint");
}

TEST(DecoderGuards, VarintCutOffAtEachOfTheLastTenBytes) {
  std::string prefix;
  for (int i = 0; i < 8; ++i) prefix += good_record();
  for (std::size_t cut = 1; cut <= ByteCursor::kMaxVarintBytes; ++cut) {
    // The ninth record's line delta starts `cut` bytes before the end and
    // never terminates.  Ten continuation bytes fit in the payload, so the
    // last case is an overlong varint, not an overrun.
    const std::string payload =
        prefix + std::string("\x00\x05", 2) + std::string(cut, '\x80');
    expect_guard_fires(payload, 9,
                       cut < ByteCursor::kMaxVarintBytes
                           ? "varint overruns chunk payload"
                           : "overlong varint");
  }
}

TEST(DecoderGuards, CoreIndexAbove16Bits) {
  std::string payload;
  put_varint(payload, std::uint64_t{0x10000} << 1);
  put_varint(payload, 1);
  put_varint(payload, 0);
  payload += std::string(12, '\0');  // room for the fast path
  expect_guard_fires(payload, 1, "implausible core index");
}

TEST(DecoderGuards, GapAbove32Bits) {
  std::string payload;
  put_varint(payload, 0);
  put_varint(payload, std::uint64_t{1} << 32);
  put_varint(payload, 0);
  expect_guard_fires(payload, 1, "instruction gap exceeds 32 bits");
}

TEST(DecoderGuards, TrailingBytes) {
  expect_guard_fires(good_record() + good_record() + '\0', 2,
                     "trailing bytes after last record");
}

TEST(DecoderGuards, ReplayRejectsRecordBeyondHeaderCores) {
  // Core 2 is a well-formed record, but the header declares 2 cores.
  std::string payload = good_record();
  put_varint(payload, std::uint64_t{2} << 1);
  put_varint(payload, 0);
  put_varint(payload, 0);
  const std::string path = temp_path("stray_core.ecctrace");
  write_file(path, trace_with_payload(payload, 2));
  EXPECT_TRUE(validate_file(path).ok);
  ReplaySource replay(path);
  try {
    (void)replay.next(0);
    ADD_FAILURE() << "replay accepted a record for core 2 of 2";
  } catch (const TraceError& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds the header's core count"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

// Property: for a spread of chunk sizes (including 1 and exact-boundary
// counts), writing any op sequence and reading it back is the identity.
TEST(WriterReader, RoundTripAcrossChunkSizes) {
  for (const std::size_t ops_per_chunk : {std::size_t{1}, std::size_t{7},
                                          std::size_t{256}}) {
    for (const std::size_t count : {std::size_t{0}, std::size_t{1},
                                    std::size_t{256}, std::size_t{1000}}) {
      const std::string path = temp_path("rt.ecctrace");
      const auto ops = random_pre_ops(count, count * 31 + ops_per_chunk);
      TraceMeta meta;
      meta.point = CapturePoint::kPreLlc;
      meta.cores = 8;
      meta.seed = 42;
      meta.workload = "mcf";
      {
        TraceWriter writer(path, meta, ops_per_chunk);
        for (const auto& rec : ops) writer.append(rec.op, rec.core);
        writer.close();
      }
      TraceReader reader(path);
      EXPECT_EQ(reader.meta().workload, "mcf");
      EXPECT_EQ(reader.meta().cores, 8u);
      EXPECT_EQ(reader.meta().seed, 42u);
      EXPECT_EQ(reader.total_ops(), count);
      PreOp rec;
      std::size_t i = 0;
      while (reader.next(rec)) {
        ASSERT_LT(i, ops.size());
        expect_pre_eq(ops[i], rec);
        ++i;
      }
      EXPECT_EQ(i, count);
      std::remove(path.c_str());
    }
  }
}

TEST(WriterReader, PostRoundTrip) {
  const std::string path = temp_path("post.ecctrace");
  const auto ops = random_post_ops(777, 4);
  TraceMeta meta;
  meta.point = CapturePoint::kPostLlc;
  meta.cores = 8;
  meta.workload = "lbm";
  {
    TraceWriter writer(path, meta, 100);
    for (const auto& rec : ops) writer.append(rec);
    writer.close();
  }
  TraceReader reader(path);
  PostOp rec;
  std::size_t i = 0;
  while (reader.next(rec)) {
    ASSERT_LT(i, ops.size());
    EXPECT_EQ(ops[i].cycle, rec.cycle);
    EXPECT_EQ(ops[i].addr, rec.addr);
    ++i;
  }
  EXPECT_EQ(i, ops.size());
  std::remove(path.c_str());
}

TEST(WriterReader, PointMismatchThrows) {
  const std::string path = temp_path("mismatch.ecctrace");
  TraceMeta meta;
  meta.point = CapturePoint::kPreLlc;
  meta.workload = "mcf";
  TraceWriter writer(path, meta);
  EXPECT_THROW(writer.append(PostOp{}), TraceError);
  writer.close();
  std::remove(path.c_str());
}

TEST(WriterReader, SeekChunkIsExact) {
  const std::string path = temp_path("seek.ecctrace");
  const auto ops = random_pre_ops(1000, 5);
  TraceMeta meta;
  meta.point = CapturePoint::kPreLlc;
  meta.workload = "mcf";
  {
    TraceWriter writer(path, meta, 64);
    for (const auto& rec : ops) writer.append(rec.op, rec.core);
    writer.close();
  }
  TraceReader reader(path);
  ASSERT_EQ(reader.chunk_count(), (1000 + 63) / 64);
  // Jump to an arbitrary chunk: the stream must continue exactly at op
  // index chunk*64 (per-chunk delta reset makes this possible).
  for (const std::size_t chunk : {std::size_t{0}, std::size_t{7},
                                  std::size_t{15}}) {
    reader.seek_chunk(chunk);
    PreOp rec;
    ASSERT_TRUE(reader.next(rec));
    expect_pre_eq(ops[chunk * 64], rec);
  }
  reader.seek_chunk(reader.chunk_count());  // end-of-trace position
  PreOp rec;
  EXPECT_FALSE(reader.next(rec));
  EXPECT_THROW(reader.seek_chunk(reader.chunk_count() + 1), TraceError);
  std::remove(path.c_str());
}

// Any truncation must be rejected -- either at open (broken framing) or at
// the latest by validate_file's deep scan.  Never a crash or a silent
// short read.
TEST(Corruption, TruncationDetectedAtEveryLength) {
  const std::string path = temp_path("trunc_src.ecctrace");
  const auto ops = random_pre_ops(2000, 6);
  TraceMeta meta;
  meta.point = CapturePoint::kPreLlc;
  meta.workload = "mcf";
  {
    TraceWriter writer(path, meta, 128);
    for (const auto& rec : ops) writer.append(rec.op, rec.core);
    writer.close();
  }
  const std::string bytes = read_file(path);
  ASSERT_GT(bytes.size(), 100u);
  const std::string tpath = temp_path("trunc.ecctrace");
  for (std::size_t len = 0; len < bytes.size(); len += 97) {
    write_file(tpath, bytes.substr(0, len));
    const ValidateResult res = validate_file(tpath);
    EXPECT_FALSE(res.ok) << "truncation to " << len << " bytes accepted";
    EXPECT_FALSE(res.error.empty());
  }
  std::remove(path.c_str());
  std::remove(tpath.c_str());
}

// Single-bit-flip fuzz: every header, framing, payload, and footer byte is
// covered by a CRC or a structural check, so any flip must be detected.
TEST(Corruption, BitFlipsDetectedEverywhere) {
  const std::string path = temp_path("flip_src.ecctrace");
  const auto ops = random_pre_ops(500, 7);
  TraceMeta meta;
  meta.point = CapturePoint::kPreLlc;
  meta.workload = "streamcluster";
  {
    TraceWriter writer(path, meta, 64);
    for (const auto& rec : ops) writer.append(rec.op, rec.core);
    writer.close();
  }
  const std::string bytes = read_file(path);
  const std::string fpath = temp_path("flip.ecctrace");
  std::mt19937_64 rng(8);
  for (std::size_t trial = 0; trial < 400; ++trial) {
    const std::size_t pos = rng() % bytes.size();
    const int bit = static_cast<int>(rng() % 8);
    std::string corrupted = bytes;
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ (1 << bit));
    write_file(fpath, corrupted);
    const ValidateResult res = validate_file(fpath);
    EXPECT_FALSE(res.ok) << "flip of bit " << bit << " at byte " << pos
                         << " accepted";
  }
  std::remove(path.c_str());
  std::remove(fpath.c_str());
}

TEST(Corruption, BadMagicRejected) {
  const std::string path = temp_path("magic.ecctrace");
  write_file(path, "NOTTRACExxxxxxxxxxxxxxxxxxxxxxxxxxxx");
  const ValidateResult res = validate_file(path);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("magic"), std::string::npos);
  EXPECT_THROW(TraceReader reader(path), TraceError);
  std::remove(path.c_str());
}

TEST(Corruption, UnsupportedVersionRejected) {
  const std::string path = temp_path("version_src.ecctrace");
  TraceMeta meta;
  meta.point = CapturePoint::kPreLlc;
  meta.workload = "mcf";
  {
    TraceWriter writer(path, meta);
    writer.close();
  }
  std::string bytes = read_file(path);
  // Patch version (u32 at offset 8, after the magic) to 99 and re-sign the
  // header so only the version check can reject it.
  bytes[8] = 99;
  const std::size_t name_len = meta.workload.size();
  const std::size_t crc_off = 8 + 4 + 4 + 4 + 8 + 4 + name_len;
  const std::uint32_t crc = crc32(bytes.data(), crc_off);
  for (int i = 0; i < 4; ++i) {
    bytes[crc_off + static_cast<std::size_t>(i)] =
        static_cast<char>((crc >> (8 * i)) & 0xFF);
  }
  const std::string vpath = temp_path("version.ecctrace");
  write_file(vpath, bytes);
  const ValidateResult res = validate_file(vpath);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("version"), std::string::npos);
  std::remove(path.c_str());
  std::remove(vpath.c_str());
}

// The replay source must reproduce the generators exactly, independent of
// the order cores are polled in (the per-core demux guarantee).
TEST(Replay, MatchesSyntheticInAnyPullOrder) {
  const std::string path = temp_path("replay.ecctrace");
  const auto& desc = trace::workload_by_name("canneal");
  const std::uint64_t seed = trace::paper_sweep_seed("canneal");
  record_workload_trace(desc, 4, 500, seed, path);

  ReplaySource replay(path);
  trace::SyntheticSource synth(desc, 4, seed);
  EXPECT_EQ(replay.cores(), 4u);
  EXPECT_EQ(replay.workload().name, "canneal");
  // Scrambled, uneven pull order across cores.
  std::mt19937_64 rng(9);
  std::vector<std::uint64_t> pulled(4, 0);
  for (int i = 0; i < 1500; ++i) {
    const unsigned core = static_cast<unsigned>(rng() % 4);
    if (pulled[core] >= 500) continue;
    const trace::MemOp a = replay.next(core);
    const trace::MemOp b = synth.next(core);
    EXPECT_EQ(a.line, b.line);
    EXPECT_EQ(a.gap, b.gap);
    EXPECT_EQ(a.is_write, b.is_write);
    ++pulled[core];
  }
  std::remove(path.c_str());
}

// Small chunks put every core's stream across many chunk boundaries; one
// core drained far ahead of the others must still see exactly its own
// ops, and so must the cores left behind.
TEST(Replay, DemuxAcrossChunkBoundaries) {
  const std::string path = temp_path("replay_small_chunks.ecctrace");
  const auto& desc = trace::workload_by_name("omnetpp");
  const std::uint64_t seed = 5;
  const unsigned cores = 4;
  const std::uint64_t per_core = 1000;  // 4000 ops: 62.5 chunks of 64
  {
    TraceMeta meta;
    meta.point = CapturePoint::kPreLlc;
    meta.cores = cores;
    meta.seed = seed;
    meta.workload = desc.name;
    TraceWriter writer(path, meta, 64);
    trace::SyntheticSource gen(desc, cores, seed);
    for (std::uint64_t i = 0; i < per_core; ++i) {
      for (unsigned c = 0; c < cores; ++c) writer.append(gen.next(c), c);
    }
    writer.close();
    ASSERT_EQ(writer.counters().chunks, 63u);
  }
  ReplaySource replay(path);
  trace::SyntheticSource synth(desc, cores, seed);
  auto expect_next = [&](unsigned core) {
    const trace::MemOp a = replay.next(core);
    const trace::MemOp b = synth.next(core);
    ASSERT_EQ(a.line, b.line) << "core " << core;
    ASSERT_EQ(a.gap, b.gap);
    ASSERT_EQ(a.is_write, b.is_write);
  };
  // Core 1 a little way in, then core 0 all the way to the last chunk.
  for (int i = 0; i < 100; ++i) expect_next(1);
  for (std::uint64_t i = 0; i < per_core; ++i) expect_next(0);
  EXPECT_EQ(replay.reader_counters().chunks_decoded, 63u);
  EXPECT_THROW(replay.next(0), TraceError);
  EXPECT_EQ(replay.ops_replayed(), 100 + per_core);
  // The others are still intact, in a scrambled pull order.
  std::mt19937_64 rng(10);
  std::vector<std::uint64_t> pulled = {per_core, 100, 0, 0};
  while (pulled[1] + pulled[2] + pulled[3] < 3 * per_core) {
    const unsigned core = 1 + static_cast<unsigned>(rng() % 3);
    if (pulled[core] == per_core) continue;
    expect_next(core);
    ++pulled[core];
  }
  for (unsigned c = 0; c < cores; ++c) {
    EXPECT_THROW(replay.next(c), TraceError);
  }
  EXPECT_EQ(replay.ops_replayed(), cores * per_core);
  std::remove(path.c_str());
}

TEST(Replay, ExhaustedTraceThrows) {
  const std::string path = temp_path("short.ecctrace");
  const auto& desc = trace::workload_by_name("mcf");
  record_workload_trace(desc, 2, 10, 1, path);
  ReplaySource replay(path);
  for (int i = 0; i < 10; ++i) (void)replay.next(0);
  EXPECT_THROW(replay.next(0), TraceError);
  EXPECT_EQ(replay.ops_replayed(), 10u);
  std::remove(path.c_str());
}

/// `cores` x `per_core` omnetpp ops (seed 5), round-robin, in chunks of
/// 64 ops, written to `path`.
void write_small_chunk_trace(const std::string& path, unsigned cores,
                             std::uint64_t per_core) {
  TraceMeta meta;
  meta.point = CapturePoint::kPreLlc;
  meta.cores = cores;
  meta.seed = 5;
  meta.workload = "omnetpp";
  TraceWriter writer(path, meta, 64);
  trace::SyntheticSource gen(trace::workload_by_name(meta.workload), cores,
                             meta.seed);
  for (std::uint64_t i = 0; i < per_core; ++i) {
    for (unsigned c = 0; c < cores; ++c) writer.append(gen.next(c), c);
  }
  writer.close();
}

/// Pulls `rounds`-round blocks from `replay` until it throws; returns the
/// TraceError's text.
std::string block_pull_error(ReplaySource& replay, std::size_t rounds) {
  std::vector<trace::MemOp> out(rounds * replay.cores());
  try {
    for (;;) replay.next_rounds(out.data(), rounds);
  } catch (const TraceError& e) {
    return e.what();
  }
}

/// Pulls round-robin through next() until `replay` throws; returns the
/// TraceError's text.
std::string per_op_pull_error(ReplaySource& replay) {
  try {
    for (;;) {
      for (unsigned c = 0; c < replay.cores(); ++c) (void)replay.next(c);
    }
  } catch (const TraceError& e) {
    return e.what();
  }
}

// A block pull fails as round-robin next() calls fail: an exhausted trace
// throws the same TraceError text after the same ops_replayed(), and a
// corrupt chunk throws its CRC error before any op of that chunk (or of
// the block that needs it) is handed out.
TEST(Replay, BlockPullThrowsWhatPerOpPullsThrow) {
  const std::string path = temp_path("block_errors.ecctrace");
  constexpr unsigned kCores = 4;
  write_small_chunk_trace(path, kCores, 1000);  // 63 chunks of <= 64 ops
  {
    ReplaySource blocks(path), per_op(path);
    const std::string want = per_op_pull_error(per_op);
    EXPECT_NE(want.find("trace exhausted"), std::string::npos) << want;
    EXPECT_EQ(block_pull_error(blocks, 64), want);  // 1000 = 15*64 + 40
    EXPECT_EQ(blocks.ops_replayed(), per_op.ops_replayed());
    EXPECT_EQ(blocks.ops_replayed(), 1000u * kCores);
  }
  // Flip one payload byte of chunk 20 (ops 1280..1343: rounds 320..335).
  std::string bytes = read_file(path);
  std::size_t pos = 8 + 4 + 4 + 4 + 8 + 4 + std::string("omnetpp").size() + 4;
  for (int chunk = 0; chunk < 20; ++chunk) {
    std::uint32_t payload = 0;
    std::memcpy(&payload, bytes.data() + pos + 4, 4);
    pos += 16 + payload;
  }
  bytes[pos + 16 + 1] = static_cast<char>(bytes[pos + 16 + 1] ^ 0x10);
  const std::string bad = temp_path("block_errors_bad.ecctrace");
  write_file(bad, bytes);
  ReplaySource blocks(bad), per_op(bad);
  const std::string want = per_op_pull_error(per_op);
  EXPECT_NE(want.find("CRC"), std::string::npos) << want;
  EXPECT_EQ(per_op.ops_replayed(), 1280u);
  EXPECT_EQ(block_pull_error(blocks, 64), want);
  EXPECT_EQ(blocks.ops_replayed(), 1280u);  // blocks of rounds 0..319
  std::remove(path.c_str());
  std::remove(bad.c_str());
}

TEST(Replay, RejectsPostLlcTrace) {
  const std::string path = temp_path("postonly.ecctrace");
  TraceMeta meta;
  meta.point = CapturePoint::kPostLlc;
  meta.workload = "mcf";
  {
    TraceWriter writer(path, meta);
    writer.append(PostOp{});
    writer.close();
  }
  EXPECT_THROW(ReplaySource replay(path), TraceError);
  std::remove(path.c_str());
}

TEST(Replay, RejectsCoreBeyondHeader) {
  const std::string path = temp_path("coverflow.ecctrace");
  record_workload_trace(trace::workload_by_name("mcf"), 2, 5, 1, path);
  ReplaySource replay(path);
  EXPECT_THROW(replay.next(2), TraceError);
  std::remove(path.c_str());
}

TEST(Recording, TeePassesThroughAndProducesReplayableFile) {
  const std::string path = temp_path("tee.ecctrace");
  const auto& desc = trace::workload_by_name("lbm");
  RecordingSource rec(std::make_unique<trace::SyntheticSource>(desc, 2, 11),
                      path, 11);
  trace::SyntheticSource reference(desc, 2, 11);
  std::vector<trace::MemOp> seen;
  for (int i = 0; i < 300; ++i) {
    const unsigned core = static_cast<unsigned>(i % 2);
    const trace::MemOp a = rec.next(core);
    const trace::MemOp b = reference.next(core);
    EXPECT_EQ(a.line, b.line);  // the tee must not perturb the stream
    seen.push_back(a);
  }
  rec.writer().close();
  ReplaySource replay(path);
  for (int i = 0; i < 300; ++i) {
    const trace::MemOp a = replay.next(static_cast<unsigned>(i % 2));
    EXPECT_EQ(a.line, seen[static_cast<std::size_t>(i)].line);
  }
  std::remove(path.c_str());
}

// RecordingSource keeps TraceSource's round-robin next_rounds(): a
// recording driven by block pulls writes the same bytes as one driven by
// the same ops pulled through next(), gaps and call order included.
TEST(Recording, BlockPullsRecordPerOpCallOrder) {
  const auto& desc = trace::workload_by_name("milc");
  const std::string blocks_path = temp_path("rec_blocks.ecctrace");
  const std::string per_op_path = temp_path("rec_per_op.ecctrace");
  constexpr unsigned kCores = 4;
  constexpr std::size_t kRounds[] = {1, 64, 5, 200, 64};
  {
    RecordingSource blocks(
        std::make_unique<trace::SyntheticSource>(desc, kCores, 3),
        blocks_path, 3, 64);
    RecordingSource per_op(
        std::make_unique<trace::SyntheticSource>(desc, kCores, 3),
        per_op_path, 3, 64);
    std::vector<trace::MemOp> out;
    for (const std::size_t rounds : kRounds) {
      out.resize(rounds * kCores);
      blocks.next_rounds(out.data(), rounds);
      for (std::size_t r = 0; r < rounds; ++r) {
        for (unsigned c = 0; c < kCores; ++c) (void)per_op.next(c);
      }
      (void)blocks.next(1);  // uneven positions for the next block
      (void)per_op.next(1);
    }
    blocks.writer().close();
    per_op.writer().close();
  }
  const std::string want = read_file(per_op_path);
  EXPECT_GT(want.size(), 1000u);
  EXPECT_TRUE(read_file(blocks_path) == want)
      << "block-pulled recording differs from the per-op one";
  std::remove(blocks_path.c_str());
  std::remove(per_op_path.c_str());
}

// The contract that makes traces interchangeable with live sweep stimulus:
// trace::paper_sweep_seed must equal the runner substream the bench sweep
// assigns to each workload (root seed 1, substream = workload index).
TEST(Seeds, PaperSweepSeedMatchesRunnerSubstream) {
  const auto& workloads = trace::paper_workloads();
  for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
    EXPECT_EQ(trace::paper_sweep_seed(wi), runner::substream_seed(1, wi))
        << "workload index " << wi;
    EXPECT_EQ(trace::paper_sweep_seed(workloads[wi].name),
              trace::paper_sweep_seed(wi));
  }
}

TEST(Source, SyntheticMatchesRawGenerators) {
  const auto& desc = trace::workload_by_name("milc");
  trace::SyntheticSource source(desc, 8, 77);
  std::vector<trace::CoreGenerator> gens;
  for (unsigned c = 0; c < 8; ++c) gens.emplace_back(desc, c, 8, 77);
  for (int i = 0; i < 500; ++i) {
    for (unsigned c = 0; c < 8; ++c) {
      const trace::MemOp a = source.next(c);
      const trace::MemOp b = gens[c].next();
      EXPECT_EQ(a.line, b.line);
      EXPECT_EQ(a.gap, b.gap);
      EXPECT_EQ(a.is_write, b.is_write);
    }
  }
}

}  // namespace
}  // namespace eccsim::tracefile
