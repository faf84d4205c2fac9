// gt-stream-v2: length-prefixed binary graph-stream framing (DESIGN.md
// §13). CSV (stream_file.h) remains the interchange/golden format; v2 is
// the hot-path wire and file format the replayer decodes with
// bounds-checked fixed-width loads instead of a parse.
//
// File layout (all integers little-endian):
//
//   preamble (16 B) : magic "GTSTRM2\n" · u32 version=2 · u32 flags=0
//   block*          : header (24 B) · records (32 B each) · trailer
//   sentinel block  : header with kV2BlockFlagEnd, zero records/trailer
//
// Block header (24 B):
//   u32 block magic "BLK2" · u32 flags · u32 record_count ·
//   u32 payload_bytes (trailer length) · u32 body_crc (CRC-32C of
//   records ‖ trailer) · u32 header_crc (CRC-32C of the preceding 20 B)
//
// Checksums are CRC-32C (Castagnoli): every block body is checksummed on
// the replay hot path, and CRC-32C has a dedicated SSE4.2 instruction
// (common/crc32.h), unlike the IEEE polynomial the durable checkpoint
// format keeps for compatibility.
//
// Record (32 B):
//   u8 type · u8[3] reserved=0 · u32 payload_len · u64 payload_off ·
//   u64 a · u64 b
//   with per-type field unioning: vertex ops a=vertex; edge ops a=src,
//   b=dst; SET_RATE a=IEEE-754 bit pattern of the factor; PAUSE
//   a=milliseconds. Variable strings (vertex/edge state, marker labels)
//   are interned in the block trailer and referenced by (off, len);
//   event types that the CSV serializer renders without a payload
//   (removes, controls) must carry (0, 0).
//
// Every structural element is sealed: the preamble is validated byte for
// byte, a header CRC covers the lengths before they are trusted, a body
// CRC covers record + trailer bytes, and the mandatory end-of-stream
// sentinel makes truncation at a block boundary detectable. Any
// corruption — truncation at any offset or any single bit flip — is
// rejected as ParseError (tests/stream/v2_fuzz_test.cc proves this
// exhaustively).
#ifndef GRAPHTIDES_STREAM_V2_FORMAT_H_
#define GRAPHTIDES_STREAM_V2_FORMAT_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "stream/event.h"
#include "stream/event_view.h"

namespace graphtides {

/// On-disk / on-wire encodings of a graph stream.
enum class StreamFormat : uint8_t {
  kCsv = 1,  // v1: one CSV line per event (stream_file.h)
  kV2 = 2,   // gt-stream-v2 binary blocks (this header)
};

std::string_view StreamFormatName(StreamFormat format);

inline constexpr char kV2Magic[8] = {'G', 'T', 'S', 'T', 'R', 'M', '2', '\n'};
inline constexpr size_t kV2PreambleBytes = 16;
inline constexpr uint32_t kV2Version = 2;
inline constexpr size_t kV2BlockHeaderBytes = 24;
inline constexpr size_t kV2RecordBytes = 32;
/// Block-header flag marking the mandatory end-of-stream sentinel.
inline constexpr uint32_t kV2BlockFlagEnd = 1u << 0;
/// Sanity caps a CRC-valid header must still satisfy before its lengths
/// drive any allocation or read.
inline constexpr uint32_t kV2MaxBlockRecords = 1u << 20;
inline constexpr uint32_t kV2MaxBlockPayloadBytes = 64u << 20;
/// Default writer seal thresholds (records per block / trailer bytes).
inline constexpr size_t kV2RecordsPerBlock = 4096;
inline constexpr size_t kV2TrailerSealBytes = 1u << 20;

/// Appends the 16-byte file preamble to *out.
void AppendV2Preamble(std::string* out);

/// Validates all 16 preamble bytes (magic, version, flags); ParseError on
/// any mismatch, including a short buffer.
Status CheckV2Preamble(std::string_view preamble);

/// Decoded block header, already magic/CRC/cap-checked by
/// ParseV2BlockHeader.
struct V2BlockHeader {
  uint32_t flags = 0;
  uint32_t record_count = 0;
  uint32_t payload_bytes = 0;
  uint32_t body_crc = 0;

  bool end_of_stream() const { return (flags & kV2BlockFlagEnd) != 0; }
  /// Bytes of records ‖ trailer following the header.
  size_t body_bytes() const {
    return static_cast<size_t>(record_count) * kV2RecordBytes + payload_bytes;
  }
};

/// Parses and validates a 24-byte block header: block magic, header CRC,
/// undefined flags, size caps, and that a sentinel is empty. ParseError on
/// any violation.
Result<V2BlockHeader> ParseV2BlockHeader(std::string_view header);

/// Verifies a block body (records ‖ trailer) against the header's length
/// and body CRC.
Status CheckV2BlockBody(const V2BlockHeader& header, std::string_view body);

/// \brief Decodes one 32-byte record against its block trailer.
///
/// The returned view's payload borrows from `trailer`, so it stays valid
/// exactly as long as the block bytes do (the mmap reader hands out views
/// directly into the mapping). Performs the full semantic validation the
/// CSV parser applies: known type, zero reserved bytes, payload bounds
/// inside the trailer, no payload on types the CSV form renders without
/// one, positive finite rate factors, non-negative pauses.
Result<EventView> DecodeV2Record(std::string_view record,
                                 std::string_view trailer);

/// Appends the end-of-stream sentinel block to *out.
void AppendV2SentinelBlock(std::string* out);

/// \brief Accumulates records + interned trailer for one block and seals
/// them with CRCs.
///
/// Identical payload strings within a block intern to one trailer entry;
/// the empty payload is always (0, 0) and occupies no trailer bytes.
/// Encoding is deterministic: the same event sequence always produces the
/// same block bytes, which is what makes v2→v1→v2 byte-stable.
class V2BlockEncoder {
 public:
  /// Appends one record. Field semantics mirror
  /// event_internal::AppendEventFields, so encode(parse(csv)) and the CSV
  /// line itself describe the same event.
  void Add(EventType type, VertexId vertex, const EdgeId& edge,
           std::string_view payload, double rate_factor, Duration pause);

  size_t records() const { return count_; }
  bool empty() const { return count_ == 0; }
  /// True when the block reached the default seal thresholds.
  bool Full() const {
    return count_ >= kV2RecordsPerBlock ||
           trailer_.size() >= kV2TrailerSealBytes;
  }

  /// Appends the sealed block (header ‖ records ‖ trailer) to *out and
  /// resets the encoder. No-op on an empty encoder.
  void SealTo(std::string* out);

  void Reset();

 private:
  /// Direct-mapped intern cache: one slot per hash bucket, no heap. A
  /// collision simply stores the payload bytes again — interning is an
  /// encoding-size optimization, never a correctness requirement, so the
  /// encoder must not pay a per-unique-payload allocation for it (the
  /// replay hot path encodes mostly-unique payloads). A zeroed slot can
  /// never false-match: InternPayload is only called for non-empty
  /// payloads, and empty slots have len 0.
  struct InternSlot {
    uint64_t hash = 0;
    uint64_t off = 0;
    uint32_t len = 0;
  };
  static constexpr size_t kInternSlots = 1024;  // power of two

  uint64_t InternPayload(std::string_view payload);

  std::string records_;
  std::string trailer_;
  size_t count_ = 0;
  std::array<InternSlot, kInternSlots> intern_{};
};

/// \brief Sniffs a stream file's format by magic: a file beginning with
/// the 8-byte v2 magic is kV2, anything else (including files shorter
/// than the magic) is kCsv. IoError only when the file cannot be opened.
Result<StreamFormat> DetectStreamFormat(const std::string& path);

}  // namespace graphtides

#endif  // GRAPHTIDES_STREAM_V2_FORMAT_H_
