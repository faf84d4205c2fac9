// Reading gt-stream-v2 files (stream/v2_format.h). Two modes, proven
// equivalent by tests/stream/v2_roundtrip_test.cc:
//
//   * mmap (default): the file is mapped read-only and every EventView —
//     payload included — borrows directly from the mapping. After the
//     per-block CRC pass, decoding a record is a handful of
//     bounds-checked fixed-width loads: no parse, no copy, no
//     allocation. This is the sharded replayer's hot path.
//   * buffered read: each block is pread into a reusable buffer — the
//     fallback for streams mmap cannot serve, and the cross-check that
//     keeps the mmap fast path honest.
//
// Integrity discipline per block: the 24-byte header is magic- and
// CRC-verified before its lengths are trusted, then the body
// (records ‖ trailer) is CRC-verified before any record is decoded. A
// mandatory end-of-stream sentinel makes truncation at a block boundary
// detectable, so every proper-prefix truncation and every bit flip is a
// ParseError.
#ifndef GRAPHTIDES_STREAM_V2_READER_H_
#define GRAPHTIDES_STREAM_V2_READER_H_

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "stream/event.h"
#include "stream/event_view.h"
#include "stream/v2_format.h"

namespace graphtides {

struct V2ReaderOptions {
  /// Map the file read-only (default). When false, blocks are read into a
  /// reusable buffer with stdio instead.
  bool use_mmap = true;
};

/// \brief Sequential reader over a gt-stream-v2 file.
///
/// Usage mirrors StreamFileReader: Open, then Next() until it yields
/// nullopt (the verified end-of-stream sentinel). A returned view (and
/// its payload) stays valid until the next Next() call.
class V2StreamReader {
 public:
  explicit V2StreamReader(V2ReaderOptions options = {})
      : options_(options) {}
  ~V2StreamReader();

  V2StreamReader(const V2StreamReader&) = delete;
  V2StreamReader& operator=(const V2StreamReader&) = delete;

  Status Open(const std::string& path);

  /// Next event view, std::nullopt after the end-of-stream sentinel, or a
  /// ParseError annotated with the 1-based record number. Corruption is
  /// not recoverable: after a ParseError the reader is poisoned.
  Result<std::optional<EventView>> Next();

 private:
  Status LoadNextBlock();
  void CloseFile();

  V2ReaderOptions options_;
  bool opened_ = false;
  bool at_end_ = false;
  uint64_t record_number_ = 0;

  // mmap mode.
  const char* map_ = nullptr;
  size_t map_size_ = 0;
  size_t pos_ = 0;  // offset of the next unread byte in the mapping

  // buffered mode.
  std::FILE* file_ = nullptr;
  std::string block_buf_;  // reused per-block body storage

  // Current block (slices of the mapping or of block_buf_).
  std::string_view records_;
  std::string_view trailer_;
  size_t block_records_ = 0;
  size_t next_record_ = 0;
};

/// Loads a whole v2 stream file into memory (tools, tests).
Result<std::vector<Event>> ReadV2StreamFile(const std::string& path);

/// \brief Loads a stream file of either format, dispatching on the magic:
/// v2 via ReadV2StreamFile, anything else via the CSV ReadStreamFile.
Result<std::vector<Event>> ReadStreamFileAnyFormat(const std::string& path);

}  // namespace graphtides

#endif  // GRAPHTIDES_STREAM_V2_READER_H_
