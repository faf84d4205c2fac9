// gt_convert — lossless conversion between the CSV stream format (v1) and
// the gt-stream-v2 binary block format.
//
// Usage:
//   gt_convert --in stream.gts --out stream.gts2            (auto: flip)
//   gt_convert --in stream.gts2 --out stream.gts --to csv
//
// The input format is detected by magic; --to csv|v2 forces the output
// encoding (default: the opposite of the input). Conversion is lossless
// for canonical streams: v1 -> v2 -> v1 reproduces the CSV file byte for
// byte (generator output is canonical — no comments, no blank lines, LF
// line endings), and v2 -> v1 -> v2 reproduces the v2 file byte for byte.
// Non-canonical CSV (comments, blank lines, CRLF) converts fine but those
// carrier bytes are not representable in v2 and are dropped.
//
// Exit code 0 on success, 1 on usage/IO/parse errors.
#include <cstdio>

#include <string>

#include "common/flags.h"
#include "stream/stream_file.h"
#include "stream/v2_format.h"
#include "stream/v2_reader.h"
#include "stream/v2_writer.h"

using namespace graphtides;

namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "gt_convert: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string in;
  std::string out;
  std::string to;  // empty: the opposite of the input format
  bool quiet = false;
  FlagTable flags("gt_convert");
  flags.Add("in", &in);
  flags.Add("out", &out);
  flags.Add("to", &to);
  flags.Add("quiet", &quiet);
  if (auto exit_code = flags.ParseCommandLine(argc, argv)) return *exit_code;
  if (in.empty()) return Fail(Status::InvalidArgument("--in is required"));
  if (out.empty()) return Fail(Status::InvalidArgument("--out is required"));

  auto in_format = DetectStreamFormat(in);
  if (!in_format.ok()) return Fail(in_format.status());

  StreamFormat out_format = *in_format == StreamFormat::kV2
                                ? StreamFormat::kCsv
                                : StreamFormat::kV2;
  if (to == "csv") {
    out_format = StreamFormat::kCsv;
  } else if (to == "v2") {
    out_format = StreamFormat::kV2;
  } else if (!to.empty()) {
    return Fail(Status::InvalidArgument("unknown --to: " + to));
  }

  // Stream event-by-event rather than materializing: conversion stays
  // constant-memory in the stream length for both directions.
  size_t events = 0;
  Status st;
  if (*in_format == StreamFormat::kV2) {
    V2StreamReader reader;
    st = reader.Open(in);
    if (st.ok() && out_format == StreamFormat::kV2) {
      V2FileWriter writer;
      st = writer.Open(out);
      while (st.ok()) {
        auto next = reader.Next();
        if (!next.ok()) {
          st = next.status();
          break;
        }
        if (!next->has_value()) break;
        const EventView& v = **next;
        st = writer.AppendFields(v.type, v.vertex, v.edge, v.payload,
                                 v.rate_factor, v.pause);
        if (st.ok()) ++events;
      }
      if (st.ok()) st = writer.Finish();
    } else if (st.ok()) {
      StreamFileWriter writer;
      st = writer.Open(out);
      Event scratch;
      while (st.ok()) {
        auto next = reader.Next();
        if (!next.ok()) {
          st = next.status();
          break;
        }
        if (!next->has_value()) break;
        scratch = (*next)->Materialize();
        st = writer.Append(scratch);
        if (st.ok()) ++events;
      }
      if (st.ok()) st = writer.Close();
    }
  } else {
    StreamFileReader reader;
    st = reader.Open(in);
    if (st.ok() && out_format == StreamFormat::kV2) {
      V2FileWriter writer;
      st = writer.Open(out);
      while (st.ok()) {
        auto next = reader.Next();
        if (!next.ok()) {
          st = next.status();
          break;
        }
        if (!next->has_value()) break;
        st = writer.Append(**next);
        if (st.ok()) ++events;
      }
      if (st.ok()) st = writer.Finish();
    } else if (st.ok()) {
      StreamFileWriter writer;
      st = writer.Open(out);
      while (st.ok()) {
        auto next = reader.Next();
        if (!next.ok()) {
          st = next.status();
          break;
        }
        if (!next->has_value()) break;
        st = writer.Append(**next);
        if (st.ok()) ++events;
      }
      if (st.ok()) st = writer.Close();
    }
  }
  if (!st.ok()) {
    std::remove(out.c_str());
    return Fail(st);
  }

  if (!quiet) {
    std::fprintf(stderr, "gt_convert: %zu events, %s -> %s (%s)\n", events,
                 in.c_str(), out.c_str(),
                 std::string(StreamFormatName(out_format)).c_str());
  }
  return 0;
}
