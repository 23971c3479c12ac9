// Wire protocol for spectra_served (DESIGN §6g): length-prefixed binary
// frames over a byte stream (stdin/stdout for the daemon; any stdio
// stream for tests).
//
//   frame   := u32 payload_bytes, payload
//   payload := u32 magic, ...
//
//   SGRQ  client -> daemon   one generation request
//           u32 version (=1), u64 id, u64 seed, u32 steps,
//           u32 channels, u32 height, u32 width, u8 aggregation (0 mean,
//           1 median), f64 context[channels*height*width]
//   SGRW  daemon -> client   one finalized city row (t-major, steps*width)
//           u64 id, u32 row, u32 count, f64 values[count]
//   SGDN  daemon -> client   terminal state for a request
//           u64 id, u8 status (0 done / 1 failed / 2 cancelled),
//           u32 rows, u32 message_bytes, message
//   SGER  daemon -> client   protocol-level error (no request id)
//           u32 message_bytes, message
//
// All integers and doubles are native-endian: the daemon serves
// co-located clients over pipes, not the network. Request ids are chosen
// by the client and echoed verbatim — the daemon interleaves SGRW frames
// of concurrent requests, and ids are how clients demultiplex.
//
// Corruption contract: a request payload that fails validation (bad
// magic, wrong version, impossible shape, size mismatch) is answered
// with an SGER frame and the daemon KEEPS SERVING — framing stays intact
// because the length prefix was honored. Only a torn stream (EOF inside
// a frame, or a length prefix beyond kMaxFrameBytes) ends the session.

#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "serve/server.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace spectra::serve {

class ProtocolError : public Error {
 public:
  explicit ProtocolError(std::string message) : Error(std::move(message)) {}
};

inline constexpr std::uint32_t kProtocolVersion = 1;
// Hard ceiling on one frame; a 1024x1024 city with 32 context channels
// is ~268 MB, so this bounds a malicious length prefix without capping
// any realistic request.
inline constexpr std::uint32_t kMaxFrameBytes = 512u * 1024u * 1024u;

// SGRW payload bytes before the row values: type, id, row index, count.
inline constexpr std::size_t kRowHeaderBytes = 4 + 8 + 4 + 4;

enum class FrameType : std::uint32_t {
  kRequest = 0x53475251u,  // "SGRQ" (big-endian mnemonic only)
  kRow = 0x53475257u,      // "SGRW"
  kDone = 0x5347444Eu,     // "SGDN"
  kError = 0x53474552u,    // "SGER"
};

// Decoded SGRQ payload.
struct WireRequest {
  std::uint64_t id = 0;
  std::uint64_t seed = 0;
  long steps = 0;
  long channels = 0;
  long height = 0;
  long width = 0;
  geo::OverlapAggregation aggregation = geo::OverlapAggregation::kMean;
  std::vector<double> context;  // channels * height * width, row-major
};

// Decoded SGRW payload.
struct WireRow {
  std::uint64_t id = 0;
  long row = 0;
  std::vector<double> values;
};

// Decoded SGDN payload.
struct WireDone {
  std::uint64_t id = 0;
  RequestState state = RequestState::kDone;
  long rows = 0;
  std::string message;
};

// --- payload encode/decode (no length prefix) -------------------------------

std::vector<std::uint8_t> encode_request(const WireRequest& request);

// All decoders throw ProtocolError on malformed input.
FrameType frame_type(const std::vector<std::uint8_t>& payload);
WireRequest decode_request(const std::vector<std::uint8_t>& payload);
WireRow decode_row(const std::vector<std::uint8_t>& payload);
WireDone decode_done(const std::vector<std::uint8_t>& payload);
std::string decode_error(const std::vector<std::uint8_t>& payload);

// --- framing ----------------------------------------------------------------

// Write one frame (length prefix + payload) and flush. Throws
// ProtocolError on a short write.
void write_frame(std::FILE* out, const std::vector<std::uint8_t>& payload);

// Read one frame's payload. Returns false on clean EOF at a frame
// boundary; throws ProtocolError on a torn frame or an oversized length.
bool read_frame(std::FILE* in, std::vector<std::uint8_t>& payload);

// Serialized frame writer shared by all serve workers of one daemon
// session: rows of concurrent requests interleave on the stream, but
// each frame is written atomically under the lock.
class FrameWriter {
 public:
  explicit FrameWriter(std::FILE* out) : out_(out) {}

  void write_row(std::uint64_t id, long row, const std::vector<double>& values);
  void write_done(std::uint64_t id, RequestState state, long rows, const std::string& message);
  void write_error(const std::string& message);

 private:
  Mutex mutex_ SG_ACQUIRED_AFTER(lock_order::serve) SG_ACQUIRED_BEFORE(lock_order::pool);
  std::FILE* out_ SG_PT_GUARDED_BY(mutex_);
};

// --- daemon -----------------------------------------------------------------

struct DaemonStats {
  long requests = 0;         // well-formed requests submitted
  long protocol_errors = 0;  // malformed frames answered with SGER
};

// Serve `in` until EOF: decode SGRQ frames, submit them to `server`
// (OnFull::kBlock — the stream itself is the backpressure), stream SGRW
// rows and SGDN completions to `out`, answer malformed requests with
// SGER without dying. Waits for every in-flight request before
// returning. Runs on the caller's thread.
DaemonStats daemon_loop(std::FILE* in, std::FILE* out, Server& server);

}  // namespace spectra::serve
