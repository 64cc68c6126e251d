// rsmem-serve wire protocol.
//
// Transport: length-framed JSON over a stream socket (Unix or TCP). Each
// frame is a 4-byte big-endian payload length followed by that many bytes
// of UTF-8 JSON — one request or one response object per frame. Frames are
// capped at kMaxFrameBytes; a peer that announces more is protocol-broken
// and the connection is closed.
//
// Requests name an analysis over a core::MemorySystemSpec; responses carry
// either a result object or a typed core::Status code. Doubles cross the
// wire with 17 significant digits (service/json.h), so a service response
// is bit-identical to the equivalent direct core:: call.
//
// Cache keys: canonical_cache_key() renders the SEMANTIC content of a
// request (kind, spec, times — never the raw JSON text, ids, or deadlines)
// with hex-float (%a) formatting, so two requests share a key if and only
// if every double is bitwise equal. See docs/SERVICE.md for the
// canonicalization rules.
#ifndef RSMEM_SERVICE_PROTOCOL_H
#define RSMEM_SERVICE_PROTOCOL_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/status.h"
#include "service/json.h"

namespace rsmem::service {

// Hard ceiling on one frame's JSON payload (16 MiB): big enough for any
// curve the analyses produce, small enough to bound a malicious peer.
inline constexpr std::uint32_t kMaxFrameBytes = 16u << 20;

enum class RequestKind : std::uint8_t {
  kPing,      // liveness + version; not cached
  kBer,       // BER(t) curve over times_hours (analyze_ber / periodic)
  kMttf,      // mean time to data loss
  kSweep,     // BER at a horizon across one swept parameter
  kStats,     // server counters (cache + scheduler); not cached
  kShutdown,  // orderly shutdown: drain queue, close connections
};

const char* to_string(RequestKind kind);

struct Request {
  std::uint64_t id = 0;
  RequestKind kind = RequestKind::kPing;
  // Milliseconds the caller is willing to wait before the request STARTS
  // computing; 0 = no deadline. Expired requests get kDeadlineExceeded.
  double deadline_ms = 0.0;

  core::MemorySystemSpec spec;  // kBer / kMttf / kSweep
  bool periodic = false;        // kBer: deterministic periodic scrubbing
  std::vector<double> times_hours;  // kBer sample times (ascending)

  std::string sweep_param;           // kSweep: "seu" | "perm" | "tsc"
  std::vector<double> sweep_values;  // kSweep: swept values
  double sweep_hours = 48.0;         // kSweep: fixed horizon

  std::string to_json() const;
  // Parses and shape-checks one request frame. Unknown kinds and malformed
  // shapes come back as InvalidConfig (the server answers with the status,
  // it never drops the frame silently).
  static core::Result<Request> from_json(std::string_view text);
};

// Cache provenance of a response, reported so clients (and loadgen) can
// measure hit rates end to end.
enum class CacheSource : std::uint8_t {
  kNone,  // not a cacheable kind (ping/stats/shutdown) or an error
  kMiss,  // computed by this request (single-flight leader)
  kHit,   // served from the LRU cache
  kWait,  // deduplicated onto a concurrent identical computation
};

const char* to_string(CacheSource source);

struct Response {
  std::uint64_t id = 0;
  core::Status status;         // ok or typed rejection
  CacheSource cache = CacheSource::kNone;
  double compute_ms = 0.0;     // server-side time inside the analysis
  std::string result_json;     // serialized result object; empty on error

  std::string to_json() const;
  static core::Result<Response> from_json(std::string_view text);
};

// Canonical cache key of a request's semantic content (empty string for
// kinds that are not cacheable). Doubles are rendered with %a so key
// equality is exactly bitwise equality of every parameter.
std::string canonical_cache_key(const Request& request);

// FNV-1a 64-bit of the canonical key; exposed for stats/diagnostics (the
// cache itself is keyed by the full string, collisions are impossible).
std::uint64_t cache_key_hash(std::string_view canonical_key);

// THE shard routing rule (service/shard_router.h and the tests share this
// one definition): xor-fold the 64-bit FNV-1a of the canonical key to 32
// bits — so the high bytes of the hash still spread keys whose low bytes
// collide — then reduce modulo shard_count. Deterministic: every request
// with the same semantic content routes to the same shard, which is what
// keeps per-shard caches as effective as one global cache for repeated
// queries. Empty keys (control-plane kinds) and shard_count <= 1 route
// to shard 0.
//
// Stats schema note: a sharded server's `stats` response keeps the
// merged `scheduler`/`cache` objects (counter sums; max_batch is a max)
// at the top level for backwards compatibility and adds `shard_count`,
// `rejected_global` (backstop rejections that never reached a shard), and
// a `shards` array with one {scheduler, cache} object per shard, in
// shard-index order.
std::uint32_t shard_of_key(std::string_view canonical_key,
                           std::uint32_t shard_count);

// ---------------------------------------------------------------------------
// Frame transport over a connected socket fd. Blocking; both retry EINTR
// and short reads/writes. read_frame distinguishes orderly EOF before any
// byte (kOk=false via the bool flag) from mid-frame truncation (Internal).
// A receive timeout armed on the fd (SO_RCVTIMEO) surfaces as an Internal
// status whose message starts with "socket read timed out" — the chaos
// campaign's hang detector keys on it.
core::Status write_frame(int fd, std::string_view payload);
struct FrameRead {
  bool eof = false;     // peer closed before the next frame started
  std::string payload;  // valid when !eof
};
core::Result<FrameRead> read_frame(int fd);
// Same, but with a caller-chosen frame cap (must be <= kMaxFrameBytes).
// A header announcing more than the cap is a PROTOCOL violation, reported
// as InvalidConfig (so the server can answer a typed rejection before
// closing) and never triggers the allocation.
core::Result<FrameRead> read_frame(int fd, std::uint32_t max_frame_bytes);

// Raw building blocks of the framing layer, exposed for the chaos shim
// (service/chaos.h) so injected faults go through exactly the transport
// code paths the clean build uses. write_all retries EINTR and short
// writes and never raises SIGPIPE; read_all returns 0 only on EOF before
// the first byte.
namespace wire {
core::Status write_all(int fd, const void* data, std::size_t size);
core::Result<std::size_t> read_all(int fd, void* data, std::size_t size);
}  // namespace wire

// Spec <-> JSON object helpers shared by request encode/decode.
JsonObject spec_to_json(const core::MemorySystemSpec& spec);
core::Result<core::MemorySystemSpec> spec_from_json(const Json& json);

}  // namespace rsmem::service

#endif  // RSMEM_SERVICE_PROTOCOL_H
