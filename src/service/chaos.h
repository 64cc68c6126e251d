// Deterministic transport fault injection for rsmem-serve.
//
// The 2005 paper's core claim is that reliability is only as good as the
// fault model it was exercised against. The serving layer gets the same
// treatment as the analytic core (analysis/fault_campaign.cpp): a seeded
// shim wraps the socket I/O of server and client and injects the faults a
// real network produces — torn frames, corrupted length prefixes, flipped
// payload bits, dribbled partial writes, stalls, hard connection resets,
// and accept-time failures — under the library's split-stream RNG
// discipline, so a scenario replays bit-identically from one root seed.
//
// Wiring: a ChaosEngine is handed to ServerConfig::chaos and/or
// Client::connect. Both default to null — the clean build pays one
// pointer test per frame and nothing else. Sessions are numbered in
// connection-creation order and each session splits independent read and
// write RNG streams (the two directions of one connection run on
// different threads), so the fault plan of connection N is a pure
// function of (seed, N) no matter how the scheduler interleaves traffic.
#ifndef RSMEM_SERVICE_CHAOS_H
#define RSMEM_SERVICE_CHAOS_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "core/status.h"
#include "service/protocol.h"
#include "sim/rng.h"

namespace rsmem::service::chaos {

// One injected fault class per transport operation; at most one fires per
// frame (cumulative-probability draw, first match wins in declaration
// order).
enum class Fault : std::uint8_t {
  kNone = 0,
  kTornFrame,       // write a strict prefix of the frame, then hard-reset
  kCorruptLength,   // flip one bit in the 4-byte length prefix
  kCorruptPayload,  // flip one bit somewhere in the JSON payload
  kPartialWrite,    // dribble the frame in tiny chunks (stresses read_all)
  kStall,           // sleep before the operation (slow-loris)
  kReset,           // hard-reset instead of performing the read
  kAcceptFail,      // reset a just-accepted connection (server only)
};

const char* to_string(Fault fault);

// Per-operation fault probabilities, all 0 by default (= clean
// transport). Probabilities are independent per frame and drawn from the
// session's direction stream; the sum of the write-side classes should
// stay <= 1 (they share one cumulative draw).
struct ChaosPolicy {
  std::uint64_t seed = 2005;

  // Write-side classes (drawn once per write_frame, in this order).
  double torn_frame = 0.0;
  double corrupt_length = 0.0;
  double corrupt_payload = 0.0;
  double partial_write = 0.0;
  double stall_write = 0.0;

  // Read-side classes (drawn once per read_frame).
  double stall_read = 0.0;
  double reset_read = 0.0;

  // Accept-time failures (drawn once per accepted connection).
  double accept_fail = 0.0;

  double stall_ms = 5.0;  // length of an injected stall

  bool any() const {
    return torn_frame > 0 || corrupt_length > 0 || corrupt_payload > 0 ||
           partial_write > 0 || stall_write > 0 || stall_read > 0 ||
           reset_read > 0 || accept_fail > 0;
  }
};

// Cumulative injected-fault counts across every session of an engine.
// Deterministic for a fixed seed and operation sequence — the campaign
// report prints them.
struct ChaosCounters {
  std::uint64_t torn_frames = 0;
  std::uint64_t corrupt_lengths = 0;
  std::uint64_t corrupt_payloads = 0;
  std::uint64_t partial_writes = 0;
  std::uint64_t stalls = 0;
  std::uint64_t resets = 0;
  std::uint64_t accept_failures = 0;
  std::uint64_t total() const {
    return torn_frames + corrupt_lengths + corrupt_payloads + partial_writes +
           stalls + resets + accept_failures;
  }
};

class ChaosEngine;

// The per-connection fault stream. read_frame/write_frame are drop-in
// replacements for the protocol functions: byte-identical behavior when
// no fault fires, typed (never silent) failure when one does. A sabotaged
// write returns a non-ok Status immediately — the caller must NOT wait
// for a response to a frame that never fully left.
//
// Thread-safety matches the connection model: the write stream is only
// touched under the connection's write mutex, the read stream only by the
// single reader thread. The two streams never share engine state.
class ChaosSession {
 public:
  ChaosSession(const ChaosPolicy& policy, ChaosEngine* engine,
               std::uint64_t session_id);

  core::Status write_frame(int fd, std::string_view payload);
  core::Result<FrameRead> read_frame(int fd, std::uint32_t max_frame_bytes);

  std::uint64_t session_id() const { return session_id_; }

 private:
  Fault draw_write_fault();
  Fault draw_read_fault();

  ChaosPolicy policy_;
  ChaosEngine* engine_;  // counters; outlives the session
  std::uint64_t session_id_;
  sim::Rng write_rng_;
  sim::Rng read_rng_;
};

// Engine = policy + session factory + fault counters. One engine per
// Server (or per client fleet); share via shared_ptr so sessions embedded
// in connections never outlive it.
class ChaosEngine {
 public:
  explicit ChaosEngine(ChaosPolicy policy);

  const ChaosPolicy& policy() const { return policy_; }

  // Sessions are numbered in creation order — accept order on the server,
  // connect order on a client — which is what makes a fixed seed replay
  // the same per-connection fault plan.
  std::unique_ptr<ChaosSession> make_session();

  // Draws from a dedicated accept stream (server accept loop is single
  // threaded). True = reset the just-accepted connection.
  bool should_fail_accept();

  ChaosCounters counters() const;
  void count(Fault fault);

 private:
  ChaosPolicy policy_;
  std::atomic<std::uint64_t> next_session_{0};
  sim::Rng accept_rng_;
  std::atomic<std::uint64_t> torn_frames_{0};
  std::atomic<std::uint64_t> corrupt_lengths_{0};
  std::atomic<std::uint64_t> corrupt_payloads_{0};
  std::atomic<std::uint64_t> partial_writes_{0};
  std::atomic<std::uint64_t> stalls_{0};
  std::atomic<std::uint64_t> resets_{0};
  std::atomic<std::uint64_t> accept_failures_{0};
};

// Abruptly kills a connection: SO_LINGER{1, 0} so TCP sends RST instead
// of FIN, then shutdown(SHUT_RDWR). On unix sockets (no RST) the peer
// sees buffered data followed by EOF — the closest the transport offers.
// Never closes the fd; its owner still does that.
void hard_reset(int fd);

}  // namespace rsmem::service::chaos

#endif  // RSMEM_SERVICE_CHAOS_H
