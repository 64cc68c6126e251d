#include "service/chaos.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <thread>

namespace rsmem::service::chaos {

namespace {

// RNG stream layout under the engine's root seed: stream 1 drives accept
// failures; session k owns streams 2k+2 (writes) and 2k+3 (reads). The
// two directions of one connection run on different threads, so they must
// never share a stream.
constexpr std::uint64_t kAcceptStream = 1;

// Dribble size of a kPartialWrite frame.
constexpr std::size_t kPartialChunkBytes = 3;

std::uint64_t write_stream(std::uint64_t session_id) {
  return 2 * session_id + 2;
}
std::uint64_t read_stream(std::uint64_t session_id) {
  return 2 * session_id + 3;
}

void sleep_ms(double ms) {
  if (ms <= 0) return;
  std::this_thread::sleep_for(
      std::chrono::duration<double, std::milli>(ms));
}

std::array<unsigned char, 4> frame_header(std::uint32_t length) {
  return {static_cast<unsigned char>(length >> 24),
          static_cast<unsigned char>(length >> 16),
          static_cast<unsigned char>(length >> 8),
          static_cast<unsigned char>(length)};
}

}  // namespace

const char* to_string(Fault fault) {
  switch (fault) {
    case Fault::kNone:
      return "none";
    case Fault::kTornFrame:
      return "torn-frame";
    case Fault::kCorruptLength:
      return "corrupt-length";
    case Fault::kCorruptPayload:
      return "corrupt-payload";
    case Fault::kPartialWrite:
      return "partial-write";
    case Fault::kStall:
      return "stall";
    case Fault::kReset:
      return "reset";
    case Fault::kAcceptFail:
      return "accept-fail";
  }
  return "unknown";
}

void hard_reset(int fd) {
  // SO_LINGER{on, 0s}: TCP aborts with RST instead of a graceful FIN; a
  // unix-socket peer sees buffered bytes then EOF. Either way the victim
  // observes an abrupt, mid-stream death — the fault being modeled.
  const linger abort_linger{1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &abort_linger, sizeof abort_linger);
  ::shutdown(fd, SHUT_RDWR);
}

// ---------------------------------------------------------------------------
// ChaosEngine

ChaosEngine::ChaosEngine(ChaosPolicy policy)
    : policy_(policy),
      accept_rng_(sim::Rng(policy.seed).split(kAcceptStream)) {}

std::unique_ptr<ChaosSession> ChaosEngine::make_session() {
  const std::uint64_t id =
      next_session_.fetch_add(1, std::memory_order_relaxed);
  return std::make_unique<ChaosSession>(policy_, this, id);
}

bool ChaosEngine::should_fail_accept() {
  if (policy_.accept_fail <= 0) return false;
  if (!accept_rng_.bernoulli(policy_.accept_fail)) return false;
  count(Fault::kAcceptFail);
  return true;
}

ChaosCounters ChaosEngine::counters() const {
  ChaosCounters out;
  out.torn_frames = torn_frames_.load(std::memory_order_relaxed);
  out.corrupt_lengths = corrupt_lengths_.load(std::memory_order_relaxed);
  out.corrupt_payloads = corrupt_payloads_.load(std::memory_order_relaxed);
  out.partial_writes = partial_writes_.load(std::memory_order_relaxed);
  out.stalls = stalls_.load(std::memory_order_relaxed);
  out.resets = resets_.load(std::memory_order_relaxed);
  out.accept_failures = accept_failures_.load(std::memory_order_relaxed);
  return out;
}

void ChaosEngine::count(Fault fault) {
  switch (fault) {
    case Fault::kNone:
      break;
    case Fault::kTornFrame:
      torn_frames_.fetch_add(1, std::memory_order_relaxed);
      break;
    case Fault::kCorruptLength:
      corrupt_lengths_.fetch_add(1, std::memory_order_relaxed);
      break;
    case Fault::kCorruptPayload:
      corrupt_payloads_.fetch_add(1, std::memory_order_relaxed);
      break;
    case Fault::kPartialWrite:
      partial_writes_.fetch_add(1, std::memory_order_relaxed);
      break;
    case Fault::kStall:
      stalls_.fetch_add(1, std::memory_order_relaxed);
      break;
    case Fault::kReset:
      resets_.fetch_add(1, std::memory_order_relaxed);
      break;
    case Fault::kAcceptFail:
      accept_failures_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
}

// ---------------------------------------------------------------------------
// ChaosSession

ChaosSession::ChaosSession(const ChaosPolicy& policy, ChaosEngine* engine,
                           std::uint64_t session_id)
    : policy_(policy),
      engine_(engine),
      session_id_(session_id),
      write_rng_(sim::Rng(policy.seed).split(write_stream(session_id))),
      read_rng_(sim::Rng(policy.seed).split(read_stream(session_id))) {}

Fault ChaosSession::draw_write_fault() {
  const double u = write_rng_.uniform();
  double edge = policy_.torn_frame;
  if (u < edge) return Fault::kTornFrame;
  edge += policy_.corrupt_length;
  if (u < edge) return Fault::kCorruptLength;
  edge += policy_.corrupt_payload;
  if (u < edge) return Fault::kCorruptPayload;
  edge += policy_.partial_write;
  if (u < edge) return Fault::kPartialWrite;
  edge += policy_.stall_write;
  if (u < edge) return Fault::kStall;
  return Fault::kNone;
}

Fault ChaosSession::draw_read_fault() {
  const double u = read_rng_.uniform();
  double edge = policy_.stall_read;
  if (u < edge) return Fault::kStall;
  edge += policy_.reset_read;
  if (u < edge) return Fault::kReset;
  return Fault::kNone;
}

core::Status ChaosSession::write_frame(int fd, std::string_view payload) {
  if (payload.size() > kMaxFrameBytes) {
    return core::Status::internal("frame payload exceeds kMaxFrameBytes");
  }
  const std::uint32_t length = static_cast<std::uint32_t>(payload.size());
  std::array<unsigned char, 4> header = frame_header(length);
  const Fault fault = draw_write_fault();
  switch (fault) {
    case Fault::kTornFrame: {
      // Strict prefix, then abort: the peer sees mid-frame EOF/reset. The
      // frame never fully left, so the op FAILS typed — callers must not
      // wait for a response.
      engine_->count(fault);
      const std::size_t total = header.size() + payload.size();
      const std::size_t cut =
          1 + static_cast<std::size_t>(write_rng_.uniform_int(total - 1));
      const std::size_t head = std::min(cut, header.size());
      core::Status wrote = wire::write_all(fd, header.data(), head);
      if (wrote.is_ok() && cut > head) {
        wrote = wire::write_all(fd, payload.data(), cut - head);
      }
      hard_reset(fd);
      if (!wrote.is_ok()) return wrote;
      return core::Status::internal(
          "chaos: torn frame injected (wrote " + std::to_string(cut) + "/" +
          std::to_string(total) + " bytes)");
    }
    case Fault::kCorruptLength: {
      // One flipped header bit makes the announced length lie. Whatever
      // the peer does with it (oversize rejection, desynced parse), this
      // stream is unusable — abort it after the write.
      engine_->count(fault);
      const std::uint64_t bit = write_rng_.uniform_int(32);
      header[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
      core::Status wrote = wire::write_all(fd, header.data(), header.size());
      if (wrote.is_ok() && !payload.empty()) {
        wrote = wire::write_all(fd, payload.data(), payload.size());
      }
      hard_reset(fd);
      if (!wrote.is_ok()) return wrote;
      return core::Status::internal(
          "chaos: corrupted length prefix injected (bit " +
          std::to_string(bit) + ")");
    }
    case Fault::kCorruptPayload: {
      // The frame arrives intact but with one payload bit flipped — the
      // peer must answer with a typed parse error, never crash. The write
      // itself SUCCEEDS; the caller still awaits that answer.
      engine_->count(fault);
      std::string mutated(payload);
      if (!mutated.empty()) {
        const std::uint64_t bit = write_rng_.uniform_int(mutated.size() * 8);
        mutated[bit / 8] ^= static_cast<char>(1u << (bit % 8));
      }
      core::Status wrote = wire::write_all(fd, header.data(), header.size());
      if (!wrote.is_ok()) return wrote;
      return wire::write_all(fd, mutated.data(), mutated.size());
    }
    case Fault::kPartialWrite: {
      // Dribble the frame in tiny chunks with pauses between them: the
      // peer's read_all must reassemble short reads. Frame is delivered.
      engine_->count(fault);
      std::string buffer;
      buffer.reserve(header.size() + payload.size());
      buffer.append(reinterpret_cast<const char*>(header.data()),
                    header.size());
      buffer.append(payload);
      for (std::size_t offset = 0; offset < buffer.size();
           offset += kPartialChunkBytes) {
        const std::size_t n =
            std::min(kPartialChunkBytes, buffer.size() - offset);
        const core::Status wrote =
            wire::write_all(fd, buffer.data() + offset, n);
        if (!wrote.is_ok()) return wrote;
        if (offset + n < buffer.size()) sleep_ms(0.2);
      }
      return core::Status::ok();
    }
    case Fault::kStall:
      engine_->count(fault);
      sleep_ms(policy_.stall_ms);
      break;  // then write cleanly
    case Fault::kNone:
    case Fault::kReset:
    case Fault::kAcceptFail:
      break;
  }
  core::Status wrote = wire::write_all(fd, header.data(), header.size());
  if (!wrote.is_ok()) return wrote;
  return wire::write_all(fd, payload.data(), payload.size());
}

core::Result<FrameRead> ChaosSession::read_frame(int fd,
                                                 std::uint32_t max_frame_bytes) {
  switch (draw_read_fault()) {
    case Fault::kStall:
      engine_->count(Fault::kStall);
      sleep_ms(policy_.stall_ms);
      break;
    case Fault::kReset:
      engine_->count(Fault::kReset);
      hard_reset(fd);
      return core::Status::internal(
          "chaos: connection reset injected before read");
    default:
      break;
  }
  return service::read_frame(fd, max_frame_bytes);
}

}  // namespace rsmem::service::chaos
