// Message model for the MiniMPI runtime.
//
// Messages carry modeled sizes (bytes drive timing) plus bookkeeping the
// checkpoint protocols need: per-pair sequence numbers, cumulative volume
// (the paper's R/S accounting unit), incarnation stamps for dropping
// stale in-flight traffic across restarts, and an optional piggybacked RR
// value (Algorithm 1's garbage-collection hint). A deterministic checksum
// lets tests verify that replay reproduces the failure-free delivery
// sequence exactly.
//
// A Message is a flat value: the control payload is stored inline (at most
// two int64 fields, which every CtrlKind fits), so building, copying and
// queueing a message never touches the heap (DESIGN.md §2.3).
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace gcr::mpi {

using RankId = int;

/// Sent by the checkpoint driver ("mpirun") rather than a rank.
inline constexpr RankId kExternalSource = -1;

inline constexpr int kAnyTag = -1;

/// Control-plane message kinds (daemon-to-daemon / driver-to-daemon).
enum class CtrlKind : std::uint8_t {
  kNone = 0,
  // Group protocol checkpoint coordination:
  kCkptRequest,   ///< driver -> group leader: checkpoint this group
  kPrepare,       ///< leader -> member: report your iteration  [epoch]
  kPrepareReply,  ///< member -> leader: [epoch, iteration | -1 if finished]
  kCommit,        ///< leader -> member: checkpoint at iteration [epoch, iter]
  kAbort,         ///< member -> group: abandon epoch [epoch]
  kBookmark,      ///< member -> member: my S towards you [epoch, bytes]
  kBarrierAck,    ///< member -> leader [epoch, phase]
  kBarrierGo,     ///< leader -> member [epoch, phase]
  // Restart:
  kExchangeRequest,  ///< restarting -> peer: [my R from you, my S to you]
  kExchangeReply,    ///< peer -> restarting: [my R from you]
  // VCL protocol:
  kVclRequest,  ///< driver -> every rank: start a Chandy-Lamport round
  kVclMarker,   ///< rank -> rank: marker on the channel
};

/// Kind-specific control fields, stored inline. Written as `{a, b}`; more
/// than kMaxFields fields is a checked abort. The field count sets the wire
/// size (Runtime::send_ctrl charges 8 bytes per field).
class CtrlPayload {
 public:
  static constexpr std::size_t kMaxFields = 2;

  CtrlPayload() = default;
  CtrlPayload(std::initializer_list<std::int64_t> fields) {
    GCR_CHECK_MSG(fields.size() <= kMaxFields,
                  "control payload has more than two fields");
    for (const std::int64_t v : fields) fields_[size_++] = v;
  }

  std::size_t size() const { return size_; }
  std::int64_t at(std::size_t i) const {
    GCR_CHECK_MSG(i < size_, "control payload field out of range");
    return fields_[i];
  }

 private:
  std::int64_t fields_[kMaxFields] = {};
  std::uint8_t size_ = 0;
};

struct Message {
  RankId src = kExternalSource;
  RankId dst = 0;
  int tag = 0;
  std::int64_t bytes = 0;  ///< modeled payload size (drives all timing)

  // --- app-plane bookkeeping (unused for ctrl messages) ---
  std::uint64_t seq = 0;      ///< 1-based per (src,dst) app-message ordinal
  std::int64_t cum_bytes = 0; ///< cumulative src->dst volume incl. this msg
  std::uint64_t checksum = 0; ///< deterministic content hash for verification
  bool is_replay = false;     ///< resent from a sender-side message log
  std::int64_t piggyback_rr = -1;  ///< RR_p piggybacked value; -1 = none

  // --- incarnation stamps (stale in-flight traffic is dropped) ---
  std::uint32_t src_inc = 0;
  std::uint32_t dst_inc = 0;

  // --- control plane ---
  CtrlKind ctrl = CtrlKind::kNone;
  CtrlPayload ctrl_data;  ///< kind-specific payload

  bool is_ctrl() const { return ctrl != CtrlKind::kNone; }
};

/// Deterministic checksum both endpoints can compute independently; replay
/// must deliver a message with exactly this value.
inline std::uint64_t message_checksum(RankId src, RankId dst,
                                      std::uint64_t seq) {
  return mix_seed(mix_seed(static_cast<std::uint64_t>(src) + 0x51ed2701,
                           static_cast<std::uint64_t>(dst) + 0x9d3fca11),
                  seq);
}

}  // namespace gcr::mpi
