#ifndef RTREC_NET_SHM_TRANSPORT_H_
#define RTREC_NET_SHM_TRANSPORT_H_

/// Same-host shared-memory transport for the rtrec wire protocol.
/// Normative layout and recovery rules: docs/WIRE_PROTOCOL.md §9.
///
/// A server owns one POSIX shm segment holding a fixed array of client
/// slots. Each slot is a pair of single-producer/single-consumer byte
/// rings (request: client→server, response: server→client) carrying
/// ordinary wire frames — the exact bytes that would cross a TCP
/// socket, so FrameDecoder and every codec in wire.h are reused
/// unchanged and Hello, pipelining and batching work identically.
///
/// Crash safety is broker-less: a client claims a slot with a CAS,
/// publishes its pid, and bumps nothing on exit that the server cannot
/// redo. The server's poller reclaims a slot when the client announced
/// a clean close (kSlotClosing) or when its pid is gone (ESRCH) — a
/// client killed mid-request therefore cannot wedge the server. A
/// per-slot generation counter makes reclaim ABA-safe: clients check
/// it on every call and see Unavailable instead of touching a slot
/// that was handed to someone else.
///
/// Memory ordering: each ring position is a monotonically increasing
/// u64. The producer publishes bytes with a release store of `tail`
/// after the memcpy; the consumer acquires `tail`, copies, then
/// release-stores `head` to return space. Slot claim/handshake uses
/// acq_rel CAS on `state`. See DESIGN.md "Transport v2" for the full
/// argument.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "net/wire.h"

namespace rtrec {

/// Parses a same-host shm address. Accepted spellings (case-sensitive):
///   rec://shm/NAME   |   shm:NAME   |   shm://NAME
/// NAME must be 1..63 chars of [A-Za-z0-9._-]. Returns the POSIX shm
/// object name ("/rtrec.NAME") or nullopt if `address` is not an shm
/// address (i.e. should be treated as a TCP host).
std::optional<std::string> ParseShmAddress(std::string_view address);

/// Slot lifecycle states (docs/WIRE_PROTOCOL.md §9.3).
inline constexpr std::uint32_t kSlotFree = 0;     ///< claimable
inline constexpr std::uint32_t kSlotClaimed = 1;  ///< CAS won, handshake
inline constexpr std::uint32_t kSlotActive = 2;   ///< rings live
inline constexpr std::uint32_t kSlotClosing = 3;  ///< client left; reclaim

/// Serves wire frames over a shared-memory segment. Create() builds the
/// segment and starts one poller thread; the handler runs on that
/// thread, one decoded frame at a time, and replies through `send`.
class ShmServer {
 public:
  struct Options {
    /// Concurrent client attachments (slots). Each costs 2*ring_bytes.
    std::uint32_t slot_count = 8;
    /// Per-direction ring capacity; must be a power of two and at
    /// least max_frame_bytes + 4 so any single frame fits.
    std::size_t ring_bytes = 1 << 21;
    std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
    /// Response bytes buffered server-side for a slow client before the
    /// server evicts it (docs/WIRE_PROTOCOL.md §9.5).
    std::size_t max_pending_response_bytes = 8u << 20;
    MetricsRegistry* metrics = nullptr;  ///< optional; may be null
  };

  /// Per-attachment connection state threaded through the handler so
  /// Hello's feature negotiation persists across frames of one
  /// attachment.
  struct ConnState {
    /// Feature bits acked in this slot's Hello (net/wire.h kFeature*).
    std::uint32_t negotiated_features = 0;
    /// Handler sets this to evict the client (protocol violation).
    bool close = false;
  };

  /// Appends one encoded response frame for the current client.
  using SendFn = std::function<void(std::string&&)>;
  /// Invoked on the poller thread for every decoded request frame.
  using FrameHandler =
      std::function<void(const Frame&, ConnState*, const SendFn&)>;

  /// Creates the segment (unlinking any stale one with the same name)
  /// and starts the poller. `shm_name` is the POSIX object name, e.g.
  /// from ParseShmAddress.
  static StatusOr<std::unique_ptr<ShmServer>> Create(
      const std::string& shm_name, const Options& options,
      FrameHandler handler);

  ~ShmServer();
  ShmServer(const ShmServer&) = delete;
  ShmServer& operator=(const ShmServer&) = delete;

  const std::string& shm_name() const { return shm_name_; }

  /// Slots reclaimed because the owning client died (test/ops counter;
  /// also exported as shm.slots.reclaimed).
  std::uint64_t slots_reclaimed() const {
    return slots_reclaimed_.load(std::memory_order_relaxed);
  }

 private:
  ShmServer(std::string shm_name, const Options& options,
            FrameHandler handler);

  Status Init();
  void PollLoop();
  /// One pass over every slot; returns true if any byte or state moved.
  bool SweepOnce();
  /// Drains one active slot's request ring; returns true on progress.
  bool ServiceSlot(std::uint32_t index);
  void ReclaimSlot(std::uint32_t index, bool client_died);
  bool ClientAlive(std::uint32_t index) const;

  struct SlotRuntime;  // per-slot decoder + conn state (server private)

  std::string shm_name_;
  Options options_;
  FrameHandler handler_;
  void* base_ = nullptr;
  std::size_t map_bytes_ = 0;
  std::vector<std::unique_ptr<SlotRuntime>> runtime_;
  std::thread poller_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> slots_reclaimed_{0};
  Counter* polls_ = nullptr;
  Counter* wraps_ = nullptr;
  Counter* reclaims_ = nullptr;
};

/// Client side of the shm transport: attach to a serving segment, send
/// encoded frames, and poll decoded frames back. One attachment per
/// object; not thread-safe (RecClient serializes sends and runs one
/// reader, exactly as it does for a socket).
class ShmClient {
 public:
  struct Options {
    std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
    MetricsRegistry* metrics = nullptr;  ///< optional; may be null
  };

  /// Attaches to `shm_name` and claims a free slot. Fails Unavailable
  /// if the segment is missing or the server is down, ResourceExhausted
  /// if every slot is taken.
  static StatusOr<std::unique_ptr<ShmClient>> Attach(
      const std::string& shm_name, const Options& options);

  ~ShmClient();
  ShmClient(const ShmClient&) = delete;
  ShmClient& operator=(const ShmClient&) = delete;

  /// Writes one encoded frame into the request ring, waiting for ring
  /// space up to `deadline_ms` (SteadyMillis clock).
  Status Send(std::string_view bytes, std::int64_t deadline_ms);

  /// Returns the next complete response frame, polling the response
  /// ring until `deadline_ms`. NotFound when the deadline passes with
  /// no complete frame (poll again); Unavailable on server exit, slot
  /// reclaim, or ShutdownRead; Corruption if framing is lost.
  StatusOr<Frame> NextFrame(std::int64_t deadline_ms);

  /// Unblocks a concurrent NextFrame poll (used by Disconnect).
  void ShutdownRead();

  /// Test hooks for the kill-9-mid-request drill (tests only). Raw
  /// write skips ring-space waiting and allocation so it is safe in a
  /// forked child; abandon drops the mapping without announcing a
  /// close, leaving the slot exactly as a SIGKILL would.
  void TestOnlySetSlotPid(std::uint64_t pid);
  bool TestOnlyWriteRaw(const char* data, std::size_t len);
  void TestOnlyAbandon();

 private:
  ShmClient(std::string shm_name, const Options& options);

  Status AttachLocked();
  bool SlotStillMine() const;

  std::string shm_name_;
  Options options_;
  void* base_ = nullptr;
  std::size_t map_bytes_ = 0;
  std::uint32_t slot_index_ = 0;
  std::uint32_t generation_ = 0;
  FrameDecoder decoder_;
  bool claimed_ = false;
  bool abandoned_ = false;
  std::atomic<bool> shutdown_{false};
  Counter* polls_ = nullptr;
  Counter* wraps_ = nullptr;
};

}  // namespace rtrec

#endif  // RTREC_NET_SHM_TRANSPORT_H_
