// Crash-tolerant IPC for the multi-process sweep: length-prefixed,
// checksummed frames over a socketpair, plus worker-process spawning.
//
// Frame layout (all little-endian, fixed 24-byte header):
//
//   [u32 magic "PSW1"] [u32 type] [u64 payload length] [u64 FNV-1a-64
//   checksum of the payload] [payload bytes]
//
// The checksum is what makes a truncated write, an interleaved write from
// a dying worker, or an injected corruption ("ipc.frame" fault site)
// DETECTABLE instead of silently parsed: the coordinator treats a corrupt
// frame exactly like a worker crash — kill, respawn, retry the
// outstanding scenarios under the per-scenario budget. Nothing downstream
// ever consumes unverified bytes (util/wire.hpp re-validates lengths
// inside the payload on top of this).
//
// Transport: one AF_UNIX stream socketpair per worker, the child end
// dup2'd onto the worker's stdin AND stdout. A socketpair (not a pipe)
// because the parent writes with send(MSG_NOSIGNAL) — a dead worker then
// yields EPIPE instead of a process-killing SIGPIPE, without mutating
// global signal disposition. Workers use blocking reads/writes; the
// parent runs its ends non-blocking under poll() (process_sweep.cpp).
//
// Linux-only by charter (spawning via posix_spawn, /proc/self/exe for the
// re-entry path); the library proper stays portable — only the process
// sweep depends on this header.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace psmn {

inline constexpr uint32_t kIpcMagic = 0x31575350;  // "PSW1"
/// Bumped on any wire-format change; exchanged in the hello frame so a
/// stale worker binary fails loudly instead of misparsing. Version 2
/// dropped the backend fields from the TranOptions codec and carries the
/// stamp_tape_misses counter in the captured-counter block. Version 3
/// dropped the two batched-evaluation counters, so the captured-counter
/// block in each result frame is two entries shorter. Version 4 adds the
/// Newton-predictor switch to the TranOptions codec and the two predictor
/// counters to the SolveStats codec.
inline constexpr uint32_t kIpcProtocolVersion = 4;
/// Upper bound on a frame payload; a corrupt length past this is rejected
/// before any allocation.
inline constexpr uint64_t kIpcMaxPayload = uint64_t{1} << 30;

/// FNV-1a 64-bit over the payload bytes.
uint64_t ipcChecksum(std::string_view payload);

/// Assembles a complete frame. Probes the "ipc.frame" fault site (and
/// honors `forceCorrupt`, the worker-side injection path, where fault
/// scopes cannot reach — see util/fault_injection.hpp): a firing probe
/// flips checksum bits so the receiver classifies the frame as corrupt.
std::string buildFrame(uint32_t type, std::string_view payload,
                       bool forceCorrupt = false);

/// Incremental frame parser over a byte stream fed in arbitrary chunks
/// (the parent's non-blocking reads). One instance per connection.
class FrameParser {
 public:
  enum class Status {
    kNeedMore,  // no complete frame buffered yet
    kFrame,     // a verified frame was produced
    kCorrupt,   // bad magic / implausible length / checksum mismatch
  };

  void feed(const char* data, size_t n) { buf_.append(data, n); }

  /// Extracts the next verified frame. After kCorrupt the stream is
  /// unrecoverable by design — resynchronizing inside a byte stream can
  /// misparse attacker- or garbage-controlled data; the caller kills the
  /// connection instead.
  Status next(uint32_t& type, std::string& payload);

  size_t buffered() const { return buf_.size(); }

 private:
  std::string buf_;
  bool corrupt_ = false;
};

/// Blocking single-frame read for the worker side. `parser` is the
/// connection's persistent parser — reads land in it, so bytes beyond the
/// returned frame stay buffered for the next call (frames arrive in
/// bursts; a per-call parser would silently drop them). Returns false on
/// clean EOF; throws Error on a corrupt frame or I/O error (a worker with
/// a corrupt inbound stream cannot do anything useful but die — the
/// parent treats the death as the failure signal).
bool readFrameBlocking(int fd, FrameParser& parser, uint32_t& type,
                       std::string& payload);

/// Blocking full write of one frame. Returns false when the peer is gone
/// (EPIPE/ECONNRESET); throws Error on other I/O errors.
bool writeFrameBlocking(int fd, uint32_t type, std::string_view payload,
                        bool forceCorrupt = false);

/// A spawned worker process and the parent's end of its socketpair.
struct ChildProcess {
  pid_t pid = -1;
  int fd = -1;  // parent end: read results, write commands
};

/// Spawns `exe args...` with the child end of a fresh socketpair dup2'd
/// onto the child's fd 0 and 1 (stderr passes through for diagnostics).
/// The parent end is returned O_NONBLOCK. Throws Error on spawn failure.
ChildProcess spawnWorkerProcess(const std::string& exe,
                                const std::vector<std::string>& args);

/// SIGKILLs (if still alive) and reaps the child; returns the raw waitpid
/// status, or -1 if the child could not be reaped. Closes nothing — the
/// caller owns the fd.
int killAndReapChild(pid_t pid);

/// Reaps without killing (for children expected to exit on their own
/// after a shutdown frame); falls back to SIGKILL after `graceMs`.
int reapChild(pid_t pid, int graceMs);

/// Human-readable waitpid status ("exit code 86", "signal 9 (SIGKILL)").
std::string describeWaitStatus(int status);

/// Absolute path of the running executable (/proc/self/exe); the default
/// worker re-entry binary.
std::string selfExecutablePath();

}  // namespace psmn
