// Live time-series streaming (telemetry layer 5).
//
// Layers 1–4 only materialize at process exit; this layer lets an operator
// watch a *running* simulation.  The step loop pushes one fixed-size
// StreamRecord per BD step into a lock-free SPSC ring; a dedicated writer
// thread drains the ring, aggregates records into windows of
// HBD_STREAM_INTERVAL steps, and appends one NDJSON (or CSV) line per
// window to HBD_STREAM=<path>.  The producer side never blocks and never
// touches the filesystem: when the ring is full the record is dropped and
// counted (visible as `stream.dropped` in the registry and a "dropped"
// field on every window line).
//
// Schema (docs/observability.md §Layer 5): the first line is a header
// object embedding the run manifest; every subsequent line is one window:
//
//   {"schema":"hbd.stream.v1","kind":"window","window":W,
//    "step_first":F,"step_last":L,"steps":N,
//    "wall":{"sum":s,"min":m,"max":M},"phases":{"fft":...,...},
//    "krylov_iters":K,"rebuilds":R,"rebuild_fraction":fr,"e_p":e,
//    "rng_draws":D,"dropped":d}
//
// Everything observes nothing under -DHBD_TELEMETRY=OFF: from_env()
// returns nullptr, so no ring, no thread, no clock reads.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace hbd::obs {

/// Phase slots of a stream record, in emission order.  Mirrors the phase
/// names of PmeOperator::timers() plus the near-field sampling bucket.
inline constexpr std::size_t kStreamPhases = 7;
extern const std::array<std::string_view, kStreamPhases> kStreamPhaseNames;

/// One BD step's worth of series data.  POD — copied into the ring by
/// value, so the producer holds no references after push() returns.
struct StreamRecord {
  std::uint64_t step = 0;
  double wall_seconds = 0.0;  ///< this step's wall time
  /// Per-phase seconds accumulated *this step* (deltas of the operator's
  /// cumulative timers), indexed like kStreamPhaseNames.
  double phase_seconds[kStreamPhases] = {0, 0, 0, 0, 0, 0, 0};
  double krylov_iters = 0.0;      ///< iterations when this step rebuilt, 0 otherwise
  double e_p = -1.0;              ///< last e_p probe value (< 0: none yet)
  double rebuild_fraction = -1.0; ///< cells rebuilt / total (< 0: no rebuild)
  bool rebuilt = false;           ///< mobility rebuilt on this step
  std::uint64_t rng_draws = 0;    ///< trajectory-stream draw counter
  /// Active mobility tier as a MobilityTier enum value (< 0: unknown —
  /// e.g. records produced before the first rebuild).
  double tier = -1.0;
};

/// Background NDJSON/CSV window writer over a lock-free SPSC ring.
///
/// Threading contract: exactly one producer (the step loop) calls push();
/// the internal writer thread is the only consumer.  stop() (or the
/// destructor) drains the ring, flushes the final partial window, and joins
/// the thread; it is safe to call from the producer thread.
class StreamWriter {
 public:
  struct Options {
    std::string path;           ///< output file; empty → writer disabled
    std::size_t interval = 10;  ///< steps aggregated per emitted window
    bool csv = false;           ///< CSV instead of NDJSON
    std::size_t capacity = 4096;///< ring slots (rounded up to a power of 2)
    /// Writer-thread poll period while the ring is empty, microseconds.
    long poll_us = 2000;
  };

  /// Builds a writer from HBD_STREAM (path), HBD_STREAM_INTERVAL (steps per
  /// window) and HBD_STREAM_FORMAT ("csv"/"ndjson"; default from the path
  /// extension).  Returns nullptr when HBD_STREAM is unset, empty, or the
  /// build has telemetry compiled out.
  static std::unique_ptr<StreamWriter> from_env();

  /// Opens the output and starts the writer thread; the header line (or CSV
  /// header row) is written synchronously so open failures surface here
  /// (ok() == false — push() then drops everything silently).
  explicit StreamWriter(Options opts);
  ~StreamWriter();

  StreamWriter(const StreamWriter&) = delete;
  StreamWriter& operator=(const StreamWriter&) = delete;

  /// Producer side: O(1), lock-free, never blocks, never does I/O.
  /// Returns false (and counts a drop) when the ring is full.
  bool push(const StreamRecord& rec);

  /// Drains, flushes the final partial window, joins the writer thread.
  /// Idempotent.
  void stop();

  bool ok() const { return ok_; }
  const Options& options() const { return opts_; }
  std::uint64_t pushed() const {
    return pushed_.load(std::memory_order_relaxed);
  }
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  std::uint64_t windows_written() const {
    return windows_.load(std::memory_order_relaxed);
  }

 private:
  struct Window;  // aggregation state, writer-thread-only

  void run();                       // writer thread main
  std::size_t drain(Window& w);     // consume available records
  void emit(Window& w);             // write one window line
  void write_header();

  Options opts_;
  bool ok_ = false;
  std::ofstream out_;

  // SPSC ring: head_ is the producer's next write slot, tail_ the
  // consumer's next read slot; both increase monotonically (slot = index &
  // mask).  Producer: load tail acquire, store head release.  Consumer:
  // load head acquire, store tail release.
  std::vector<StreamRecord> ring_;
  std::size_t mask_ = 0;
  std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint64_t> tail_{0};

  std::atomic<std::uint64_t> pushed_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> windows_{0};

  std::mutex mu_;  // guards stop_ for the cv
  std::condition_variable cv_;
  bool stop_requested_ = false;
  bool stopped_ = false;
  std::thread writer_;
};

}  // namespace hbd::obs
