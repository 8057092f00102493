#ifndef FEDAQP_OBS_TRACE_H_
#define FEDAQP_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace fedaqp {
namespace obs {

/// One completed span, recorded at its end. Spans on one thread are
/// properly nested (RAII guards), which is what lets the exporter emit
/// balanced Chrome B/E pairs per thread.
struct TraceSpan {
  /// Display name, e.g. "q3/estimate/p1" (TaskKey::ToString) or
  /// "rpc/approximate".
  std::string name;
  /// Event category: "task", "admission", "rpc", "server", ...
  std::string cat;
  /// Correlation id — the provider session / query id both sides of an
  /// RPC share, so client send and server recv line up in the viewer.
  uint64_t session = 0;
  /// Recording thread (hashed std::thread::id).
  uint64_t tid = 0;
  /// Microseconds since the recorder's process-wide epoch.
  double start_us = 0.0;
  double dur_us = 0.0;
  /// Nesting depth on the recording thread when the span opened.
  uint32_t depth = 0;
};

/// Bounded in-memory span recorder with Chrome trace-event JSON export.
///
/// Disabled (the default), every instrumentation site reduces to the
/// inline TracingEnabled() load — no allocation, no lock, no clock read.
/// Enabled, spans land in a mutex-guarded ring that drops the oldest
/// record once `capacity` is reached, so memory stays bounded no matter
/// how long tracing runs.
///
/// Tracing never perturbs determinism: it reads wall clocks and copies
/// names, but touches no RNG stream, no session-id assignment, and no
/// admission ordering — pinned by tests/determinism_matrix_test.cc.
class TraceRecorder {
 public:
  static TraceRecorder& Global();

  /// Flips span recording on/off (the inline TracingEnabled() flag).
  void SetEnabled(bool enabled);

  void Record(TraceSpan span);

  /// Drops every recorded span (dropped() resets too).
  void Clear();
  /// Replaces the ring capacity (and clears). Minimum 16.
  void SetCapacity(size_t capacity);

  size_t size() const;
  size_t capacity() const;
  /// Spans evicted by the ring since the last Clear().
  uint64_t dropped() const;

  /// Copy of the retained spans, oldest first (tests, summaries).
  std::vector<TraceSpan> Snapshot() const;

  /// Writes the retained spans as Chrome trace-event JSON ("traceEvents"
  /// array of balanced B/E pairs, ts-sorted) — loadable in Perfetto /
  /// chrome://tracing and validated by tools/trace_summary.py.
  Status ExportChromeTrace(const std::string& path) const;

  /// Microseconds since the recorder epoch (steady clock, shared by all
  /// threads so spans from different threads line up).
  static double NowMicros();

 private:
  TraceRecorder() = default;

  mutable std::mutex mutex_;
  std::deque<TraceSpan> ring_;
  size_t capacity_ = 1 << 16;
  uint64_t dropped_ = 0;
};

namespace internal {
/// Per-thread open-span count — gives TraceSpan::depth without walking
/// any structure.
extern thread_local uint32_t tls_span_depth;
uint64_t ThisThreadTraceId();
}  // namespace internal

/// RAII span guard. Construction checks the inline enabled flag once;
/// when tracing is off the guard is a no-op shell. The name is only
/// materialized when the span is live, so cold paths pay nothing for
/// string building either — pass a callable for lazy names.
class ScopedSpan {
 public:
  ScopedSpan(const char* cat, std::string name, uint64_t session = 0)
      : active_(TracingEnabled()) {
    if (!active_) return;
    span_.cat = cat;
    span_.name = std::move(name);
    span_.session = session;
    Open();
  }

  template <typename NameFn>
  ScopedSpan(const char* cat, NameFn&& name_fn, uint64_t session = 0,
             // SFINAE: only for callables, so string literals take the
             // overload above.
             decltype(std::declval<NameFn>()())* = nullptr)
      : active_(TracingEnabled()) {
    if (!active_) return;
    span_.cat = cat;
    span_.name = name_fn();
    span_.session = session;
    Open();
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Attaches the correlation id after construction (e.g. once a request
  /// has been decoded).
  void set_session(uint64_t session) {
    if (active_) span_.session = session;
  }

  bool active() const { return active_; }

  ~ScopedSpan() {
    if (!active_) return;
    --internal::tls_span_depth;
    span_.dur_us = TraceRecorder::NowMicros() - span_.start_us;
    TraceRecorder::Global().Record(std::move(span_));
  }

 private:
  void Open() {
    span_.tid = internal::ThisThreadTraceId();
    span_.depth = internal::tls_span_depth++;
    span_.start_us = TraceRecorder::NowMicros();
  }

  bool active_;
  TraceSpan span_;
};

}  // namespace obs
}  // namespace fedaqp

#endif  // FEDAQP_OBS_TRACE_H_
