#pragma once
// Deterministic instrumentation capture for parallel engine sections.
//
// The Instrument's simulators are *stateful* (gshare branch predictor,
// set-associative LRU caches, the co-runner interference ring), so its
// counter totals depend on the order events arrive. Sharding one Instrument
// per worker would make totals a function of the thread count — exactly what
// the determinism guarantee forbids. Instead, a parallel section records its
// events as EventLog spans (one per routed connection / per level chunk)
// into per-worker-slot EventArenas, and the engine replays the spans into
// the single shared Instrument serially, in an order fixed by the algorithm
// (commit order, chunk order). The simulators then see a bit-identical
// event stream at any thread count.
//
// An arena is a list of fixed-size blocks that outlives the rounds of a
// section: clear() rewinds it and keeps the blocks, so steady-state
// recording allocates nothing and a full block is never copied. Integer,
// FP and AVX op counts drive no simulator state, so a span keeps them as
// three sums instead of events.
//
// Uninstrumented runs pass a null log pointer and skip recording entirely,
// so measured-speedup flows pay nothing for this machinery.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace edacloud::perf {

/// One recorded memory or branch event. Packed to 16 bytes; `a` holds the
/// address / branch site, `b` the private-stream id or the taken flag.
struct PerfEvent {
  enum class Kind : std::uint8_t {
    kLoad,
    kStore,
    kLoadPrivate,
    kBranch,
  };

  std::uint64_t a = 0;
  std::uint32_t b = 0;
  Kind kind = Kind::kLoad;
};

/// Append-only event storage in fixed-size blocks, owned by one worker
/// slot. Only the thread driving that slot appends to it.
class EventArena {
 public:
  static constexpr std::size_t kBlockEvents = 4096;  // 64 KiB per block

  void push(const PerfEvent& event) {
    if (next_ == end_) next_block();
    *next_++ = event;
  }

  /// Events appended since the last clear().
  [[nodiscard]] std::size_t size() const {
    if (next_ == nullptr) return 0;
    return block_ * kBlockEvents +
           static_cast<std::size_t>(next_ - blocks_[block_].get());
  }

  /// Forget every event; the blocks stay for reuse.
  void clear() {
    block_ = 0;
    next_ = end_ = nullptr;
  }

  /// Calls fn(event) for the events [begin, end), in append order.
  template <typename Fn>
  void for_each(std::size_t begin, std::size_t end, Fn&& fn) const {
    while (begin < end) {
      const std::size_t block = begin / kBlockEvents;
      const std::size_t first = block * kBlockEvents;
      const std::size_t stop = std::min(end, first + kBlockEvents);
      const PerfEvent* events = blocks_[block].get();
      for (std::size_t i = begin - first; i < stop - first; ++i) {
        fn(events[i]);
      }
      begin = stop;
    }
  }

 private:
  void next_block() {
    if (next_ != nullptr) ++block_;
    if (block_ == blocks_.size()) {
      blocks_.push_back(std::make_unique<PerfEvent[]>(kBlockEvents));
    }
    next_ = blocks_[block_].get();
    end_ = next_ + kBlockEvents;
  }

  std::vector<std::unique_ptr<PerfEvent[]>> blocks_;
  std::size_t block_ = 0;  // block holding the cursor
  PerfEvent* next_ = nullptr;
  PerfEvent* end_ = nullptr;
};

/// One contiguous span [begin, end) of an EventArena plus the span's
/// arithmetic-op sums, mirroring the Instrument reporting surface. While a
/// log records, nothing else may append to its arena.
class EventLog {
 public:
  EventLog() = default;
  explicit EventLog(EventArena& arena)
      : arena_(&arena), begin_(arena.size()), end_(begin_) {}

  void load(std::uint64_t address) { append(PerfEvent::Kind::kLoad, address, 0); }
  void store(std::uint64_t address) {
    append(PerfEvent::Kind::kStore, address, 0);
  }
  void load_private(std::uint64_t address, std::uint32_t stream) {
    append(PerfEvent::Kind::kLoadPrivate, address, stream);
  }
  void branch(std::uint64_t site, bool taken) {
    append(PerfEvent::Kind::kBranch, site, taken ? 1U : 0U);
  }
  void int_ops(std::uint64_t n) { int_ops_ += n; }
  void fp_ops(std::uint64_t n) { fp_ops_ += n; }
  void avx_ops(std::uint64_t n) { avx_ops_ += n; }

  /// Recorded memory and branch events (op sums are not events).
  [[nodiscard]] std::size_t size() const { return end_ - begin_; }

  [[nodiscard]] std::uint64_t int_op_count() const { return int_ops_; }
  [[nodiscard]] std::uint64_t fp_op_count() const { return fp_ops_; }
  [[nodiscard]] std::uint64_t avx_op_count() const { return avx_ops_; }

  /// Calls fn(event) for each recorded event, in recording order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    if (arena_ != nullptr) arena_->for_each(begin_, end_, fn);
  }

 private:
  void append(PerfEvent::Kind kind, std::uint64_t a, std::uint32_t b) {
    arena_->push(PerfEvent{a, b, kind});
    ++end_;
  }

  EventArena* arena_ = nullptr;
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
  std::uint64_t int_ops_ = 0;
  std::uint64_t fp_ops_ = 0;
  std::uint64_t avx_ops_ = 0;
};

}  // namespace edacloud::perf
