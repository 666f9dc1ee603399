#pragma once
/// \file cache.hpp
/// \brief Trace-driven cache model — the substitute for the SUN Shade
///        simulator used in the paper's Sec. V-A study.
///
/// Models a single cache level with configurable capacity, line size,
/// associativity (1 = direct-mapped, 0 = fully associative) and LRU or FIFO
/// replacement. Misses are classified as compulsory (first-ever touch of a
/// line) or conflict/capacity (re-miss of a previously resident line) — the
/// distinction the paper's Sec. III-B analysis is about.
///
/// Addresses are plain byte addresses; the trace generator (src/sim) and the
/// per-stage predictor (verify::cachepred) feed synthetic addresses derived
/// from element indices. This is the repository's only cache simulator.

#include <cstdint>
#include <list>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ddl/common/types.hpp"

namespace ddl::cache {

/// Replacement policy within a set.
enum class Replacement { lru, fifo };

/// Hardware prefetcher model.
///
/// The paper's 1999-2002 machines had none worth modelling; modern CPUs
/// track many concurrent strided streams, which is precisely what softens
/// the large-stride penalty the paper exploits. Modelling it lets the
/// simulator span both eras (see bench/ablation_prefetch).
enum class Prefetch {
  none,       ///< demand fetches only (the paper's era)
  next_line,  ///< on a demand miss, also fill the next line
  stream,     ///< stride-stream detector over `stream_table` concurrent streams
};

/// Geometry and policy of one cache level.
struct CacheConfig {
  std::size_t size_bytes = 512 * 1024;  ///< paper default: 512 KB
  std::size_t line_bytes = 64;          ///< paper: 16–128 B swept; 64 B typical
  int associativity = 1;                ///< 1 = direct-mapped; 0 = fully assoc.
  Replacement replacement = Replacement::lru;
  Prefetch prefetch = Prefetch::none;
  int stream_table = 16;  ///< tracked streams for Prefetch::stream

  /// Split the lumped re-miss class into true capacity vs. conflict misses
  /// using a fully-associative LRU shadow of the same total line count: a
  /// re-miss that would also miss fully-associatively is a capacity miss,
  /// anything else is a conflict the set mapping manufactured. Off by
  /// default — the shadow costs memory and the legacy `conflict_misses`
  /// field then keeps its historical lumped meaning, so default output is
  /// byte-identical.
  bool split_remiss = false;

  [[nodiscard]] std::size_t lines() const { return size_bytes / line_bytes; }
  [[nodiscard]] std::size_t ways() const {
    return associativity == 0 ? lines() : static_cast<std::size_t>(associativity);
  }
  [[nodiscard]] std::size_t sets() const { return lines() / ways(); }

  /// Validate the geometry before any `sets()` arithmetic runs on it:
  /// power-of-two line size, sizes non-zero and line-aligned, ways dividing
  /// the line count, power-of-two set count, non-empty stream table. Throws
  /// std::invalid_argument with the offending value and the file:line of
  /// the failed check. Cache's constructor calls this; call it directly
  /// when a config travels a long way (CLI flags, analyze options) before
  /// a Cache is ever built.
  void validate() const;
};

/// Running counters.
struct CacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t misses = 0;
  std::uint64_t compulsory_misses = 0;  ///< first-ever touch of the line
  std::uint64_t conflict_misses = 0;    ///< re-miss: conflict + capacity lumped
                                        ///< by default; true conflicts only
                                        ///< under CacheConfig::split_remiss
  std::uint64_t capacity_misses = 0;    ///< re-miss the fully-associative
                                        ///< shadow would also take (0 unless
                                        ///< CacheConfig::split_remiss)
  std::uint64_t evictions = 0;
  std::uint64_t prefetch_fills = 0;     ///< lines brought in by the prefetcher
  std::uint64_t prefetch_hits = 0;      ///< first demand hit on a prefetched line

  [[nodiscard]] std::uint64_t hits() const { return accesses - misses; }
  [[nodiscard]] double miss_rate() const {
    return accesses == 0 ? 0.0 : static_cast<double>(misses) / static_cast<double>(accesses);
  }
};

/// Counter-by-counter sum: totals over passes.
CacheStats operator+(const CacheStats& a, const CacheStats& b);

/// One cache level.
class Cache {
 public:
  explicit Cache(const CacheConfig& config);

  /// Touch `addr` (byte address). Returns true on hit. `is_write` only
  /// affects the read/write counters: the model is write-allocate, so reads
  /// and writes miss identically.
  bool access(std::uint64_t addr, bool is_write = false);

  [[nodiscard]] const CacheConfig& config() const noexcept { return config_; }
  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }

 private:
  struct Line {
    std::uint64_t tag = 0;
    std::uint64_t stamp = 0;  ///< LRU: last-use tick; FIFO: fill tick
    bool valid = false;
    bool prefetched = false;  ///< filled by the prefetcher, not yet demanded
  };

  struct Stream {
    std::uint64_t region = 0;  ///< line_addr / kRegionLines this stream lives in
    std::uint64_t last_line = 0;
    std::int64_t delta = 0;
    int confidence = 0;
    bool valid = false;
  };

  /// Insert a line without touching the demand counters. Returns true if a
  /// fill happened (line was absent).
  bool prefetch_fill(std::uint64_t line_addr);

  void train_streams(std::uint64_t line_addr);

  /// Touch the fully-associative LRU shadow (split_remiss only). Returns
  /// true iff the line was already resident there — i.e. a concurrent
  /// fully-associative cache of the same capacity would have hit.
  bool shadow_touch(std::uint64_t line_addr);

  CacheConfig config_;
  std::size_t sets_;
  std::size_t ways_;
  std::vector<Line> lines_;  ///< sets_ x ways_, row-major by set
  std::vector<Stream> streams_;
  std::size_t stream_rr_ = 0;  ///< round-robin allocation cursor
  std::uint64_t tick_ = 0;
  CacheStats stats_;
  std::unordered_set<std::uint64_t> touched_;  ///< lines ever seen (compulsory)

  // Fully-associative LRU shadow (split_remiss only): list is LRU -> MRU
  // order, map is line -> list position for O(1) touch.
  std::list<std::uint64_t> shadow_lru_;
  std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator> shadow_pos_;
};

}  // namespace ddl::cache
