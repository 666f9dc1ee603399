#include "ddl/cachesim/cache.hpp"

#include <functional>

#include "ddl/common/check.hpp"
#include "ddl/common/mathutil.hpp"

namespace ddl::cache {

void CacheConfig::validate() const {
  // Every check runs before the arithmetic it guards: a zero or non-pow2
  // line size would otherwise flow silently into lines()/sets() division
  // and produce a structurally broken (but constructible) cache.
  DDL_REQUIRE(size_bytes > 0, "cache size is zero");
  DDL_REQUIRE(line_bytes > 0 && is_pow2(static_cast<index_t>(line_bytes)),
              "line size must be a non-zero power of two, got " + std::to_string(line_bytes));
  DDL_REQUIRE(size_bytes >= line_bytes && size_bytes % line_bytes == 0,
              "cache size must be a multiple of the line size, got " +
                  std::to_string(size_bytes) + " / " + std::to_string(line_bytes));
  DDL_REQUIRE(associativity >= 0, "associativity must be >= 0 (0 = fully associative), got " +
                                      std::to_string(associativity));
  DDL_REQUIRE(lines() % ways() == 0, "ways (" + std::to_string(ways()) +
                                         ") must divide the line count (" +
                                         std::to_string(lines()) + ")");
  DDL_REQUIRE(is_pow2(static_cast<index_t>(sets())),
              "set count must be a power of two, got " + std::to_string(sets()));
  DDL_REQUIRE(stream_table >= 1, "stream table must hold at least one entry");
}

Cache::Cache(const CacheConfig& config) : config_(config) {
  config.validate();
  ways_ = config.ways();
  sets_ = config.sets();
  lines_.assign(sets_ * ways_, Line{});
  if (config_.prefetch == Prefetch::stream) {
    streams_.assign(static_cast<std::size_t>(config_.stream_table), Stream{});
  }
}

bool Cache::access(std::uint64_t addr, bool is_write) {
  ++stats_.accesses;
  if (is_write) {
    ++stats_.writes;
  } else {
    ++stats_.reads;
  }
  ++tick_;

  const std::uint64_t line_addr = addr / config_.line_bytes;
  const std::size_t set = static_cast<std::size_t>(line_addr) & (sets_ - 1);
  const std::uint64_t tag = line_addr / sets_;
  Line* set_base = lines_.data() + set * ways_;

  if (config_.prefetch == Prefetch::stream) train_streams(line_addr);

  // The shadow must see every demand access (hits included): it tracks what
  // a fully-associative cache of the same capacity would hold.
  const bool fa_hit = config_.split_remiss && shadow_touch(line_addr);

  // Hit path: scan the (small) set.
  for (std::size_t w = 0; w < ways_; ++w) {
    Line& line = set_base[w];
    if (line.valid && line.tag == tag) {
      if (config_.replacement == Replacement::lru) line.stamp = tick_;
      if (line.prefetched) {
        line.prefetched = false;
        ++stats_.prefetch_hits;
      }
      return true;
    }
  }

  // Miss: classify, then fill (write-allocate) evicting LRU/FIFO victim.
  ++stats_.misses;
  if (touched_.insert(line_addr).second) {
    ++stats_.compulsory_misses;
  } else if (config_.split_remiss && !fa_hit) {
    // The fully-associative shadow missed too: capacity, not mapping.
    ++stats_.capacity_misses;
  } else {
    ++stats_.conflict_misses;
  }

  Line* victim = set_base;
  for (std::size_t w = 0; w < ways_; ++w) {
    Line& line = set_base[w];
    if (!line.valid) {
      victim = &line;
      break;
    }
    if (line.stamp < victim->stamp) victim = &line;
  }
  if (victim->valid) ++stats_.evictions;
  victim->valid = true;
  victim->tag = tag;
  victim->stamp = tick_;  // both policies stamp on fill; LRU also re-stamps on hit
  victim->prefetched = false;

  if (config_.prefetch == Prefetch::next_line) prefetch_fill(line_addr + 1);
  return false;
}

bool Cache::shadow_touch(std::uint64_t line_addr) {
  if (auto it = shadow_pos_.find(line_addr); it != shadow_pos_.end()) {
    shadow_lru_.splice(shadow_lru_.end(), shadow_lru_, it->second);  // move to MRU
    return true;
  }
  shadow_pos_.emplace(line_addr, shadow_lru_.insert(shadow_lru_.end(), line_addr));
  if (shadow_lru_.size() > config_.lines()) {
    shadow_pos_.erase(shadow_lru_.front());
    shadow_lru_.pop_front();
  }
  return false;
}

bool Cache::prefetch_fill(std::uint64_t line_addr) {
  const std::size_t set = static_cast<std::size_t>(line_addr) & (sets_ - 1);
  const std::uint64_t tag = line_addr / sets_;
  Line* set_base = lines_.data() + set * ways_;
  for (std::size_t w = 0; w < ways_; ++w) {
    if (set_base[w].valid && set_base[w].tag == tag) return false;  // already resident
  }
  Line* victim = set_base;
  for (std::size_t w = 0; w < ways_; ++w) {
    Line& line = set_base[w];
    if (!line.valid) {
      victim = &line;
      break;
    }
    if (line.stamp < victim->stamp) victim = &line;
  }
  if (victim->valid) ++stats_.evictions;
  victim->valid = true;
  victim->tag = tag;
  victim->stamp = tick_;
  victim->prefetched = true;
  touched_.insert(line_addr);  // a later demand hit is not a compulsory miss
  if (config_.split_remiss) shadow_touch(line_addr);  // shadow mirrors residency
  ++stats_.prefetch_fills;
  return true;
}

void Cache::train_streams(std::uint64_t line_addr) {
  // Streams are keyed by memory region (real prefetchers track a stream per
  // page-ish region and never follow arbitrarily large strides): interleaved
  // streams in different regions train independently; a walk whose stride
  // exceeds the region size defeats the prefetcher, as on real hardware.
  const std::uint64_t region = line_addr / static_cast<std::uint64_t>(config_.region_lines);
  for (auto& s : streams_) {
    if (!s.valid || s.region != region) continue;
    const std::int64_t delta =
        static_cast<std::int64_t>(line_addr) - static_cast<std::int64_t>(s.last_line);
    if (delta == 0) return;  // same line again: nothing to learn
    if (delta == s.delta) {
      if (s.confidence < 3) ++s.confidence;
    } else {
      s.delta = delta;
      s.confidence = 1;
    }
    s.last_line = line_addr;
    if (s.confidence >= 2) {
      // Run ahead by two deltas, like real degree-2 stream engines.
      prefetch_fill(line_addr + static_cast<std::uint64_t>(s.delta));
      prefetch_fill(line_addr + 2 * static_cast<std::uint64_t>(s.delta));
    }
    return;
  }
  // Allocate a fresh entry round-robin.
  Stream& s = streams_[stream_rr_];
  stream_rr_ = (stream_rr_ + 1) % streams_.size();
  s.valid = true;
  s.region = region;
  s.last_line = line_addr;
  s.delta = 0;
  s.confidence = 0;
}

void Cache::access_range(std::uint64_t addr, std::size_t bytes, bool is_write) {
  if (bytes == 0) return;
  const std::uint64_t first = addr / config_.line_bytes;
  const std::uint64_t last = (addr + bytes - 1) / config_.line_bytes;
  for (std::uint64_t line = first; line <= last; ++line) {
    access(line * config_.line_bytes, is_write);
  }
}

void Cache::reset() {
  lines_.assign(sets_ * ways_, Line{});
  if (config_.prefetch == Prefetch::stream) {
    streams_.assign(static_cast<std::size_t>(config_.stream_table), Stream{});
  }
  stream_rr_ = 0;
  tick_ = 0;
  stats_ = CacheStats{};
  touched_.clear();
  shadow_lru_.clear();
  shadow_pos_.clear();
}

Cache::State Cache::state() const {
  return State{lines_, std::vector<std::uint64_t>(shadow_lru_.begin(), shadow_lru_.end())};
}

namespace {

/// op(a.f, b.f) for every counter f.
template <class Op>
CacheStats counterwise(const CacheStats& a, const CacheStats& b, Op op) {
  return {.accesses = op(a.accesses, b.accesses),
          .reads = op(a.reads, b.reads),
          .writes = op(a.writes, b.writes),
          .misses = op(a.misses, b.misses),
          .compulsory_misses = op(a.compulsory_misses, b.compulsory_misses),
          .conflict_misses = op(a.conflict_misses, b.conflict_misses),
          .capacity_misses = op(a.capacity_misses, b.capacity_misses),
          .evictions = op(a.evictions, b.evictions),
          .prefetch_fills = op(a.prefetch_fills, b.prefetch_fills),
          .prefetch_hits = op(a.prefetch_hits, b.prefetch_hits)};
}

}  // namespace

CacheStats operator+(const CacheStats& a, const CacheStats& b) {
  return counterwise(a, b, std::plus<>());
}

CacheStats operator-(const CacheStats& a, const CacheStats& b) {
  return counterwise(a, b, std::minus<>());
}

CacheStats operator*(const CacheStats& a, std::uint64_t k) {
  return counterwise(a, a, [k](std::uint64_t x, std::uint64_t) { return x * k; });
}

}  // namespace ddl::cache
