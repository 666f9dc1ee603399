#include "ddl/verify/cachepred.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <optional>
#include <string_view>

#include "ddl/common/check.hpp"
#include "ddl/layout/reorg.hpp"

namespace ddl::verify::cachepred {

using layout::kTile;
using i64 = std::int64_t;
using u64 = std::uint64_t;

namespace {

std::vector<i64> zvec(std::size_t n) { return std::vector<i64>(n, 0); }

std::vector<i64> cat(std::vector<i64> v, std::initializer_list<i64> tail) {
  v.insert(v.end(), tail);
  return v;
}

std::vector<index_t> catl(std::vector<index_t> v, std::initializer_list<index_t> tail) {
  v.insert(v.end(), tail);
  return v;
}

/// Accesses one ref issues per full outer iteration of its pass.
u64 ref_per_iter(const StreamRef& r, index_t count) {
  if (count <= 0) return 0;
  if (r.once) return 1;
  return static_cast<u64>(r.skip_first_elem ? count - 1 : count);
}

/// Ancestors of the pass's node, read off its node_path: the number of
/// leading loops that are ancestor instance loops.
std::size_t node_depth(const AccessPass& pass) {
  return static_cast<std::size_t>(std::count(pass.node_path.begin(), pass.node_path.end(), '.'));
}

/// End of the run of passes from `i` on (before `hi`) that belong to the
/// same child of a node at `depth` as passes[i].
std::size_t child_end(const std::vector<AccessPass>& passes, std::size_t i, std::size_t hi,
                      std::size_t depth) {
  // The child's own path: passes[i]'s path cut before its (depth + 2)-th dot.
  const std::string& path = passes[i].node_path;
  std::size_t cut = 0;
  for (std::size_t dots = 0; dots < depth + 2 && cut != std::string::npos; ++dots) {
    cut = path.find('.', cut + 1);
  }
  const std::string_view child(path.data(), std::min(cut, path.size()));
  const auto inside = [&child](const std::string& p) {
    return p.starts_with(child) && (p.size() == child.size() || p[child.size()] == '.');
  };
  std::size_t j = i + 1;
  while (j < hi && inside(passes[j].node_path)) ++j;
  return j;
}

/// Execution order of passes[lo, hi): one node's passes with the ancestors'
/// instance indices pinned, each child's subtree instance by instance.
void visit_subtree(const std::vector<AccessPass>& passes, std::size_t lo, std::size_t hi,
                   std::vector<index_t>& pinned, const detail::PassVisit& visit) {
  const std::size_t depth = pinned.size();
  for (std::size_t i = lo; i < hi;) {
    const AccessPass& pass = passes[i];
    if (node_depth(pass) == depth) {
      visit(pass, pinned, pass.loops.size() > depth ? pass.loops[depth] : 1);
      ++i;
      continue;
    }
    const std::size_t end = child_end(passes, i, hi, depth);
    if (end == i + 1) {
      // A codelet leaf: its one pass already walks instance by instance.
      visit(pass, pinned, pass.loops[depth]);
    } else {
      for (index_t k = 0; k < pass.loops[depth]; ++k) {
        pinned.push_back(k);
        visit_subtree(passes, i, end, pinned, visit);
        pinned.pop_back();
      }
    }
    i = end;
  }
}

}  // namespace

namespace detail {

void check_arity(const AccessPass& pass) {
  for (const Sweep& sw : pass.sweeps) {
    for (const StreamRef& r : sw.refs) {
      DDL_REQUIRE(r.loop_step.size() == pass.loops.size(), "ref/loop arity mismatch");
      DDL_REQUIRE(r.mod_n == 0 || (r.mul_loop.size() == pass.loops.size() &&
                                   r.off_loop.size() == pass.loops.size()),
                  "modular ref/loop arity mismatch");
    }
  }
}

void for_each_visit(const std::vector<AccessPass>& passes, const PassVisit& visit) {
  for (const AccessPass& pass : passes) check_arity(pass);
  std::vector<index_t> pinned;
  visit_subtree(passes, 0, passes.size(), pinned, visit);
}

}  // namespace detail

std::uint64_t AccessPass::bytes_touched() const {
  u64 outer = 1;
  for (index_t c : loops) outer *= static_cast<u64>(std::max<index_t>(c, 0));
  u64 total = 0;
  for (const Sweep& sw : sweeps) {
    for (const StreamRef& r : sw.refs) {
      u64 iters = outer;
      if (r.skip_first_outer && !loops.empty()) {
        const index_t last = loops.back();
        if (last > 0) iters = iters / static_cast<u64>(last) * static_cast<u64>(last - 1);
      }
      total += iters * ref_per_iter(r, sw.count) * r.width;
    }
  }
  return total;
}

// ---------------------------------------------------------------------------
// Stage builders: the one description of where each executor stage reads
// and writes. enumerate_passes recurses over a plan with them, stage-major:
// each stage becomes ONE pass whose leading loops carry the ancestors'
// instance dimensions. primitive_passes calls them for one DP cost key.
// ---------------------------------------------------------------------------

namespace {

class Emitter {
 public:
  /// Outer context: ancestor instance-loop counts plus the byte step each
  /// applies to the node's data base. Scratch and twiddle regions never
  /// shift with instance loops, so their refs use a zero prefix instead.
  struct Ctx {
    std::vector<index_t> loops;
    std::vector<i64> bsteps;
  };

  /// `eb`-byte elements; twiddle regions are laid out from `tw_from` on,
  /// each aligned to `align` bytes.
  Emitter(std::size_t eb, bool tw_on, u64 tw_from, u64 align)
      : eb_(eb), tw_on_(tw_on), align_(align), next_region_(tw_from) {
    DDL_REQUIRE(eb_ > 0, "element size must be positive");
    DDL_REQUIRE(align_ > 0, "alignment must be positive");
  }

  std::vector<AccessPass> take() { return std::move(out_); }

  /// Codelet leaf: every point read, then every point written.
  void leaf(const std::string& path, const Ctx& c, index_t n, u64 b, index_t s) {
    const i64 se = static_cast<i64>(s) * static_cast<i64>(eb_);
    Sweep rd{n, {ref(false, b, c.bsteps, se)}};
    Sweep wr{n, {ref(true, b, c.bsteps, se)}};
    push(path, "leaf sweep", c, {}, {std::move(rd), std::move(wr)});
  }

  /// Stockham autosort leaf (FftExecutor::run_stockham): strided leaves pack
  /// into the arena and ping-pong within it; unit-stride leaves ping-pong
  /// between the data and the arena.
  void stockham(const std::string& path, const Ctx& c, index_t n, u64 b, index_t s, u64 arena) {
    const i64 eb = static_cast<i64>(eb_);
    const i64 se = static_cast<i64>(s) * eb;
    const u64 tw = tw_on_ ? tw_base(n) : 0;
    const std::vector<i64> z = zvec(c.loops.size());
    struct Buf {
      u64 base;
      const std::vector<i64>* pre;
    };
    Buf src{};
    Buf dst{};
    if (s > 1) {
      Sweep pack{n, {ref(false, b, c.bsteps, se), ref(true, arena, z, eb)}};
      push(path, "stockham pack", c, {}, {std::move(pack)});
      src = {arena, &z};
      dst = {arena + static_cast<u64>(n) * eb_, &z};
    } else {
      src = {b, &c.bsteps};
      dst = {arena, &z};
    }
    const Buf home = src;
    index_t half = n / 2;
    index_t sb = 1;
    index_t tstep = 1;
    int k = 0;
    while (half >= 1) {
      Sweep sw;
      sw.count = sb;
      if (tw_on_) {
        StreamRef t = ref(false, tw, cat(z, {tstep * eb}), 0);
        t.once = true;  // one table read per p, before the q loop
        sw.refs.push_back(std::move(t));
      }
      sw.refs.push_back(ref(false, src.base, cat(*src.pre, {sb * eb}), eb));
      sw.refs.push_back(
          ref(false, src.base + static_cast<u64>(sb) * static_cast<u64>(half) * eb_,
              cat(*src.pre, {sb * eb}), eb));
      sw.refs.push_back(ref(true, dst.base, cat(*dst.pre, {2 * sb * eb}), eb));
      sw.refs.push_back(
          ref(true, dst.base + static_cast<u64>(sb) * eb_, cat(*dst.pre, {2 * sb * eb}), eb));
      push(path, "stockham stage " + std::to_string(k), c, {half}, {std::move(sw)});
      std::swap(src, dst);
      half /= 2;
      sb *= 2;
      tstep *= 2;
      ++k;
    }
    if (src.base != home.base) {
      Sweep cp{n, {ref(false, src.base, *src.pre, eb), ref(true, home.base, *home.pre, eb)}};
      push(path, "stockham copy home", c, {}, {std::move(cp)});
    }
    if (s > 1) {
      Sweep un{n, {ref(false, arena, z, eb), ref(true, b, c.bsteps, se)}};
      push(path, "stockham unpack", c, {}, {std::move(un)});
    }
  }

  /// DDL gather of an n1 x n2 node at stride s into the packed arena.
  void reorg_gather(const std::string& path, const Ctx& c, index_t n1, index_t n2, u64 b,
                    index_t s, u64 arena) {
    transpose(path, "reorg gather", c, n1, n2, strided(c, n2, b, s), packed(c, n1, arena));
  }

  /// DDL scatter back from the packed arena.
  void reorg_scatter(const std::string& path, const Ctx& c, index_t n1, index_t n2, u64 b,
                     index_t s, u64 arena) {
    transpose(path, "reorg scatter", c, n1, n2, packed(c, n1, arena), strided(c, n2, b, s));
  }

  /// SDL twiddle pass: row i >= 1, column j >= 1 scaled by w^(i*j).
  void twiddle_rows(const std::string& path, const Ctx& c, index_t n, index_t n2, u64 b,
                    index_t s) {
    const i64 se = static_cast<i64>(s) * static_cast<i64>(eb_);
    const u64 tw = tw_on_ ? tw_base(n) : 0;
    Sweep sw;
    sw.count = n2 - 1;
    if (tw_on_) sw.refs.push_back(twref(tw, c.loops.size() + 1, n, 1, 1, 1, 1));
    const u64 row0 = b + static_cast<u64>(n2 + 1) * static_cast<u64>(s) * eb_;
    sw.refs.push_back(ref(false, row0, cat(c.bsteps, {static_cast<i64>(n2) * se}), se));
    sw.refs.push_back(ref(true, row0, cat(c.bsteps, {static_cast<i64>(n2) * se}), se));
    push(path, "twiddle rows", c, {n / n2 - 1}, {std::move(sw)});
  }

  /// Two-pass DDL twiddle pass over the packed columns in the arena.
  void twiddle_cols(const std::string& path, const Ctx& c, index_t n, index_t n2, u64 arena) {
    const i64 eb = static_cast<i64>(eb_);
    const index_t n1 = n / n2;
    const u64 tw = tw_on_ ? tw_base(n) : 0;
    const std::vector<i64> z = zvec(c.loops.size());
    Sweep sw;
    sw.count = n1 - 1;
    if (tw_on_) sw.refs.push_back(twref(tw, c.loops.size() + 1, n, 1, 1, 1, 1));
    const u64 col0 = arena + static_cast<u64>(n1) * eb_ + eb_;
    sw.refs.push_back(ref(false, col0, cat(z, {static_cast<i64>(n1) * eb}), eb));
    sw.refs.push_back(ref(true, col0, cat(z, {static_cast<i64>(n1) * eb}), eb));
    push(path, "twiddle columns (scratch)", c, {n2 - 1}, {std::move(sw)});
  }

  /// Fused ctddlf sweep, one per column: unit-stride arena reads,
  /// twiddle-table reads, strided comb writes.
  void twiddle_scatter(const std::string& path, const Ctx& c, index_t n1, index_t n2, u64 b,
                       index_t s, u64 arena) {
    const i64 eb = static_cast<i64>(eb_);
    const i64 se = static_cast<i64>(s) * eb;
    const index_t n = n1 * n2;
    const u64 tw = tw_on_ ? tw_base(n) : 0;
    Sweep sw;
    sw.count = n1;
    sw.refs.push_back(ref(false, arena, cat(zvec(c.loops.size()), {n1 * eb}), eb));
    if (tw_on_) {
      StreamRef t = twref(tw, c.loops.size() + 1, n, 0, 1, 0, 0);
      t.skip_first_outer = true;  // column 0 and element 0 carry W^0
      t.skip_first_elem = true;
      sw.refs.push_back(std::move(t));
    }
    sw.refs.push_back(ref(true, b, cat(c.bsteps, {se}), static_cast<i64>(n2) * se));
    push(path, "twiddle scatter (fused)", c, {n2}, {std::move(sw)});
  }

  /// Closing stride permutation L^n_{n2}: tiled gather into the arena, then
  /// a linear unpack (layout::stride_permute_inplace).
  void permute(const std::string& path, const Ctx& c, index_t n, index_t n2, u64 b, index_t s,
               u64 arena) {
    const i64 eb = static_cast<i64>(eb_);
    transpose(path, "permute gather (scratch)", c, n / n2, n2, strided(c, n2, b, s),
              packed(c, n / n2, arena));
    Sweep un{n, {ref(false, arena, zvec(c.loops.size()), eb),
                 ref(true, b, c.bsteps, static_cast<i64>(s) * eb)}};
    push(path, "permute unpack", c, {}, {std::move(un)});
  }

  void fft_node(const plan::Node& nd, const std::string& path, const Ctx& c, u64 b, index_t s,
                u64 arena) {
    if (nd.is_leaf()) {
      if (nd.stockham) {
        stockham(path, c, nd.n, b, s, arena);
      } else {
        leaf(path, c, nd.n, b, s);
      }
      return;
    }
    const index_t n = nd.n;
    const index_t n1 = nd.left->n;
    const index_t n2 = nd.right->n;
    const i64 eb = static_cast<i64>(eb_);
    const i64 se = static_cast<i64>(s) * eb;
    if (nd.ddl) {
      reorg_gather(path, c, n1, n2, b, s, arena);
      fft_node(*nd.left, path + ".L", inner(c, n2, zvec(c.loops.size()), n1 * eb), arena, 1,
               arena + static_cast<u64>(n) * eb_);
      if (nd.fused) {
        twiddle_scatter(path, c, n1, n2, b, s, arena);
      } else {
        twiddle_cols(path, c, n, n2, arena);
        reorg_scatter(path, c, n1, n2, b, s, arena);
      }
    } else {
      fft_node(*nd.left, path + ".L", inner(c, n2, c.bsteps, se), b, s * n2, arena);
      twiddle_rows(path, c, n, n2, b, s);
    }
    fft_node(*nd.right, path + ".R", inner(c, n1, c.bsteps, n2 * se), b, s, arena);
    permute(path, c, n, n2, b, s, arena);
  }

  /// The WHT executor: right rows first, no twiddles, no permutation.
  void wht_node(const plan::Node& nd, const std::string& path, const Ctx& c, u64 b, index_t s,
                u64 arena) {
    if (nd.is_leaf()) {
      leaf(path, c, nd.n, b, s);
      return;
    }
    const index_t n = nd.n;
    const index_t n1 = nd.left->n;
    const index_t n2 = nd.right->n;
    const i64 eb = static_cast<i64>(eb_);
    const i64 se = static_cast<i64>(s) * eb;
    wht_node(*nd.right, path + ".R", inner(c, n1, c.bsteps, n2 * se), b, s, arena);
    if (nd.ddl) {
      reorg_gather(path, c, n1, n2, b, s, arena);
      wht_node(*nd.left, path + ".L", inner(c, n2, zvec(c.loops.size()), n1 * eb), arena, 1,
               arena + static_cast<u64>(n) * eb_);
      reorg_scatter(path, c, n1, n2, b, s, arena);
    } else {
      wht_node(*nd.left, path + ".L", inner(c, n2, c.bsteps, se), b, s * n2, arena);
    }
  }

 private:
  /// One side of a transpose: addr = base + j*jstep + i*istep, with `pre`
  /// the outer-context steps of `base`.
  struct Tri {
    u64 base;
    std::vector<i64> pre;
    i64 jstep;
    i64 istep;
  };

  /// Context of `count` child instances, each `step` bytes past the last;
  /// `pre` are the ancestor steps of the child's base.
  static Ctx inner(const Ctx& c, index_t count, std::vector<i64> pre, i64 step) {
    return {catl(c.loops, {count}), cat(std::move(pre), {step})};
  }

  /// The strided side of an r x n2 transpose: element (i, j) at b + (i*n2 + j)*s.
  Tri strided(const Ctx& c, index_t n2, u64 b, index_t s) const {
    const i64 se = static_cast<i64>(s) * static_cast<i64>(eb_);
    return {b, c.bsteps, se, static_cast<i64>(n2) * se};
  }

  /// The packed side: column j of `rows` elements at arena + j*rows.
  Tri packed(const Ctx& c, index_t rows, u64 arena) const {
    const i64 eb = static_cast<i64>(eb_);
    return {arena, zvec(c.loops.size()), static_cast<i64>(rows) * eb, eb};
  }

  u64 aligned(u64 a) const { return (a + align_ - 1) / align_ * align_; }

  u64 tw_base(index_t n) {
    auto it = tw_regions_.find(n);
    if (it != tw_regions_.end()) return it->second;
    const u64 base = next_region_;
    next_region_ = aligned(base + static_cast<u64>(n) * eb_);
    tw_regions_.emplace(n, base);
    return base;
  }

  StreamRef ref(bool write, u64 base, std::vector<i64> steps, i64 estep) const {
    StreamRef r;
    r.write = write;
    r.base = base;
    r.loop_step = std::move(steps);
    r.elem_step = estep;
    r.width = static_cast<std::uint32_t>(eb_);
    return r;
  }

  /// Twiddle-table ref: table index (mul0 + c*mul_last)*e + off0 + c*off_last
  /// (mod n), where c is the pass's last outer loop and e the inner element.
  StreamRef twref(u64 base, std::size_t nloops, index_t n, i64 mul0, i64 mul_last, i64 off0,
                  i64 off_last) const {
    StreamRef r = ref(false, base, zvec(nloops), 0);
    r.mod_n = static_cast<u64>(n);
    r.mod_scale = eb_;
    r.mul0 = mul0;
    r.off0 = off0;
    r.mul_loop = zvec(nloops);
    r.off_loop = zvec(nloops);
    if (nloops > 0) {
      r.mul_loop.back() = mul_last;
      r.off_loop.back() = off_last;
    }
    return r;
  }

  void push(const std::string& path, std::string op, const Ctx& c,
            std::initializer_list<index_t> local, std::vector<Sweep> sweeps) {
    AccessPass p;
    p.node_path = path;
    p.op = std::move(op);
    p.loops = catl(c.loops, local);
    p.sweeps = std::move(sweeps);
    out_.push_back(std::move(p));
  }

  /// Tiled transpose of an nr x nc matrix in layout/reorg.cpp's order:
  /// kTile-column blocks, within each the kTile-row blocks, within each
  /// tile column by column. A uniform tiling (both extents <= kTile or
  /// multiples of it, as at every power-of-two size) is one pass. A ragged
  /// one is at most two: the full-width column blocks, then the narrow last
  /// block, each tile column of a block one sweep.
  void transpose(const std::string& path, const char* op, const Ctx& c, index_t nr, index_t nc,
                 const Tri& rd, const Tri& wr) {
    const index_t jt = std::min<index_t>(kTile, nc);
    const index_t it = std::min<index_t>(kTile, nr);
    if (nc % jt == 0 && nr % it == 0) {
      Sweep sw;
      sw.count = it;
      sw.refs = {ref(false, rd.base, cat(rd.pre, {jt * rd.jstep, it * rd.istep, rd.jstep}),
                     rd.istep),
                 ref(true, wr.base, cat(wr.pre, {jt * wr.jstep, it * wr.istep, wr.jstep}),
                     wr.istep)};
      push(path, op, c, {nc / jt, nr / it, jt}, {std::move(sw)});
      return;
    }
    const auto blocks = [&](index_t j0, index_t width, index_t count) {
      const auto at = [](const Tri& t, index_t j, index_t i) {
        return static_cast<u64>(static_cast<i64>(t.base) + j * t.jstep + i * t.istep);
      };
      std::vector<Sweep> sweeps;
      for (index_t ib = 0; ib < nr; ib += it) {
        for (index_t j = j0; j < j0 + width; ++j) {
          sweeps.push_back({std::min(it, nr - ib),
                            {ref(false, at(rd, j, ib), cat(rd.pre, {width * rd.jstep}), rd.istep),
                             ref(true, at(wr, j, ib), cat(wr.pre, {width * wr.jstep}), wr.istep)}});
        }
      }
      push(path, op, c, {count}, std::move(sweeps));
    };
    blocks(0, jt, nc / jt);
    if (nc % jt != 0) blocks(nc - nc % jt, nc % jt, 1);
  }

  std::size_t eb_;
  bool tw_on_;
  u64 align_;
  u64 next_region_;
  std::map<index_t, u64> tw_regions_;
  std::vector<AccessPass> out_;
};

}  // namespace

std::vector<AccessPass> enumerate_passes(const plan::Node& tree, const AnalyzeOptions& opts) {
  const std::size_t eb =
      opts.elem_bytes != 0 ? opts.elem_bytes
                           : (opts.transform == Transform::fft ? sizeof(cplx) : sizeof(real_t));
  const bool tw_on = opts.include_twiddles && opts.transform == Transform::fft;
  DDL_REQUIRE(opts.align_bytes > 0, "alignment must be positive");
  const u64 align = opts.align_bytes;
  const auto aligned = [align](u64 a) { return (a + align - 1) / align * align; };
  const u64 n_bytes = static_cast<u64>(tree.n) * eb;
  const u64 arena = aligned(n_bytes);
  Emitter em(eb, tw_on, aligned(arena + 2 * n_bytes), align);
  if (opts.transform == Transform::fft) {
    em.fft_node(tree, "root", {}, 0, 1, arena);
  } else {
    em.wht_node(tree, "root", {}, 0, 1, arena);
  }
  return em.take();
}

// ---------------------------------------------------------------------------
// Per-stage prediction: the pass replayed through cache::Cache
// ---------------------------------------------------------------------------

void replay_pass(const AccessPass& pass, cache::Cache& l1, cache::Cache* l2) {
  // Two walks rather than one with a per-access test for l2: replay is the
  // hot loop of every prediction and of the simulated oracle.
  if (l2 == nullptr) {
    walk_pass(pass, [&l1](u64 addr, bool is_write) { l1.access(addr, is_write); });
    return;
  }
  walk_pass(pass, [&l1, l2](u64 addr, bool is_write) {
    if (!l1.access(addr, is_write)) l2->access(addr, is_write);
  });
}

namespace {

/// The pass replayed through one cold cache per level (`l2` may be null).
PassPrediction predict_pass(const AccessPass& pass, const cache::CacheConfig& l1,
                            const cache::CacheConfig* l2) {
  cache::Cache c1(l1);
  std::optional<cache::Cache> c2;
  if (l2 != nullptr) c2.emplace(*l2);
  replay_pass(pass, c1, c2 ? &*c2 : nullptr);
  return {c1.stats(), c2 ? c2->stats() : cache::CacheStats{}, pass.bytes_touched()};
}

}  // namespace

// ---------------------------------------------------------------------------
// Whole-plan analysis + footprint coverage cross-check
// ---------------------------------------------------------------------------

CacheReport analyze_plan(const plan::Node& tree, const AnalyzeOptions& opts) {
  opts.l1.validate();
  const cache::CacheConfig* l2p = opts.l2.size_bytes > 0 ? &opts.l2 : nullptr;
  if (l2p != nullptr) l2p->validate();

  CacheReport rep;
  for (AccessPass& pass : enumerate_passes(tree, opts)) {
    StagePrediction sp;
    sp.predict = predict_pass(pass, opts.l1, l2p);
    sp.pass = std::move(pass);
    rep.total_l1 = rep.total_l1 + sp.predict.l1;
    rep.total_l2 = rep.total_l2 + sp.predict.l2;
    rep.bytes_moved += sp.predict.bytes_moved;
    rep.stages.push_back(std::move(sp));
  }

  // Structural cross-check: every footprint stage must be modeled by a pass
  // of the same (node, op), expanded into the named subtree's own passes, or
  // explicitly waived. Anything else is a stage the static model lost.
  for (const Stage& st : enumerate_stages(tree, opts.transform)) {
    StageCoverage sc;
    sc.node_path = st.node_path;
    sc.op = st.op;
    const auto has_pass_at = [&](const std::string& prefix) {
      return std::any_of(rep.stages.begin(), rep.stages.end(), [&](const StagePrediction& sp) {
        return sp.pass.node_path.compare(0, prefix.size(), prefix) == 0;
      });
    };
    const bool direct =
        std::any_of(rep.stages.begin(), rep.stages.end(), [&](const StagePrediction& sp) {
          return sp.pass.node_path == st.node_path && sp.pass.op == st.op;
        });
    if (direct) {
      sc.status = Coverage::modeled;
      sc.detail = "pass of the same name";
    } else if (st.op.compare(0, 12, "left columns") == 0 && has_pass_at(st.node_path + ".L")) {
      sc.status = Coverage::expanded;
      sc.detail = "left-subtree passes";
    } else if (st.op == "right rows" && has_pass_at(st.node_path + ".R")) {
      sc.status = Coverage::expanded;
      sc.detail = "right-subtree passes";
    } else {
      sc.status = Coverage::uncovered;
      sc.detail = "no pass models this stage";
      rep.uncovered = true;
    }
    rep.coverage.push_back(std::move(sc));
  }
  return rep;
}

// ---------------------------------------------------------------------------
// Planning oracle: per-CostKey passes, fitted time model
// ---------------------------------------------------------------------------

std::vector<AccessPass> primitive_passes(const plan::CostKey& key) {
  const std::string& k = key.kind;
  const u64 eb = k == "wht_leaf" || k == "wht_reorg" ? sizeof(real_t) : sizeof(cplx);
  const std::string path = "primitive";
  const Emitter::Ctx top;
  // The twiddle table starts at `tw_from`, packed (no alignment).
  const auto build = [&](u64 tw_from, const auto& emit) {
    Emitter em(eb, true, tw_from, 1);
    emit(em);
    return em.take();
  };
  if (k == "dft_leaf" || k == "wht_leaf") {
    // The probe's sweep: consecutive base offsets when strided, consecutive
    // blocks at unit stride.
    const i64 step = static_cast<i64>(key.b > 1 ? eb : static_cast<u64>(key.a) * eb);
    return build(0, [&](Emitter& em) { em.leaf(path, {{kLeafSweep}, {step}}, key.a, 0, key.b); });
  }
  if (k == "tw_rows") {
    return build(static_cast<u64>(key.a * key.c) * eb,
                 [&](Emitter& em) { em.twiddle_rows(path, top, key.a, key.b, 0, key.c); });
  }
  if (k == "tw_cols") {  // runs on the packed scratch, here at 0
    return build(static_cast<u64>(key.a) * eb,
                 [&](Emitter& em) { em.twiddle_cols(path, top, key.a, key.b, 0); });
  }
  if (k == "perm") {
    const u64 scratch = static_cast<u64>(key.a * key.c) * eb;
    return build(scratch,
                 [&](Emitter& em) { em.permute(path, top, key.a, key.b, 0, key.c, scratch); });
  }
  if (k == "reorg" || k == "reorg_g" || k == "wht_reorg") {
    const u64 scratch = static_cast<u64>(key.a * key.b * key.c) * eb;
    return build(scratch, [&](Emitter& em) {
      em.reorg_gather(path, top, key.a, key.b, 0, key.c, scratch);
      if (k != "reorg_g") em.reorg_scatter(path, top, key.a, key.b, 0, key.c, scratch);
    });
  }
  if (k == "fused_tws") {
    const index_t n = key.a * key.b;
    const u64 scratch = static_cast<u64>(n * key.c) * eb;
    return build(scratch + static_cast<u64>(n) * eb, [&](Emitter& em) {
      em.twiddle_scatter(path, top, key.a, key.b, 0, key.c, scratch);
    });
  }
  if (k == "stockham") {  // two n-point ping-pong buffers, then the table
    const u64 scratch = static_cast<u64>(key.a * key.b) * eb;
    return build(scratch + 2 * static_cast<u64>(key.a) * eb,
                 [&](Emitter& em) { em.stockham(path, top, key.a, 0, key.b, scratch); });
  }
  return {};
}

AccessPass leaf_sweep_pass(index_t n, index_t stride, index_t count, std::size_t elem_bytes) {
  DDL_REQUIRE(n >= 1 && stride >= 1 && count >= 1, "bad leaf sweep parameters");
  Emitter em(elem_bytes, false, 0, 1);
  em.leaf("primitive", {{count}, {static_cast<i64>(elem_bytes)}}, n, 0, stride);
  return std::move(em.take().front());
}

double primitive_flops(const plan::CostKey& key) {
  const std::string& k = key.kind;
  const auto lg = [](index_t n) {
    double b = 0;
    while ((index_t{1} << static_cast<int>(b)) < n) b += 1;
    return b;
  };
  const double a = static_cast<double>(key.a);
  const double b = static_cast<double>(key.b);
  if (k == "dft_leaf") return 5.0 * a * lg(key.a);
  if (k == "wht_leaf") return a * lg(key.a);
  if (k == "tw_rows" || k == "tw_cols") return 6.0 * (a / b - 1.0) * (b - 1.0);
  if (k == "fused_tws") return 8.0 * a * b;  // twiddle multiply + scatter copy
  if (k == "perm") return 4.0 * a;           // gather + unpack element touches
  if (k == "reorg" || k == "wht_reorg") return 4.0 * a * b;
  if (k == "reorg_g") return 2.0 * a * b;
  if (k == "stockham") return 5.0 * a * lg(key.a) + (key.b > 1 ? 4.0 * a : 0.0);
  return 0.0;
}

PrimitivePrediction predict_primitive(const plan::CostKey& key, const cache::CacheConfig& l1,
                                      const cache::CacheConfig& l2) {
  PrimitivePrediction pp;
  const cache::CacheConfig* l2p = l2.size_bytes > 0 ? &l2 : nullptr;
  for (const AccessPass& pass : primitive_passes(key)) {
    const PassPrediction pr = predict_pass(pass, l1, l2p);
    pp.l1_misses += pr.l1.misses;
    pp.l2_misses += pr.l2.misses;
  }
  if (key.kind == "dft_leaf" || key.kind == "wht_leaf") {
    // The probe protocol times kLeafSweep sub-transforms and averages.
    pp.l1_misses /= static_cast<u64>(kLeafSweep);
    pp.l2_misses /= static_cast<u64>(kLeafSweep);
  }
  return pp;
}

double model_cost(const plan::CostKey& key, const CostCoefficients& co,
                  const cache::CacheConfig& l1, const cache::CacheConfig& l2) {
  const PrimitivePrediction pp = predict_primitive(key, l1, l2);
  return co.beta_flop * primitive_flops(key) + co.alpha_l1 * static_cast<double>(pp.l1_misses) +
         co.alpha_l2 * static_cast<double>(pp.l2_misses);
}

CostCoefficients fit_coefficients(const plan::CostDb& db, const cache::CacheConfig& l1,
                                  const cache::CacheConfig& l2) {
  CostCoefficients co;
  std::vector<std::array<double, 3>> rows;
  std::vector<double> y;
  db.for_each([&](const plan::CostKey& key, double seconds, plan::CostSource) {
    const double f = primitive_flops(key);
    if (f <= 0.0) return;  // kind the model does not understand
    const PrimitivePrediction pp = predict_primitive(key, l1, l2);
    rows.push_back({f, static_cast<double>(pp.l1_misses), static_cast<double>(pp.l2_misses)});
    y.push_back(seconds);
  });
  co.samples = rows.size();
  if (rows.size() < 4) return co;

  // Normal equations A x = b for least squares over (flops, m1, m2).
  double A[3][3] = {};
  double bv[3] = {};
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (int i = 0; i < 3; ++i) {
      for (int j = 0; j < 3; ++j) A[i][j] += rows[r][static_cast<std::size_t>(i)] *
                                             rows[r][static_cast<std::size_t>(j)];
      bv[i] += rows[r][static_cast<std::size_t>(i)] * y[r];
    }
  }
  // Gaussian elimination with partial pivoting.
  int piv[3] = {0, 1, 2};
  for (int c = 0; c < 3; ++c) {
    int best = c;
    for (int r = c + 1; r < 3; ++r) {
      if (std::abs(A[piv[r]][c]) > std::abs(A[piv[best]][c])) best = r;
    }
    std::swap(piv[c], piv[best]);
    if (std::abs(A[piv[c]][c]) < 1e-30) return co;  // singular: keep defaults
    for (int r = c + 1; r < 3; ++r) {
      const double f = A[piv[r]][c] / A[piv[c]][c];
      for (int j = c; j < 3; ++j) A[piv[r]][j] -= f * A[piv[c]][j];
      bv[piv[r]] -= f * bv[piv[c]];
    }
  }
  double x[3];
  for (int c = 2; c >= 0; --c) {
    double v = bv[piv[c]];
    for (int j = c + 1; j < 3; ++j) v -= A[piv[c]][j] * x[j];
    x[c] = v / A[piv[c]][c];
  }
  for (double& v : x) v = std::max(v, 0.0);  // latencies cannot be negative
  if (x[0] == 0.0 && x[1] == 0.0 && x[2] == 0.0) return co;
  co.beta_flop = x[0];
  co.alpha_l1 = x[1];
  co.alpha_l2 = x[2];
  co.fitted = true;
  return co;
}

// ---------------------------------------------------------------------------
// obs::Stage -> static-model disposition (linted by `stage-coverage`)
// ---------------------------------------------------------------------------

const char* obs_stage_model(obs::Stage stage) noexcept {
  switch (stage) {
    case obs::Stage::transform: return "waived: whole-call envelope over per-stage passes";
    case obs::Stage::batch: return "waived: batch envelope (footprint batch_stage)";
    case obs::Stage::reorg_gather: return "modeled: 'reorg gather' pass";
    case obs::Stage::reorg_scatter: return "modeled: 'reorg scatter' pass";
    case obs::Stage::stride_perm:
      return "modeled: 'permute gather (scratch)' + 'permute unpack' passes";
    case obs::Stage::twiddle_rows: return "modeled: 'twiddle rows' pass";
    case obs::Stage::twiddle_cols: return "modeled: 'twiddle columns (scratch)' pass";
    case obs::Stage::twiddle_scatter: return "modeled: 'twiddle scatter (fused)' pass";
    case obs::Stage::leaf_cols: return "modeled: 'leaf sweep' pass";
    case obs::Stage::fft_cols: return "expanded: left-subtree passes";
    case obs::Stage::fft_rows: return "expanded: right-subtree passes";
    case obs::Stage::wht_cols: return "expanded: left-subtree passes";
    case obs::Stage::wht_rows: return "expanded: right-subtree passes";
    case obs::Stage::stockham_leaf: return "modeled: 'stockham *' pass family";
    case obs::Stage::par_dispatch: return "waived: scheduling only, no data traffic";
    case obs::Stage::par_chunk: return "waived: scheduling only, no data traffic";
    case obs::Stage::svc_batch: return "waived: service staging outside the plan address space";
    case obs::Stage::svc_gather: return "waived: service staging outside the plan address space";
    case obs::Stage::svc_scatter: return "waived: service staging outside the plan address space";
    case obs::Stage::plan_build: return "waived: planning-time work, no transform traffic";
    case obs::Stage::stream_block: return "waived: streaming envelope over per-stage passes";
    case obs::Stage::stream_pack: return "waived: stream staging outside the plan address space";
    case obs::Stage::stream_fdl: return "waived: stream staging outside the plan address space";
    case obs::Stage::stream_ola: return "waived: stream staging outside the plan address space";
    case obs::Stage::svc_tenant_batch:
      return "waived: service staging outside the plan address space";
    case obs::Stage::count_: return "waived: sentinel";
  }
  return "waived: unknown stage";
}

}  // namespace ddl::verify::cachepred
