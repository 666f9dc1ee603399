#pragma once
/// \file snapshot.hpp
/// \brief Wisdom/CostDb snapshot shipping: one file carrying both planner
///        stores, for moving tuning state between hosts and processes.
///
/// A fleet of services wants planner state to travel:
/// calibrate once on a canary, `ddlfft wisdom export` the stores, ship the
/// file, `ddlfft wisdom merge` it everywhere else. The snapshot format is
/// deliberately boring — a versioned header plus the two stores' own
/// save() line formats under counted section headers:
///
///     DDLSNAP 1
///     costdb <N>
///     <N CostDb lines:  kind a b c isa seconds [calib]>
///     wisdom <M>
///     <M Wisdom lines:  transform strategy n seconds tree>
///
/// Properties:
///  * **Byte-deterministic**: both stores iterate in map key order and
///    print doubles at round-trip precision, so export → merge → export
///    reproduces the file byte-for-byte (pinned by tests/test_plan.cpp).
///  * **Fail-closed**: merge_snapshot validates the entire file — header,
///    section counts, and every line under the same rules the stores'
///    own load() paths enforce (finite non-negative costs, parseable
///    trees whose size matches the key) — before committing anything. A
///    truncated or hand-mangled snapshot changes neither store.
///  * **Last-writer-wins**: committed entries overlay existing ones key
///    by key (keys carry the ISA tag, so a snapshot from an avx2 host
///    merged on a sse2 host updates only the avx2-keyed costs it names).

#include <filesystem>
#include <string>

#include "ddl/plan/costdb.hpp"
#include "ddl/plan/wisdom.hpp"

namespace ddl::plan {

/// Write both stores to `file` in the DDLSNAP 1 format. Returns false on
/// I/O failure (callers treat persistence as best-effort, like save()).
bool save_snapshot(const std::filesystem::path& file, const CostDb& costs,
                   const Wisdom& wisdom);

/// Validate `file` in full, then overlay its entries onto both stores
/// (last-writer-wins per key). On failure returns false, stores untouched,
/// and `*error` (when non-null) holds a positioned reason
/// ("snap.txt:12: malformed cost").
bool merge_snapshot(const std::filesystem::path& file, CostDb& costs, Wisdom& wisdom,
                    std::string* error = nullptr);

}  // namespace ddl::plan
