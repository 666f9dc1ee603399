#!/usr/bin/env python3
"""ddl_lint — project-specific static lint for the ddl codebase.

Rules (each can be waived per line with `// ddl-lint: allow(<rule>)` on the
flagged line or the line above; waivers should be rare and justified):

  stride-arith      Pointer-offset stride arithmetic (`p + i * stride`-style
                    expressions) is only allowed inside the layers that own
                    data movement: src/{layout,fft,wht,codelets,sim} and their
                    include/ counterparts. Everywhere else (plan, verify,
                    common, cachesim, bench_util, apps, tools) must treat
                    strides as opaque metadata; address math outside the
                    transform layers is how layout bugs historically escape
                    the ddl::verify footprint model.

  reinterpret-cast  No reinterpret_cast anywhere in src/ or include/. The
                    library works on real_t/cplx arrays end to end; type
                    punning would invalidate both the sanitizer story and the
                    footprint analyzer's element-granularity model.

  naked-new         No naked `new` / `delete` in src/ or include/. All
                    ownership goes through std::unique_ptr /
                    std::make_unique / containers.

  require-entry     Public entry-point translation units (src/**/*_api.cpp,
                    src/fft/fft.cpp) must contain at least one DDL_REQUIRE:
                    every public surface validates its contract before
                    touching data.

  raw-clock         No direct std::chrono use outside the two timebase
                    owners: ddl/common/timer (WallTimer, time_adaptive) and
                    ddl::obs (now_ns(), the event timebase). Everything else
                    must go through those — mixed clock sources are how
                    stage timings and wall timings historically drift apart
                    (different clocks, different resolutions), and the obs
                    exporters assume every timestamp shares one epoch.

  raw-thread        No raw std::thread construction outside the two layers
                    that own threads: ddl::svc (the batcher thread) and
                    ddl/common (the parallel thread pool). Everything else
                    submits work through ddl::parallel or ddl::svc — ad-hoc
                    threads bypass the pool's scratch arenas, obs per-thread
                    rings, and the TSan-audited join discipline.

  fused-twiddle     In executor translation units (src/**/executor*), a
                    twiddle-columns pass immediately followed by a separate
                    transpose-scatter permutation is the two-pass sweep the
                    fused twiddle_scatter stage replaces (one read/write
                    sweep instead of two). New code must dispatch the fused
                    kernel; the retained two-pass reference path carries a
                    waiver.

  stream-alloc      The streaming layer (src/stream/, include/ddl/stream/)
                    is allocation-free after construction by contract
                    (docs/STREAMING.md): no `new`, malloc/calloc, or
                    container growth (.resize/.push_back/.emplace_back)
                    anywhere in it. Buffers are AlignedBuffers sized in
                    constructors; anything that can touch the heap on the
                    per-block path needs an explicit waiver.

  wire-copy         Wire-protocol translation units (src/ and include/ files
                    named *wire*) must not read frames via memcpy/memmove,
                    `*p++` byte-pointer reads, or manual `p += sizeof(...)`
                    pointer advances. Every decode goes through the
                    bounds-checked Cursor (docs/SERVICE.md): unchecked copy
                    reads are exactly how a truncated or oversized frame
                    turns into an out-of-bounds read instead of a clean
                    WireError.

  stage-coverage    Every obs::Stage enum value (include/ddl/obs/obs.hpp)
                    must be mentioned in src/verify/cachepred.cpp — the
                    symbolic cache model's obs_stage_model() catalogue,
                    which records for each stage whether it is modeled as an
                    access pass, expanded into child passes, or explicitly
                    waived with a reason. A stage missing there is an
                    executor behavior the static cache analysis silently
                    ignores. (The -Wswitch total switch enforces this at
                    compile time too; the lint catches it without a build.)

Exit status: 0 when clean, 1 when any finding remains, 2 on usage error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

# Directories whose code is allowed to do raw stride address arithmetic.
STRIDE_ALLOWED = (
    "src/layout/",
    "src/fft/",
    "src/wht/",
    "src/codelets/",
    "include/ddl/layout/",
    "include/ddl/fft/",
    "include/ddl/wht/",
    "include/ddl/codelets/",
)

# `+ <product involving a stride identifier>` — pointer-offset shape. Pure
# metadata computation (`left_stride = stride * n2`) has no `+` and is fine.
STRIDE_ARITH = re.compile(
    r"[+]\s*[\w().\s]*\*\s*\w*stride\b|[+]\s*\w*stride\b\s*\*"
)

REINTERPRET = re.compile(r"\breinterpret_cast\b")
# `new T` / `delete p` expressions; `= delete;` declarations are not matched.
NAKED_NEW = re.compile(
    r"(^|[^\w.])new\s+[\w:<(]|(^|[^\w.])delete\s*(\[\s*\])?\s*[\w(*]"
)

ENTRY_POINT = re.compile(r"(^|/)(\w+_api\.cpp|fft/fft\.cpp)$")

# Files that own a clock: the wall-timer utility and the obs event timebase.
CLOCK_ALLOWED = (
    "src/obs/",
    "include/ddl/obs/",
    "src/common/timer.cpp",
    "include/ddl/common/timer.hpp",
)

RAW_CLOCK = re.compile(r"\bstd\s*::\s*chrono\b|#\s*include\s*<chrono>")

# Layers that own threads: the svc batcher and the common thread pool.
THREAD_ALLOWED = (
    "src/svc/",
    "include/ddl/svc/",
    "src/common/",
    "include/ddl/common/",
)

# std::thread mentions; `std::this_thread` is fine (no word boundary before
# `thread` inside `this_thread`, so it never matches).
RAW_THREAD = re.compile(r"\bstd\s*::\s*thread\b")

# Two-pass twiddle-then-permute shape in executor code: a twiddle-columns
# call with a transpose-scatter call within the next few lines. (The
# obs::Stage::twiddle_cols tag never matches — it is followed by a comma,
# not an open paren.)
FUSED_TWIDDLE_CALL = re.compile(r"\btwiddle_cols\s*\(")
FUSED_SCATTER_CALL = re.compile(r"\btranspose_scatter\s*\(")
FUSED_WINDOW = 8

# The zero-allocation streaming layer: no heap use outside construction.
STREAM_ALLOC_DIRS = ("src/stream/", "include/ddl/stream/")
STREAM_ALLOC = re.compile(
    r"(^|[^\w.])new\s+[\w:<(]"
    r"|\b(?:malloc|calloc|realloc)\s*\("
    r"|\.\s*(?:resize|push_back|emplace_back|reserve)\s*\("
)

# Wire parsing: every byte that leaves a frame goes through the Cursor.
WIRE_COPY = re.compile(
    r"\b(?:std\s*::\s*)?(?:memcpy|memmove)\s*\("
    r"|\*\s*\w+\s*\+\+"
    r"|\b\w+\s*\+=\s*sizeof\b"
)

WAIVER = re.compile(r"//\s*ddl-lint:\s*allow\(([\w-]+(?:\s*,\s*[\w-]+)*)\)")


def strip_comments_and_strings(line: str, in_block: bool) -> tuple[str, bool]:
    """Blank out string/char literals, // and /* */ comment content."""
    out = []
    i, n = 0, len(line)
    while i < n:
        if in_block:
            end = line.find("*/", i)
            if end < 0:
                return "".join(out), True
            i = end + 2
            continue
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c == "/" and i + 1 < n and line[i + 1] == "*":
            in_block = True
            i += 2
            continue
        if c in "\"'":
            quote = c
            i += 1
            while i < n and line[i] != quote:
                i += 2 if line[i] == "\\" else 1
            i += 1
            out.append(" ")
            continue
        out.append(c)
        i += 1
    return "".join(out), in_block


def waived(rule: str, lines: list[str], idx: int) -> bool:
    for j in (idx, idx - 1):
        if j >= 0:
            m = WAIVER.search(lines[j])
            if m and rule in [r.strip() for r in m.group(1).split(",")]:
                return True
    return False


def lint_file(path: Path, rel: str, findings: list[str]) -> None:
    text = path.read_text(encoding="utf-8", errors="replace")
    lines = text.splitlines()

    # Tests and benches drive the strided primitives directly and construct
    # address patterns on purpose; the stride rule polices library and app
    # code only.
    check_stride = rel.startswith(("src/", "include/", "apps/")) and not rel.startswith(
        STRIDE_ALLOWED
    )
    check_mem = rel.startswith(("src/", "include/"))
    check_clock = rel.startswith(("src/", "include/", "apps/", "bench/")) and not rel.startswith(
        CLOCK_ALLOWED
    )
    check_thread = rel.startswith(("src/", "include/", "apps/")) and not rel.startswith(
        THREAD_ALLOWED
    )
    check_stream_alloc = rel.startswith(STREAM_ALLOC_DIRS)
    check_wire = rel.startswith(("src/", "include/")) and "wire" in path.name

    in_block = False
    cleaned: list[str] = []
    for idx, raw in enumerate(lines):
        code, in_block = strip_comments_and_strings(raw, in_block)
        cleaned.append(code)
        if not code.strip():
            continue
        if check_stride and STRIDE_ARITH.search(code) and not waived(
            "stride-arith", lines, idx
        ):
            findings.append(
                f"{rel}:{idx + 1}: stride-arith: raw stride address arithmetic"
                f" outside the layout/transform layers: {raw.strip()}"
            )
        if check_mem and REINTERPRET.search(code) and not waived(
            "reinterpret-cast", lines, idx
        ):
            findings.append(
                f"{rel}:{idx + 1}: reinterpret-cast: type punning is banned:"
                f" {raw.strip()}"
            )
        if check_mem and NAKED_NEW.search(code) and not waived(
            "naked-new", lines, idx
        ):
            findings.append(
                f"{rel}:{idx + 1}: naked-new: use std::make_unique/containers:"
                f" {raw.strip()}"
            )
        if check_clock and RAW_CLOCK.search(code) and not waived(
            "raw-clock", lines, idx
        ):
            findings.append(
                f"{rel}:{idx + 1}: raw-clock: use WallTimer/time_adaptive or"
                f" obs::now_ns(), not std::chrono directly: {raw.strip()}"
            )
        if check_thread and RAW_THREAD.search(code) and not waived(
            "raw-thread", lines, idx
        ):
            findings.append(
                f"{rel}:{idx + 1}: raw-thread: submit work through"
                f" ddl::parallel or ddl::svc, not raw std::thread: {raw.strip()}"
            )
        if check_stream_alloc and STREAM_ALLOC.search(code) and not waived(
            "stream-alloc", lines, idx
        ):
            findings.append(
                f"{rel}:{idx + 1}: stream-alloc: the streaming layer is"
                f" allocation-free after construction (docs/STREAMING.md) —"
                f" size an AlignedBuffer in the constructor instead:"
                f" {raw.strip()}"
            )
        if check_wire and WIRE_COPY.search(code) and not waived(
            "wire-copy", lines, idx
        ):
            findings.append(
                f"{rel}:{idx + 1}: wire-copy: unchecked copy/pointer-advance"
                f" read in wire parsing — decode through the bounds-checked"
                f" Cursor (docs/SERVICE.md): {raw.strip()}"
            )

    if rel.startswith("src/") and "executor" in rel:
        for idx, code in enumerate(cleaned):
            if not FUSED_TWIDDLE_CALL.search(code):
                continue
            if waived("fused-twiddle", lines, idx):
                continue
            window = cleaned[idx + 1 : idx + 1 + FUSED_WINDOW]
            if any(FUSED_SCATTER_CALL.search(later) for later in window):
                findings.append(
                    f"{rel}:{idx + 1}: fused-twiddle: separate twiddle pass followed"
                    f" by a scatter permutation — dispatch the fused twiddle_scatter"
                    f" stage instead: {lines[idx].strip()}"
                )

    if ENTRY_POINT.search(rel) and "DDL_REQUIRE" not in text:
        findings.append(
            f"{rel}:1: require-entry: public entry-point file has no"
            f" DDL_REQUIRE contract check"
        )


STAGE_ENUM_OPEN = re.compile(r"enum\s+class\s+Stage\b")
STAGE_VALUE = re.compile(r"^\s*(\w+)\s*(?:=\s*\d+\s*)?,")


def check_stage_coverage(root: Path, findings: list[str]) -> None:
    """Repo-level rule: obs::Stage values vs the cache model's catalogue."""
    obs_hpp = root / "include" / "ddl" / "obs" / "obs.hpp"
    model_cpp = root / "src" / "verify" / "cachepred.cpp"
    for required in (obs_hpp, model_cpp):
        if not required.is_file():
            findings.append(
                f"{required.relative_to(root).as_posix()}:1: stage-coverage:"
                f" file missing — cannot cross-check stage dispositions"
            )
            return

    lines = obs_hpp.read_text(encoding="utf-8").splitlines()
    stages: list[tuple[str, int]] = []
    in_enum = False
    for idx, line in enumerate(lines):
        if not in_enum:
            if STAGE_ENUM_OPEN.search(line):
                in_enum = True
            continue
        if "};" in line:
            break
        m = STAGE_VALUE.match(line)
        if m and m.group(1) != "count_":
            stages.append((m.group(1), idx + 1))
    if not stages:
        findings.append(
            "include/ddl/obs/obs.hpp:1: stage-coverage: could not parse the"
            " Stage enum (rule needs updating?)"
        )
        return

    model_text = model_cpp.read_text(encoding="utf-8")
    for name, lineno in stages:
        if not re.search(rf"obs::Stage::{name}\b", model_text):
            findings.append(
                f"include/ddl/obs/obs.hpp:{lineno}: stage-coverage:"
                f" obs::Stage::{name} has no disposition in"
                f" src/verify/cachepred.cpp (obs_stage_model) — model it as a"
                f" pass, mark it expanded, or waive it there with a reason"
            )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", default=None, help="repository root (default: tool's parent)"
    )
    args = parser.parse_args()

    root = Path(args.root) if args.root else Path(__file__).resolve().parent.parent
    if not (root / "src").is_dir():
        print(f"ddl_lint: no src/ under {root}", file=sys.stderr)
        return 2

    findings: list[str] = []
    count = 0
    for sub in ("src", "include", "apps", "tests", "bench", "examples"):
        base = root / sub
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in (".cpp", ".hpp", ".h", ".cc"):
                continue
            count += 1
            lint_file(path, path.relative_to(root).as_posix(), findings)

    check_stage_coverage(root, findings)

    for finding in findings:
        print(finding)
    status = "clean" if not findings else f"{len(findings)} finding(s)"
    print(f"ddl_lint: {count} files checked, {status}", file=sys.stderr)
    return 0 if not findings else 1


if __name__ == "__main__":
    sys.exit(main())
