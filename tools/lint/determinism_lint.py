#!/usr/bin/env python3
"""Determinism lint: the PR-5 determinism contract as checkable rules.

The parallel engine guarantees bit-identical record/replay (see README
"Determinism contract"): per-lane execution order is a pure function of the
submitted blocks and installed snapshots, independent of thread count and
wall-clock time. Those guarantees are easy to break
silently — one `std::unordered_map` range-for in a trace-affecting path, or
one wall-clock read folded into a committed counter, and replay diverges
only on *some* machines. This linter encodes the contract as source-level
rules so the break is a CI failure, not a flaky golden-trace test.

Rules (ids are what `allow(...)` escapes name):

  raw-sync      std::mutex / std::condition_variable / std::lock_guard /
                std::unique_lock / std::scoped_lock / std::shared_mutex and
                the <mutex>/<condition_variable>/<shared_mutex> headers are
                forbidden outside txallo/common/sync.h. Everything else
                must use the annotated wrappers (common::Mutex, MutexLock,
                CondVar) so Clang -Wthread-safety can check lock
                discipline.

  raw-thread    std::thread / std::jthread and <thread> are forbidden.
                Threads are spawned in exactly two places, each use
                carrying an explicit escape so every spawn site stays
                enumerable: txallo/common/fork_join (the one fan-out pool,
                behind the engine's tick) and
                txallo/engine/background_allocator (the one long single
                background task). Everything else is the driver's.

  wall-clock    std::rand / srand / std::random_device /
                std::chrono::system_clock / high_resolution_clock (and
                time(NULL)/time(nullptr)) are forbidden in txallo/ outside
                common/rng.{h,cc} (the seeded deterministic RNG) and
                common/stopwatch.{h,cc} (steady_clock metrics, which never
                feed trace-affecting state). Wall-clock or entropy anywhere
                else can leak into execution order.

  unordered-iter
                Range-for over a std::unordered_map/unordered_set (declared
                in-file or written inline) is forbidden in trace-affecting
                paths: txallo/engine/ (execution, 2PC, replay),
                txallo/allocator/ (Commit folds mappings back into live
                state), txallo/state/ (account records feed the per-tick
                Merkle roots the replay log verifies bit-identically),
                txallo/mempool/ (admission decisions and dispatch order
                are part of the recorded trace), txallo/graph/ (the
                delta-log CSR promises bit-identical reads across copy /
                consolidation), txallo/chain/ (the account registry assigns
                ids in first-seen order), txallo/core/ (gain sweeps
                visit communities in deterministic order; these paths use
                common::FlatMap, which iterates in insertion order, and
                must not regress to hash-order) and txallo/workload/
                (generators and scenario overlays promise a bit-identical
                stream per seed — the contract the gauntlet snapshots and
                record/replay traces rest on). Hash-table iteration order is
                implementation-defined and seed-dependent; iterate a sorted
                copy or a vector instead. Detection is heuristic
                (declaration-name tracking, no type inference), which is
                the right trade for a 400-line linter — escapes cover the
                false positives.

Escapes: append `// txallo-lint: allow(<rule>[,<rule>...])` to the
offending line, or put the same comment alone on the line directly above
it. Escapes are per-line and per-rule; a justification after the closing
parenthesis is encouraged and ignored by the parser.

Paths: a file participates when its path contains a `txallo/` component;
the sub-path after it selects the rule set (so the self-test fixtures under
tests/tools/fixtures/txallo/ are classified exactly like the real tree).

Exit status: 0 = clean, 1 = violations found, 2 = usage/IO error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

CXX_SUFFIXES = {".h", ".hpp", ".hh", ".cc", ".cpp", ".cxx"}

ESCAPE_RE = re.compile(r"txallo-lint:\s*allow\(([^)]*)\)")

# rule id -> (regex over the code portion of a line, human message)
TOKEN_RULES = {
    "raw-sync": (
        re.compile(
            r"\bstd\s*::\s*(?:mutex|timed_mutex|recursive_mutex|"
            r"recursive_timed_mutex|shared_mutex|shared_timed_mutex|"
            r"condition_variable(?:_any)?|lock_guard|unique_lock|"
            r"scoped_lock|shared_lock)\b"
            r"|#\s*include\s*<(?:mutex|condition_variable|shared_mutex)>"
        ),
        "raw std synchronization primitive; use the annotated wrappers in "
        "txallo/common/sync.h (common::Mutex / MutexLock / CondVar)",
    ),
    "raw-thread": (
        re.compile(r"\bstd\s*::\s*j?thread\b|#\s*include\s*<thread>"),
        "raw std::thread; thread pools need an explicit "
        "`txallo-lint: allow(raw-thread)` so every spawn site is "
        "enumerable",
    ),
    "wall-clock": (
        re.compile(
            r"\bstd\s*::\s*rand\b|\bsrand\s*\(|\brandom_device\b"
            r"|\bsystem_clock\b|\bhigh_resolution_clock\b"
            r"|\btime\s*\(\s*(?:NULL|nullptr|0)\s*\)"
        ),
        "wall-clock / entropy source in a deterministic path; derive "
        "randomness from common/rng.h and timing from common/stopwatch.h",
    ),
}

# Declaration of an unordered container: capture the variable name that
# follows the closing template bracket(s). Handles the common shapes
#   std::unordered_map<K, V> name;   unordered_set<T> name_{...};
#   const std::unordered_map<K, V>& name = ...;
UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<[^;{}]*?>\s*"
    r"[&*\s]*([A-Za-z_]\w*)\s*(?:[;={(,)]|$)"
)

# Range-for: capture the range expression.
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;:)]*:\s*([^)]+)\)")


def strip_comments(text: str):
    """Returns (code_lines, escape_rules_per_line).

    code_lines[i] is line i with comment/string contents blanked (strings
    become empty literals so tokens inside them cannot match rules);
    escape_rules_per_line[i] is the set of rule ids an escape comment on
    line i allows.
    """
    code_lines = []
    escapes = []
    in_block = False
    for raw in text.splitlines():
        allowed = set()
        for m in ESCAPE_RE.finditer(raw):
            allowed.update(
                r.strip() for r in m.group(1).split(",") if r.strip()
            )
        escapes.append(allowed)

        out = []
        i = 0
        n = len(raw)
        in_line = False
        in_str = None  # the quote char when inside a literal
        while i < n:
            c = raw[i]
            if in_block:
                if raw.startswith("*/", i):
                    in_block = False
                    i += 2
                else:
                    i += 1
                continue
            if in_line:
                break
            if in_str:
                if c == "\\":
                    i += 2
                    continue
                if c == in_str:
                    out.append(c)
                    in_str = None
                    i += 1
                    continue
                i += 1
                continue
            if raw.startswith("//", i):
                in_line = True
                continue
            if raw.startswith("/*", i):
                in_block = True
                i += 2
                continue
            if c in "\"'":
                in_str = c
                out.append(c)
                i += 1
                continue
            out.append(c)
            i += 1
        code_lines.append("".join(out))
    return code_lines, escapes


def txallo_subpath(path: Path):
    """The path after the last `txallo/` component, or None."""
    parts = path.as_posix().split("/")
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "txallo":
            return "/".join(parts[i + 1 :])
    return None


def rules_for(subpath: str):
    """Which rule ids apply to a txallo-relative file path."""
    rules = set(TOKEN_RULES)
    rules.add("unordered-iter")
    if subpath == "common/sync.h":
        rules.discard("raw-sync")
    if subpath in (
        "common/rng.h",
        "common/rng.cc",
        "common/stopwatch.h",
        "common/stopwatch.cc",
    ):
        rules.discard("wall-clock")
    if not (
        subpath.startswith("engine/")
        or subpath.startswith("allocator/")
        or subpath.startswith("state/")
        or subpath.startswith("mempool/")
        or subpath.startswith("graph/")
        or subpath.startswith("chain/")
        or subpath.startswith("core/")
        or subpath.startswith("workload/")
    ):
        rules.discard("unordered-iter")
    return rules


def base_identifier(expr: str):
    """`coord_.outcomes()` / `state->map_` / `items` -> leading identifier."""
    m = re.match(r"\s*[&*(]*\s*([A-Za-z_]\w*)", expr)
    return m.group(1) if m else None


def lint_file(path: Path, display: Path):
    subpath = txallo_subpath(display)
    if subpath is None:
        return []
    active = rules_for(subpath)
    if not active:
        return []
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as err:
        print(f"determinism_lint: cannot read {display}: {err}",
              file=sys.stderr)
        sys.exit(2)
    code_lines, escapes = strip_comments(text)

    def allowed(lineno0: int, rule: str):
        if rule in escapes[lineno0]:
            return True
        # A standalone escape line covers the next line.
        if lineno0 > 0 and rule in escapes[lineno0 - 1]:
            if not code_lines[lineno0 - 1].strip():
                return True
        return False

    findings = []

    def report(lineno0: int, rule: str, message: str):
        if not allowed(lineno0, rule):
            findings.append((display, lineno0 + 1, rule, message))

    for lineno0, code in enumerate(code_lines):
        for rule, (pattern, message) in TOKEN_RULES.items():
            if rule in active and pattern.search(code):
                report(lineno0, rule, message)

    if "unordered-iter" in active:
        unordered_names = set()
        for code in code_lines:
            for m in UNORDERED_DECL_RE.finditer(code):
                unordered_names.add(m.group(1))
        message = (
            "range-for over an unordered container in a trace-affecting "
            "path; hash iteration order is nondeterministic — iterate a "
            "sorted copy instead"
        )
        for lineno0, code in enumerate(code_lines):
            for m in RANGE_FOR_RE.finditer(code):
                range_expr = m.group(1)
                if "unordered_" in range_expr:
                    report(lineno0, "unordered-iter", message)
                    continue
                base = base_identifier(range_expr)
                if base is not None and base in unordered_names:
                    report(lineno0, "unordered-iter", message)
    return findings


def collect_files(paths):
    files = []
    for arg in paths:
        p = Path(arg)
        if p.is_dir():
            files.extend(
                sorted(
                    f for f in p.rglob("*")
                    if f.suffix in CXX_SUFFIXES and f.is_file()
                )
            )
        elif p.is_file():
            files.append(p)
        else:
            print(f"determinism_lint: no such file or directory: {arg}",
                  file=sys.stderr)
            sys.exit(2)
    return files


def main(argv):
    parser = argparse.ArgumentParser(
        description="txallo determinism-contract linter (see module "
        "docstring for the rules)")
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories (default: src/)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule ids and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in sorted(list(TOKEN_RULES) + ["unordered-iter"]):
            print(rule)
        return 0

    paths = args.paths or ["src"]
    findings = []
    for f in collect_files(paths):
        findings.extend(lint_file(f, f))

    for display, lineno, rule, message in findings:
        print(f"{display}:{lineno}: [{rule}] {message}")
    if findings:
        print(f"determinism_lint: {len(findings)} violation(s)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
