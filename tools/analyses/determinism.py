"""determinism: line rules for constructs that break seed replay.

The whole reproduction rests on the claim that two runs with the same seed
produce bit-identical traces.  These rules make that claim machine-checked
by scanning each line for constructs that silently break it:

  random-device        std::random_device (non-deterministic entropy source)
  libc-rand            rand()/srand(), bare or std::/::-qualified (hidden
                       global state, seeding by time); member calls and
                       other scopes' rand are not libc's
  wall-clock           std::chrono::{system,steady,high_resolution}_clock
                       (real time leaking into virtual-time code)
  pointer-format       %p in a format string (ASLR leaks addresses into
                       output, so traces differ across runs)
  unordered-iteration  range-for over a std::unordered_{map,set} member in an
                       ordering-sensitive directory (sim/, platform/, core/):
                       iteration order is unspecified and can change across
                       standard-library versions, so anything observable must
                       not depend on it.  A name counts as unordered only in
                       the file declaring it and the files including that
                       file, directly or transitively
  bare-assert          assert() in an ordering-sensitive directory: the
                       default RelWithDebInfo build defines NDEBUG, which
                       compiles the check away; use XANADU_INVARIANT instead
  priority-queue       std::priority_queue in src/sim: the event queue is a
                       slab-backed d-ary heap ordered by the total
                       (when, seq) key.  priority_queue hides its container,
                       which forbids tombstone compaction, forces a
                       const_cast to move callbacks out of top(), and makes
                       heap shape (not the total order) tempting to rely on
  friend-backdoor      friend declarations in src/platform: the engine and
                       its subsystems (warm pool, provision pipeline)
                       interact only through their public interfaces and
                       explicit hook structs; a friend edge would let one
                       subsystem mutate another's private state behind the
                       seams the decomposition established

Silence a reviewed exception with // lint:allow(<rule>).
"""

from __future__ import annotations

import re

from cppmodel import Finding, SourceModel, allowed_at

# Directories (relative to a scanned source root; a root whose files sit
# directly at its top level, like bench/, counts under its own name) whose
# event ordering is observable: anything here feeds the simulator's event
# interleaving, the learned models, or emitted reports, so unordered-
# container iteration order must not leak out.
ORDER_SENSITIVE_DIRS = (
    "sim",
    "platform",
    "core",
    "workload",
    "workflow",
    "cluster",
    "metrics",
    "bench",
)

# Simple line-level rules: (rule, regex, message).
LINE_RULES = [
    (
        "random-device",
        re.compile(r"\brandom_device\b"),
        "std::random_device is a non-deterministic entropy source; seed an "
        "explicit common::Rng instead",
    ),
    (
        "libc-rand",
        re.compile(r"(?<![\w.:])(?<!->)(?:(?:std\s*)?::\s*)?s?rand\s*\("),
        "rand()/srand() use hidden global state; use common::Rng streams",
    ),
    (
        "wall-clock",
        re.compile(r"\b(system_clock|steady_clock|high_resolution_clock)\b"),
        "wall-clock time must not leak into the simulation; use sim::TimePoint",
    ),
    (
        "pointer-format",
        re.compile(r'"[^"\n]*%p[^"\n]*"'),
        "%p formats an ASLR-randomised address; print a stable id instead",
    ),
]

RANGE_FOR_RE = re.compile(
    r"\bfor\s*\([^;()]*?:\s*(?:this->)?([A-Za-z_][\w.\->]*)\s*\)"
)
BARE_ASSERT_RE = re.compile(r"(?<![\w.])assert\s*\(")

# Directories (relative to the scanned source root) where std::priority_queue
# is banned outright -- the simulator's event queue must stay the auditable
# slab/d-ary-heap implementation (see ARCHITECTURE.md "Event-queue design").
PRIORITY_QUEUE_DIRS = ("sim",)
PRIORITY_QUEUE_RE = re.compile(r"\bpriority_queue\b")

# Directories (relative to the scanned source root) where `friend` is banned:
# the platform subsystems must talk through public interfaces and hook
# structs only (see ARCHITECTURE.md "Engine decomposition").
FRIEND_DIRS = ("platform",)
FRIEND_RE = re.compile(r"\bfriend\b")

RULE_DOCS = {
    rule: message for rule, _pattern, message in LINE_RULES
}
RULE_DOCS.update(
    {
        "unordered-iteration": (
            "range-for over an unordered container in an ordering-"
            "sensitive directory; use a sorted snapshot or an order-"
            "insensitive reduction"
        ),
        "bare-assert": (
            "assert() vanishes under RelWithDebInfo (NDEBUG); use "
            "XANADU_INVARIANT / XANADU_AUDIT from sim/audit.hpp"
        ),
        "priority-queue": (
            "std::priority_queue is banned in src/sim; keep the slab-"
            "backed d-ary heap"
        ),
        "friend-backdoor": (
            "friend is banned in src/platform; subsystems interact through "
            "public interfaces and hook structs"
        ),
    }
)


def run(model: SourceModel) -> list[Finding]:
    findings: list[Finding] = []
    for sf in model.files:
        sensitive = sf.top in ORDER_SENSITIVE_DIRS
        unordered = model.unordered_names_in_scope(sf) if sensitive else set()
        pq_banned = sf.top in PRIORITY_QUEUE_DIRS
        friend_banned = sf.top in FRIEND_DIRS
        for index, code in enumerate(sf.code_lines):
            lineno = index + 1
            raw = sf.raw_lines[index] if index < len(sf.raw_lines) else code
            allowed = allowed_at(sf.allow, lineno)

            for rule, pattern, message in LINE_RULES:
                haystack = raw if rule == "pointer-format" else code
                if pattern.search(haystack) and rule not in allowed:
                    findings.append(
                        Finding(sf.display, lineno, rule, message)
                    )

            if (
                pq_banned
                and PRIORITY_QUEUE_RE.search(code)
                and "priority-queue" not in allowed
            ):
                findings.append(
                    Finding(
                        sf.display,
                        lineno,
                        "priority-queue",
                        "std::priority_queue is banned in src/sim: keep the "
                        "slab-backed d-ary heap (supports tombstone "
                        "compaction and moving callbacks out without "
                        "const_cast)",
                    )
                )

            if (
                friend_banned
                and FRIEND_RE.search(code)
                and "friend-backdoor" not in allowed
            ):
                findings.append(
                    Finding(
                        sf.display,
                        lineno,
                        "friend-backdoor",
                        "friend is banned in src/platform: subsystems "
                        "interact through public interfaces and hook "
                        "structs, never by reaching into each other's "
                        "private state",
                    )
                )

            if not sensitive:
                continue

            match = RANGE_FOR_RE.search(code)
            if match and "unordered-iteration" not in allowed:
                # The range expression's trailing identifier (after any
                # . or ->).
                target = re.split(r"\.|->", match.group(1))[-1]
                if target in unordered:
                    findings.append(
                        Finding(
                            sf.display,
                            lineno,
                            "unordered-iteration",
                            f"iterating '{target}', an unordered container, "
                            "in an ordering-sensitive directory; use a "
                            "sorted snapshot or an order-insensitive "
                            "reduction",
                        )
                    )

            if BARE_ASSERT_RE.search(code) and "bare-assert" not in allowed:
                if "static_assert" not in code:
                    findings.append(
                        Finding(
                            sf.display,
                            lineno,
                            "bare-assert",
                            "assert() vanishes under RelWithDebInfo "
                            "(NDEBUG); use XANADU_INVARIANT / XANADU_AUDIT "
                            "from sim/audit.hpp",
                        )
                    )
    findings.sort(key=lambda f: f.sort_key())
    return findings

