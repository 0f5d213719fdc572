"""observer-purity: observation must not perturb the replayable state.

The `ProbeRegistry` samplers and the digest functions (`state_digest`,
`membership_digest`, `register_probes`) exist so that *observing* a run
cannot change it -- the golden-digest replay tests and the race
detector's divergence digest depend on it.  The runtime enforces this
only indirectly (a digest divergence after the fact); this rule enforces
it statically: anything reachable from an observation root that

  * draws from an Rng (stream state is folded into replay),
  * calls an engine mutator (scheduling, publishing, interning,
    prewarm/shrink/crash operations, record_* notifications), or
  * writes a member (trailing-underscore convention, `++`/`--`/
    assignment/compound assignment)

is flagged with the root-to-violation path.

`ProbeRegistry::add` is exempt as an edge target (registering a probe
mutates the registry, not the simulation), and `Rng` internals are not
traversed (a draw is already flagged at its call site).

Over-approximate by design; silence a reviewed exception with
// lint:allow(observer-purity).
"""

from __future__ import annotations

import re

from cppmodel import Finding, allowed_at
from cppmodel.lexer import IDENT_RE

RULE = "observer-purity"

RULE_DOCS = {
    RULE: (
        "code reachable from a probe/digest observation root "
        "draws from an Rng, calls an engine mutator, or writes state "
        "folded into state_digest; observation must not perturb replay"
    ),
}

# Observation roots.
ROOT_QUALIFIED = {
    "ProbeRegistry::sample",
    "ProbeRegistry::digest",
}
ROOT_NAMES = {"state_digest", "membership_digest", "register_probes"}

DRAW_METHODS = {
    "next",
    "uniform",
    "uniform_int",
    "bernoulli",
    "weighted_index",
    "exponential",
    "normal",
    "fork",
}

MUTATOR_CALLS = {
    "schedule_at",
    "schedule_after",
    "schedule_keyed",
    "reserve_key",
    "subscribe",
    "publish",
    "send",
    "intern",
    "cancel",
    "prewarm_function",
    "shrink_warm_pool",
    "flush_all",
    "crash_worker",
    "record_arrival",
    "record_completion",
    "record_execution",
    "record_worker_ready",
    "record_failure",
    "reset",
    "reset_for_reuse",
}

# Member-container operations: mutating a trailing-underscore receiver.
CONTAINER_MUTATORS = {
    "push_back",
    "emplace_back",
    "push_front",
    "insert",
    "emplace",
    "erase",
    "clear",
    "assign",
    "resize",
    "pop_back",
}

_MEMBER_RE = re.compile(r"\w_$")

# Tokens that write through to their left-hand side.  Compound operators
# tokenize as single tokens, so '=' here is exactly plain assignment.
WRITE_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
             "<<=", ">>="}
INCDEC_OPS = {"++", "--"}


def _roots(model):
    return [fn for fn in model.functions
            if fn.qualified in ROOT_QUALIFIED or fn.name in ROOT_NAMES]


def _skip_edge(_caller, _call, callee) -> bool:
    # Registering a probe mutates the registry, not the simulation; Rng
    # internals are not traversed (the draw call site itself is flagged).
    if callee.qualified == "ProbeRegistry::add":
        return True
    if callee.cls == "Rng":
        return True
    return False


def _member_writes(tokens, spans):
    """(line, member name, op) for writes to trailing-underscore
    identifiers inside the given token spans."""
    out = []
    for start, end in spans:
        for i in range(start, end):
            t, line = tokens[i]
            if not IDENT_RE.fullmatch(t) or not _MEMBER_RE.search(t):
                continue
            nxt = tokens[i + 1][0] if i + 1 < end else ""
            prev = tokens[i - 1][0] if i > start else ""
            if nxt in WRITE_OPS:
                # `[x_ = init]` is a lambda init-capture, not a member
                # write; the capture copies.
                if prev in ("[", ","):
                    continue
                out.append((line, t, nxt))
            elif nxt in INCDEC_OPS or prev in INCDEC_OPS:
                out.append((line, t, nxt if nxt in INCDEC_OPS else prev))
    return out


def run(model) -> list[Finding]:
    findings: list[Finding] = []
    reach = model.reachable_from(_roots(model), skip_edge=_skip_edge)
    reported: set[tuple[str, int, str]] = set()

    def report(fn, sf, line, what, leaf):
        if RULE in allowed_at(sf.allow, line):
            return
        key = (fn.file, line, leaf)
        if key in reported:
            return
        reported.add(key)
        findings.append(
            Finding(
                fn.file,
                line,
                RULE,
                f"{what} inside observation-reachable code; probe/"
                "digest paths must be pure reads or the golden-digest "
                "replay diverges",
                list(reach[id(fn)]) + [leaf],
            )
        )

    for fn in model.functions:
        if id(fn) not in reach:
            continue
        sf = model.file_of(fn)
        for call in fn.calls:
            if call.is_method and call.name in DRAW_METHODS and \
                    call.receiver:
                receiver = ".".join(call.receiver)
                report(
                    fn, sf, call.line,
                    f"Rng draw '{receiver}.{call.name}()' "
                    "(stream state advances)",
                    f"{receiver}.{call.name}()",
                )
                continue
            if call.name in MUTATOR_CALLS:
                report(
                    fn, sf, call.line,
                    f"engine mutator call '{call.name}(...)'",
                    f"{call.name}()",
                )
                continue
            if call.name in CONTAINER_MUTATORS and call.is_method and \
                    call.receiver and \
                    _MEMBER_RE.search(call.receiver[-1]):
                receiver = ".".join(call.receiver)
                report(
                    fn, sf, call.line,
                    f"member container mutation '{receiver}."
                    f"{call.name}(...)'",
                    f"{receiver}.{call.name}()",
                )
        spans = []
        if fn.init_span is not None:
            spans.append(fn.init_span)
        spans.append(fn.body_span)
        for line, member, op in _member_writes(sf.tokens, spans):
            report(
                fn, sf, line,
                f"member write '{member} {op}'",
                f"{member} {op}",
            )
    findings.sort(key=lambda f: f.sort_key())
    return findings
