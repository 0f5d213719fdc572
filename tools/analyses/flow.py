"""flow: interprocedural determinism dataflow.

The determinism analysis checks single lines; this one reasons across
function boundaries over the shared call graph, with two rules:

  shared-rng-draw   RNG stream lineage.  Every common::Rng draw site (next,
                    uniform, uniform_int, bernoulli, weighted_index,
                    exponential, normal, and the draw-consuming fork) is
                    traced back to its originating stream -- through
                    receiver members, Rng& parameters, and call edges.  A
                    draw on a *shared/ambient* stream (a member Rng of a
                    long-lived object, e.g. Cluster::rng_) that is reachable
                    from an event-handler context is an error: same-timestamp
                    (tied) events then race for draws, and firing order
                    decides which value lands where -- the exact mechanism of
                    the speculative provision-batch race the virtual-time
                    race detector pinned.  Deriving a stream with
                    fork_stream(stable_key) is always safe and never flagged.

  nondet-taint      Determinism taint.  Sources of nondeterminism (wall
                    clocks, getrusage/gettimeofday, pointer-to-integer
                    reinterpret_casts, unordered-container iteration order)
                    are propagated across call edges into sinks (metrics
                    trace/digest computation, event scheduling).  Findings
                    report the whole path: source -> f() -> g() -> sink.

Handler contexts are computed, not annotated: any function whose body
schedules or subscribes callbacks (schedule_after / schedule_at /
schedule_keyed / subscribe) is a handler root -- the lambdas it registers
run at event time, and token-level analysis attributes their bodies to the
enclosing function -- and everything transitively callable from a root is
handler-reachable.

Call edges resolve overload sets by argument arity, and call sites with an
explicit template argument list (`mix_jitter<double>(x, rng)`) additionally
filter by template-parameter compatibility -- such sites were invisible to
the pre-cppmodel extractor, a soundness hole.  When no definition admits a
site, the edge falls back to the whole overload set, keeping the analysis
over-approximate rather than unsound.

Both rules over-approximate by design; silence a reviewed exception with
// lint:allow(<rule>).  The taint rule also honours the narrower
lint:allow(unordered-iteration) / lint:allow(wall-clock) escapes at source
sites, so a line audited once is not annotated twice.

`predicted_draw_sites(model)` lists every textual Rng draw site
(`xan_lint.py --draw-sites PATH` writes it as JSON).  The XANADU_RNG_TRACE
build records the draw sites actually executed, and
tests/rng_trace_test.cpp diffs that observed set against this predicted
set: the analysis must be sound on src/ (no observed draw site it failed
to predict).
"""

from __future__ import annotations

import re

from cppmodel import (
    Finding,
    SourceModel,
    allowed_at,
    match_paren,
    split_args,
)

from .determinism import RANGE_FOR_RE

# Draw methods of common::Rng.  fork() consumes a parent draw, so it counts;
# fork_stream() derives a child from the stream id without touching state,
# so it does not.
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

# Call names treated as determinism sinks: values flowing here become part
# of the replayable artifact (trace, digest) or decide event interleaving.
SINK_EXACT = {"schedule_after", "schedule_at", "schedule_keyed"}
SINK_PATTERN = re.compile(r"^(trace\w*|\w*digest\w*)$")

# A receiver whose final component matches this is a member stream by the
# codebase's naming convention (rng_, bus_rng_, ...), independent of whether
# its declaration was seen.
MEMBER_RNG_NAME_RE = re.compile(r"(?:^|_)rng_$")

# Taint sources recognised per line (within function bodies).
TAINT_SOURCE_RULES = [
    (
        "wall-clock",
        re.compile(
            r"\b(?:system_clock|steady_clock|high_resolution_clock)\s*::"
            r"\s*now\b|\bgettimeofday\s*\(|\bgetrusage\s*\("
        ),
        "wall-clock / rusage read",
    ),
    (
        "pointer-cast",
        re.compile(
            r"\breinterpret_cast\s*<\s*(?:std\s*::\s*)?"
            r"(?:u?int(?:8|16|32|64|ptr)?_t|size_t|unsigned\s+long|"
            r"long\s+long|long)\s*>"
        ),
        "pointer-to-integer cast (ASLR-dependent value)",
    ),
]

RULE_DOCS = {
    "shared-rng-draw": (
        "Rng draw on a shared/ambient stream reachable from an event-"
        "handler context; fork_stream() a keyed per-entity stream instead"
    ),
    "nondet-taint": (
        "nondeterminism source (wall clock, pointer cast, unordered "
        "iteration) propagates across call edges into a trace/digest/"
        "scheduling sink"
    ),
}


def _rng_param_names(fn) -> list[str]:
    """Names of parameters whose declared type mentions Rng."""
    names: list[str] = []
    for group in fn.param_groups:
        if "Rng" not in group:
            continue
        idents = [t for t in group if re.fullmatch(r"[A-Za-z_]\w*", t)]
        while idents and idents[-1] in ("Rng", "common", "const", "xanadu"):
            idents.pop()
        if idents:
            names.append(idents[-1])
    return names


def _draws(fn) -> list:
    """The function's Rng draw call sites."""
    return [c for c in fn.calls if c.is_method and c.name in DRAW_METHODS]


class Analyzer:
    """The flow analyses over the shared cppmodel parse."""

    def __init__(self, model: SourceModel):
        self.model = model
        self.findings: list[Finding] = []
        # Per-function flow facts, keyed by id(fn).
        self._rng_params: dict[int, list[str]] = {}
        self._sinks: dict[int, list[tuple[str, int]]] = {}
        self._sources: dict[int, list[tuple[str, int, str]]] = {}
        # Rng& / Rng parameters currently known to alias a shared stream,
        # mapped to the (origin description, caller chain) that proved it.
        self._shared_params: dict[int, dict[str, tuple[str, list[str]]]] = {}
        for fn in model.functions:
            self._rng_params[id(fn)] = _rng_param_names(fn)
            self._sinks[id(fn)] = [
                (c.name, c.line)
                for c in fn.calls
                if c.name in SINK_EXACT or SINK_PATTERN.match(c.name)
            ]
            self._shared_params[id(fn)] = {}
        self.collect_taint_sources()

    def collect_taint_sources(self) -> None:
        """Assigns per-line taint sources to the function spanning them."""
        for sf in self.model.files:
            spans = sf.functions
            unordered = self.model.unordered_names_in_scope(sf)
            for index, line in enumerate(sf.code_lines):
                lineno = index + 1
                hits: list[tuple[str, str]] = []
                for kind, pattern, what in TAINT_SOURCE_RULES:
                    if pattern.search(line):
                        hits.append((kind, what))
                match = RANGE_FOR_RE.search(line)
                if match:
                    target = re.split(r"\.|->", match.group(1))[-1]
                    if target in unordered:
                        hits.append(
                            (
                                "unordered-iteration",
                                f"iteration over unordered '{target}'",
                            )
                        )
                if not hits:
                    continue
                suppressed = allowed_at(sf.allow, lineno)
                for kind, what in hits:
                    if (
                        "nondet-taint" in suppressed
                        or kind in suppressed
                    ):
                        continue
                    for fn in spans:
                        if fn.line <= lineno <= fn.end_line:
                            self._sources.setdefault(id(fn), []).append(
                                (kind, lineno, what)
                            )
                            break

    # -- interprocedural shared-stream parameter flow ---------------------

    def propagate_shared_params(self) -> None:
        """Marks Rng parameters that receive a member stream at some
        handler-reachable call site, transitively."""
        model = self.model
        changed = True
        while changed:
            changed = False
            for caller in model.functions:
                if model.handler_chain(caller) is None:
                    continue
                tokens = model.file_of(caller).tokens
                caller_shared = self._shared_params[id(caller)]
                for call in caller.calls:
                    callees = [
                        c
                        for c in model.resolve_call(caller, call)
                        if self._rng_params[id(c)]
                    ]
                    if not callees:
                        continue
                    close = match_paren(tokens, call.open_idx)
                    args = split_args(tokens, call.open_idx, close)
                    for callee in callees:
                        # Positional matching is impractical name-based;
                        # instead: any argument that is itself a shared
                        # stream taints every Rng param of the callee.
                        # Over-approximate, silenced per-line if wrong.
                        shared_arg = None
                        for arg in args:
                            for tok in arg:
                                if self.is_member_rng(tok):
                                    shared_arg = (
                                        tok,
                                        f"{caller.file}:{call.line}",
                                    )
                                    break
                                if tok in caller_shared:
                                    origin, _ = caller_shared[tok]
                                    shared_arg = (
                                        origin,
                                        f"{caller.file}:{call.line}",
                                    )
                                    break
                            if shared_arg:
                                break
                        if not shared_arg:
                            continue
                        callee_shared = self._shared_params[id(callee)]
                        for param in self._rng_params[id(callee)]:
                            if param in callee_shared:
                                continue
                            origin = (
                                f"{shared_arg[0]} (passed at {shared_arg[1]})"
                            )
                            callee_shared[param] = (
                                origin,
                                [f"{caller.qualified}()"],
                            )
                            changed = True

    def is_member_rng(self, name: str) -> bool:
        return bool(MEMBER_RNG_NAME_RE.search(name)) or (
            name in self.model.member_rng_names
        )

    # -- rules ------------------------------------------------------------

    def check_shared_rng_draws(self) -> None:
        for fn in self.model.functions:
            chain = self.model.handler_chain(fn)
            if chain is None:
                continue
            allow = self.model.file_of(fn).allow
            shared_params = self._shared_params[id(fn)]
            for draw in _draws(fn):
                receiver = draw.receiver
                if not receiver:
                    continue
                last = receiver[-1]
                shared = None
                path = list(chain)
                if self.is_member_rng(last):
                    shared = ".".join(receiver)
                elif last in shared_params:
                    origin, via = shared_params[last]
                    shared = f"{last} <- {origin}"
                    path = via + [f"{fn.qualified}()"]
                if shared is None:
                    continue
                if "shared-rng-draw" in allowed_at(allow, draw.line):
                    continue
                self.findings.append(
                    Finding(
                        fn.file,
                        draw.line,
                        "shared-rng-draw",
                        f"draw '{'.'.join(receiver)}.{draw.name}()' "
                        f"uses shared stream '{shared}' inside handler-"
                        "reachable code; same-timestamp events race for "
                        "draws -- fork_stream() a per-entity stream with a "
                        "stable key instead",
                        path + [f"{'.'.join(receiver)}.{draw.name}()"],
                    )
                )

    def check_taint(self) -> None:
        # Function-level propagation: a function is tainted if it contains
        # a source or calls a tainted function; a finding is a sink call in
        # a tainted function.
        model = self.model
        taint: dict[int, tuple[str, list[str]]] = {}
        worklist = []
        for fn in model.functions:
            sources = self._sources.get(id(fn))
            if sources:
                kind, line, what = sources[0]
                taint[id(fn)] = (
                    f"{what} [{kind}] at {fn.file}:{line}",
                    [f"{fn.qualified}()"],
                )
                worklist.append(fn)
        # Caller edges resolved per call site: arity (and template-argument
        # count) decide which overload a site can taint-propagate from.
        callers = model.callers()
        while worklist:
            fn = worklist.pop()
            origin, chain = taint[id(fn)]
            for caller, _site in callers.get(id(fn), ()):
                if id(caller) not in taint:
                    taint[id(caller)] = (
                        origin,
                        chain + [f"{caller.qualified}()"],
                    )
                    worklist.append(caller)
        for fn in model.functions:
            if id(fn) not in taint:
                continue
            origin, chain = taint[id(fn)]
            allow = model.file_of(fn).allow
            for sink_name, line in self._sinks[id(fn)]:
                if "nondet-taint" in allowed_at(allow, line):
                    continue
                self.findings.append(
                    Finding(
                        fn.file,
                        line,
                        "nondet-taint",
                        f"nondeterminism reaches sink '{sink_name}()': "
                        f"{origin}",
                        chain + [f"{sink_name}()"],
                    )
                )

    def run(self) -> None:
        self.propagate_shared_params()
        self.check_shared_rng_draws()
        self.check_taint()
        self.findings.sort(key=lambda f: (f.file, f.line, f.rule))


def run(model: SourceModel) -> list[Finding]:
    analyzer = Analyzer(model)
    analyzer.run()
    return analyzer.findings


def predicted_draw_sites(model: SourceModel) -> list[dict]:
    """Every textual Rng-draw site, with the line span of the full call
    expression (multi-line calls record their whole extent).  This is
    deliberately an over-approximation -- soundness means the runtime-
    observed set must be a subset of this one."""
    return [
        {
            "file": fn.file,
            "line": draw.line,
            "end_line": draw.end_line,
            "method": draw.name,
            "receiver": ".".join(draw.receiver),
            "function": fn.qualified,
        }
        for fn in model.functions
        for draw in _draws(fn)
    ]
