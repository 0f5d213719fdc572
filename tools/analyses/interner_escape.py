"""interner-escape: interner views must not be stored.

`StringInterner::view` hands out a string_view into the interner's
storage, valid for the interner's lifetime only.  Storing one in a member
(trailing-underscore naming convention, or through `this`), in a `static`,
or pushing it into a member container keeps a reference that can outlive
the interner; the stored form of an interned string is its `Symbol`.  This
rule reports the shape statically, with the flow path.

The analysis is statement-level taint inside each function (view
expressions and locals assigned from them), plus an interprocedural
fixpoint over *returners*: a function whose `return` statement carries a
view taints its call sites in every caller.

Over-approximate by design; silence a reviewed exception with
// lint:allow(interner-escape).
"""

from __future__ import annotations

import re

from cppmodel import Finding, allowed_at
from cppmodel.lexer import IDENT_RE

RULE = "interner-escape"

RULE_DOCS = {
    RULE: (
        "string_view into StringInterner storage stored in a member, "
        "static, or member container, which can outlive the interner; "
        "store the Symbol and call view() where the text is used"
    ),
}

# Methods whose result points into interner storage.
INTERNER_VIEW_METHODS = {"view"}

# Member-container operations that retain their argument.
CONTAINER_OPS = {
    "push_back",
    "emplace_back",
    "push_front",
    "insert",
    "emplace",
    "assign",
}

# Receivers treated as interners even without a seen declaration (the
# codebase's conventional names).
DEFAULT_INTERNER_RECEIVERS = {"interner_", "names_", "labels_"}

_MEMBER_RE = re.compile(r"\w_$")


def _statements(tokens, spans):
    """Yields (start, end) token index ranges for statements inside the
    given body spans, splitting on ';' and brace boundaries so nested
    blocks and lambda bodies segment naturally."""
    for span_start, span_end in spans:
        start = span_start
        depth = 0
        for i in range(span_start, span_end):
            t = tokens[i][0]
            if t == "(" or t == "[":
                depth += 1
            elif t == ")" or t == "]":
                depth -= 1
            elif depth == 0 and t in (";", "{", "}"):
                if i > start:
                    yield (start, i)
                start = i + 1
        if span_end > start:
            yield (start, span_end)


class _Analysis:
    def __init__(self, model):
        self.model = model
        self.interner_receivers = (
            set(model.interner_names) | DEFAULT_INTERNER_RECEIVERS
        )
        # id(fn) -> (origin description, chain) for functions whose return
        # value is a view.
        self.returners: dict[int, tuple[str, list[str]]] = {}
        self.findings: list[Finding] = []
        self._reported: set[tuple[str, int, str]] = set()

    # -- sources -----------------------------------------------------------

    def _call_sources(self, fn, calls_in_stmt):
        """(token index, origin description, chain) per source call in the
        statement."""
        out = []
        for c in calls_in_stmt:
            if c.is_method and c.receiver:
                recv = c.receiver[-1]
                if c.name in INTERNER_VIEW_METHODS and \
                        recv in self.interner_receivers:
                    out.append((
                        c.name_idx,
                        f"{recv}.{c.name}() at {fn.file}:{c.line}",
                        [],
                    ))
                    continue
            for callee in self.model.resolve_call(fn, c):
                ret = self.returners.get(id(callee))
                if ret is not None:
                    origin, chain = ret
                    out.append((
                        c.name_idx, origin,
                        chain + [f"{callee.qualified}()"],
                    ))
                    break
        return out

    # -- per-function scan --------------------------------------------------

    def scan_function(self, fn) -> bool:
        """One pass over fn's statements; returns True if fn became a new
        returner (the interprocedural fixpoint re-runs callers then)."""
        sf = self.model.file_of(fn)
        tokens = sf.tokens
        spans = []
        if fn.init_span is not None:
            spans.append(fn.init_span)
        spans.append(fn.body_span)
        calls_by_idx = sorted(fn.calls, key=lambda c: c.name_idx)
        tainted: dict[str, tuple[str, list[str]]] = {}
        became_returner = False
        for start, end in _statements(tokens, spans):
            stmt_calls = [
                c for c in calls_by_idx if start <= c.name_idx < end
            ]
            sources = self._call_sources(fn, stmt_calls)
            # References to already-tainted locals count as sources too.
            for i in range(start, end):
                t = tokens[i][0]
                if t in tainted:
                    origin, chain = tainted[t]
                    sources.append((i, origin, chain))
            if not sources:
                continue
            sources.sort(key=lambda s: s[0])
            first = tokens[start][0]
            line = tokens[start][1]
            if first == "return":
                if id(fn) not in self.returners:
                    _idx, origin, chain = sources[0]
                    self.returners[id(fn)] = (origin, chain)
                    became_returner = True
                continue
            # static local retaining a view.
            if first == "static":
                _idx, origin, chain = sources[0]
                self._report(fn, sf, line, origin, chain, "static local")
                continue
            # Member-container retention: x_.push_back(tainted).
            for c in stmt_calls:
                if c.name not in CONTAINER_OPS or not c.is_method \
                        or not c.receiver:
                    continue
                recv = c.receiver[-1]
                if not _MEMBER_RE.search(recv) and \
                        recv not in ("this",):
                    continue
                arg_sources = [
                    s for s in sources
                    if c.open_idx < s[0] < c.close_idx
                ]
                if arg_sources:
                    _idx, origin, chain = arg_sources[0]
                    self._report(
                        fn, sf, c.line, origin, chain,
                        f"member container '{recv}.{c.name}(...)'",
                    )
            # Assignment: member LHS escapes; simple-local LHS taints.
            eq = self._toplevel_assign(tokens, start, end)
            if eq is None:
                continue
            rhs_sources = [s for s in sources if s[0] > eq]
            if not rhs_sources:
                continue
            _idx, origin, chain = rhs_sources[0]
            lhs = [tokens[i][0] for i in range(start, eq)]
            member = "this" in lhs or any(
                _MEMBER_RE.search(t) for t in lhs if IDENT_RE.fullmatch(t)
            )
            if member:
                target = next(
                    (t for t in reversed(lhs)
                     if IDENT_RE.fullmatch(t) and _MEMBER_RE.search(t)),
                    "member",
                )
                self._report(
                    fn, sf, tokens[eq][1], origin, chain,
                    f"member '{target}'",
                )
            else:
                local = next(
                    (t for t in reversed(lhs) if IDENT_RE.fullmatch(t)
                     and t not in ("const", "auto")),
                    None,
                )
                if local is not None:
                    tainted.setdefault(local, (origin, chain))
        return became_returner

    @staticmethod
    def _toplevel_assign(tokens, start, end) -> int | None:
        """Index of the statement's top-level '=' (plain assignment only;
        compound operators and comparisons tokenize as single distinct
        tokens).  Skips '=' inside parens/brackets/braces -- call
        arguments, lambda captures, initializer lists."""
        depth = 0
        for i in range(start, end):
            t = tokens[i][0]
            if t in "([{":
                depth += 1
            elif t in ")]}":
                depth -= 1
            elif t == "=" and depth == 0:
                return i
        return None

    def _report(self, fn, sf, line, origin, chain, where) -> None:
        if RULE in allowed_at(sf.allow, line):
            return
        key = (fn.file, line, where)
        if key in self._reported:
            return
        self._reported.add(key)
        path = chain + [f"{fn.qualified}()"] if chain else \
            [f"{fn.qualified}()"]
        self.findings.append(
            Finding(
                fn.file,
                line,
                RULE,
                f"string_view into StringInterner storage ({origin}) "
                f"escapes into {where}, which can outlive the interner; "
                "store the Symbol instead",
                path + [where],
            )
        )


def run(model) -> list[Finding]:
    analysis = _Analysis(model)
    # Interprocedural fixpoint: each pass may discover new returners whose
    # callers then see new sources.  Findings are deduplicated per site, so
    # re-scanning is idempotent; the pass count is bounded by the longest
    # return-flow chain.
    for _ in range(8):
        analysis.findings.clear()
        analysis._reported.clear()
        changed = False
        for fn in model.functions:
            if analysis.scan_function(fn):
                changed = True
        if not changed:
            break
    analysis.findings.sort(key=lambda f: f.sort_key())
    return analysis.findings
