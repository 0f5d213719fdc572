"""hot-path-text: no text formatting on the per-event path.

The simulator's per-request work runs inside event handlers, and text
formatting there is pure overhead: the trace renderer writes digits into
the caller's buffer with integer arithmetic, and the control bus carries
typed payloads instead of strings formatted with `snprintf` and parsed
back with `sscanf`.  A `std::ostringstream` costs a heap buffer, a locale
and a `str()` copy per use; in a replay that runs it per request it
dominated the wall time while a profiler of the executable alone could not
see it (the work runs in libstdc++).  This rule keeps formatting off that
path statically: any function in src/ reachable from an event-handler root
(a function that schedules or subscribes callbacks) that

  * names a `std::ostringstream` / `std::stringstream` object, or
  * calls `snprintf`, `sscanf` or `to_string`

is flagged with the handler path that reaches it.  bench/ is out of scope:
benchmarks format their reports on purpose.

Over-approximate by design (the call graph resolves by name, so a
same-named function elsewhere can pull a cold helper in); silence a
reviewed exception -- a failure message, one-off set-up -- with
// lint:allow(hot-path-text).
"""

from __future__ import annotations

from cppmodel import Finding, allowed_at

RULE = "hot-path-text"

RULE_DOCS = {
    RULE: (
        "handler-reachable code in src/ formats text (an ostringstream/"
        "stringstream object, or a snprintf/sscanf/to_string call); the "
        "per-event path renders with std::to_chars and passes typed "
        "payloads"
    ),
}

STREAM_TYPES = {"ostringstream", "stringstream"}
TEXT_CALLS = {"snprintf", "sscanf", "to_string"}

# Source roots whose files are out of scope (their top-level bucket).
EXEMPT_TOPS = {"bench"}


def _stream_uses(fn, tokens) -> list[tuple[str, int]]:
    """(type, line) of every stream-type token in the function's spans."""
    uses = []
    spans = [fn.body_span] + ([fn.init_span] if fn.init_span else [])
    for lo, hi in spans:
        for text, line in tokens[lo:hi]:
            if text in STREAM_TYPES:
                uses.append((text, line))
    return uses


def run(model) -> list[Finding]:
    findings: list[Finding] = []
    reach = model.handler_reachability()
    for fn in model.functions:
        chain = reach.get(id(fn))
        if chain is None:
            continue
        sf = model.file_of(fn)
        if sf.top in EXEMPT_TOPS:
            continue
        sites = {(f"std::{name} object", line)
                 for name, line in _stream_uses(fn, sf.tokens)}
        sites |= {(f"{call.name}(...) call", call.line)
                  for call in fn.calls if call.name in TEXT_CALLS}
        for what, line in sorted(sites, key=lambda s: (s[1], s[0])):
            if RULE in allowed_at(sf.allow, line):
                continue
            findings.append(
                Finding(
                    fn.file,
                    line,
                    RULE,
                    f"{what} in '{fn.qualified}', which event handlers "
                    "reach; render numbers with std::to_chars into the "
                    "caller's buffer and pass typed payloads instead",
                    list(chain) + [what],
                )
            )
    findings.sort(key=lambda f: f.sort_key())
    return findings
