"""shard-lookahead: a shard never schedules or publishes onto another shard.

Sharded runs share nothing: each tenant shard owns its simulator, cluster,
engine and control bus, and `sim::fork_join` runs each shard's whole
lifecycle as one task on whichever thread it lands on.  Nothing orders one
shard's events against another's, so scheduling into a foreign shard's
simulator -- or publishing on its bus -- is a data race between threads
and makes the target's trace depend on thread timing.  The TSan job
catches the race, but only on executed paths.  This rule is the static
complement: any function reachable from an event-handler root that calls
a scheduling/publishing API on a receiver that names another shard
(remote_/peer_/other_... receivers, `shard(i)`/`shards_[i]` chains) is
flagged with the handler path that reaches it.

Over-approximate by design; silence a reviewed exception with
// lint:allow(shard-lookahead).
"""

from __future__ import annotations

import re

from cppmodel import Finding, allowed_at, receiver_expr

RULE = "shard-lookahead"

RULE_DOCS = {
    RULE: (
        "handler-reachable code schedules/publishes onto another shard; "
        "shards share nothing and run on different threads, so a "
        "cross-shard effect is a data race and makes the target's trace "
        "depend on thread timing"
    ),
}

# Calls that inject events or messages into a simulator/bus, or drain one.
MONITORED_CALLS = {
    "schedule_at",
    "schedule_after",
    "publish",
    "run_before",
}

# A receiver-expression token that names another shard.
FOREIGN_TOKEN_RE = re.compile(
    r"^(?:remote|peer|foreign|other|neighbor)\w*$|^shards?_?$"
)


def _is_foreign(expr_tokens: list[str]) -> bool:
    return any(FOREIGN_TOKEN_RE.match(t) for t in expr_tokens)


def run(model) -> list[Finding]:
    findings: list[Finding] = []
    reach = model.handler_reachability()
    for fn in model.functions:
        chain = reach.get(id(fn))
        if chain is None:
            continue
        sf = model.file_of(fn)
        tokens = sf.tokens
        for call in fn.calls:
            if call.name not in MONITORED_CALLS:
                continue
            if not call.is_method:
                # A free publish/schedule call has no receiver to be
                # foreign.
                continue
            expr = receiver_expr(tokens, call.name_idx - 1)
            if not _is_foreign(expr):
                continue
            if RULE in allowed_at(sf.allow, call.line):
                continue
            receiver = "".join(expr) if expr else "<receiver>"
            findings.append(
                Finding(
                    fn.file,
                    call.line,
                    RULE,
                    f"'{receiver}.{call.name}(...)' targets another shard "
                    "from handler-reachable code; shards share nothing, so "
                    "keep the effect on this shard's own simulator and bus",
                    list(chain) + [f"{receiver}.{call.name}()"],
                )
            )
    findings.sort(key=lambda f: f.sort_key())
    return findings
