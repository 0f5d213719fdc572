"""shard-lookahead: cross-shard effects must route through the mailbox.

The conservative PDES contract: during a run, a shard may only affect
another shard by mailing over a declared channel
(`LogicalProcess::send(to, when, fn, label)`).  The round driver derives
each target's safe bound from the channel latencies and merges the mail
deterministically by `(when, source, index)`.  Scheduling directly into a
foreign shard's simulator -- or delivering a bridged message by hand --
bypasses both: the target may already have drained past that time on
another thread.  The runtime guards the mailbox path with the
channel-latency throw (a send below its channel's latency, or with no
channel declared) and the TSan job catches the data race, but only on
executed paths.  This rule is the static complement: any function
reachable from an event-handler root that calls a scheduling/publishing
API on a receiver that names another shard (remote_/peer_/other_...
receivers, `shard(i)`/`shards_[i]` chains) is flagged with the handler
path that reaches it.

`ShardedSimulator`'s own members are exempt (the round driver *is* the
mailbox implementation), as is `LogicalProcess` itself.

Over-approximate by design; silence a reviewed exception with
// lint:allow(shard-lookahead).
"""

from __future__ import annotations

import re

from cppmodel import Finding, allowed_at, receiver_expr

RULE = "shard-lookahead"

RULE_DOCS = {
    RULE: (
        "handler-reachable code schedules/publishes onto another shard "
        "without routing through the numbered mailbox "
        "(LogicalProcess::send); cross-shard effects outside the mailbox "
        "break the conservative PDES bounds and merge order"
    ),
}

# Calls that inject events or messages into a simulator/bus.  `send` is
# deliberately absent: LogicalProcess::send IS the blessed channel.
MONITORED_CALLS = {
    "schedule_at",
    "schedule_after",
    "publish",
    "run_before",
    "deliver_bridged",
}

# Classes that implement the mailbox/round machinery; their own bodies
# legitimately touch foreign shards.
EXEMPT_CLASSES = {"ShardedSimulator", "LogicalProcess", "ShardMailbox"}

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
        if fn.cls in EXEMPT_CLASSES:
            continue
        sf = model.file_of(fn)
        tokens = sf.tokens
        # Argument spans of mailbox sends in this function: a monitored
        # call lexically inside one is the *body of the closure being
        # mailed* -- it executes on the target shard after the window
        # merge, which is exactly the blessed route.
        send_spans = [
            (c.open_idx, c.close_idx)
            for c in fn.calls
            if c.name == "send" and c.is_method
        ]
        for call in fn.calls:
            if call.name not in MONITORED_CALLS:
                continue
            if any(lo < call.name_idx < hi for lo, hi in send_spans):
                continue
            if not call.is_method:
                # deliver_bridged is only ever a method; a free publish/
                # schedule call has no receiver to be foreign.
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
                    "from handler-reachable code without the numbered "
                    "mailbox; use LogicalProcess::send(to, when, fn, "
                    "label) so the window driver merges it "
                    "deterministically",
                    list(chain) + [f"{receiver}.{call.name}()"],
                )
            )
    findings.sort(key=lambda f: f.sort_key())
    return findings
