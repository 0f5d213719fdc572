"""The xan_lint analysis family: one module per interprocedural rule.

Each module exposes `run(model) -> list[Finding]` plus a RULE_DOCS dict;
`tools/xan_lint.py` runs them all off one shared cppmodel.SourceModel
parse and merges the reports.
"""

from __future__ import annotations

from . import (  # noqa: F401
    arena_escape,
    hot_path_text,
    observer_purity,
    shard_lookahead,
)

ALL_ANALYSES = (arena_escape, shard_lookahead, observer_purity, hot_path_text)
