"""The xan_lint analysis family: one module per analysis.

Each module exposes `run(model) -> list[Finding]` plus a RULE_DOCS dict;
`tools/xan_lint.py` runs them off one shared cppmodel.SourceModel parse
and merges the reports.  ANALYSES maps each analysis's `--rule` name to
its module.
"""

from __future__ import annotations

from . import determinism, flow, hot_path_text, layering, observer_purity

ANALYSES = {
    "determinism": determinism,
    "layering": layering,
    "flow": flow,
    "observer-purity": observer_purity,
    "hot-path-text": hot_path_text,
}
