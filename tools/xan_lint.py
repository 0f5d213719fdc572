#!/usr/bin/env python3
"""xan_lint: the unified static-analysis driver for the Xanadu codebase.

One command, one parse, every rule.  The shared cppmodel front end
(tools/cppmodel/) loads src/ + bench/ exactly once -- tokenizer, function
extraction, call graph, include graph, suppression comments -- and the
whole analysis family runs off that single SourceModel:

  determinism_lint   line rules: random-device, libc-rand, wall-clock,
                     pointer-format, unordered-iteration, bare-assert,
                     priority-queue, friend-backdoor
  layer_lint         include-graph rules over src/ (strict): unknown-layer,
                     missing-header, cpp-include, layering, include-cycle,
                     layer-skip
  flow_lint          interprocedural dataflow: shared-rng-draw,
                     nondet-taint
  arena-escape       request-lifetime Arena/StringInterner storage escaping
                     into members/statics/member containers that outlive
                     reset_for_reuse (static complement of the ASan
                     use-after-reset death tests)
  shard-lookahead    handler-reachable scheduling/publishing onto another
                     shard outside the numbered mailbox (static complement
                     of the runtime channel-latency throw and the TSan job)
  observer-purity    PolicyView/probe/digest observation paths that draw
                     from an Rng, call an engine mutator, or write state
                     folded into state_digest (static complement of the
                     golden-digest replay)
  hot-path-text      handler-reachable code in src/ that formats text
                     (ostringstream/stringstream objects, snprintf/sscanf/
                     to_string calls); the per-event path renders with
                     std::to_chars and passes typed bus payloads

Every rule shares the same suppression syntax on the offending line or the
line above (`// lint:allow(<rule>) justification`; flow-lint:allow is a
synonym), and the full catalogue prints with --list-rules.

Outputs: human-readable text (default), --json PATH and --sarif PATH write
the single merged machine-readable report covering all analyses (the SARIF
is what CI uploads to GitHub code scanning).  Exit status is 0 when no
unannotated findings remain, 1 otherwise, 2 on usage errors.  Run directly
(`tools/xan_lint.py src bench`) or via `ctest -R xan_lint`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import determinism_lint
import flow_lint
import layer_lint
from analyses import ALL_ANALYSES
from cppmodel import Finding, SourceModel, write_json, write_sarif

TOOL_NAME = "xan_lint"


def rule_catalogue() -> dict[str, str]:
    docs: dict[str, str] = {}
    docs.update(determinism_lint.RULE_DOCS)
    docs.update(layer_lint.RULE_DOCS)
    docs.update(flow_lint.RULE_DOCS)
    for mod in ALL_ANALYSES:
        docs.update(mod.RULE_DOCS)
    return docs


def run_all(model: SourceModel, strict_layers: bool = True,
            layer_root: str = "src") -> list[Finding]:
    """Every analysis over one shared parse; merged, sorted findings."""
    findings: list[Finding] = []
    findings += determinism_lint.run_on_model(model)
    layer_findings, _edges = layer_lint.run_on_model(
        model, strict=strict_layers, root_name=layer_root
    )
    findings += layer_findings
    flow_findings, _analyzer = flow_lint.run_on_model(model)
    findings += flow_findings
    for mod in ALL_ANALYSES:
        findings += mod.run(model)
    findings.sort(key=lambda f: f.sort_key())
    return findings


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "roots",
        nargs="*",
        default=["src", "bench"],
        help="source roots to scan (default: src bench)",
    )
    parser.add_argument("--json", metavar="PATH",
                        help="write the merged findings as JSON")
    parser.add_argument("--sarif", metavar="PATH",
                        help="write the merged findings as SARIF 2.1.0")
    parser.add_argument(
        "--no-strict-layers",
        action="store_true",
        help="run the layer rules without the strict deep-skip check",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the full rule catalogue and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, doc in sorted(rule_catalogue().items()):
            print(f"{rule}: {doc}")
        return 0

    roots = [Path(r) for r in (args.roots or ["src", "bench"])]
    for root in roots:
        if not root.is_dir():
            print(f"xan_lint: no such directory: {root}", file=sys.stderr)
            return 2

    model = SourceModel(roots).load()
    findings = run_all(
        model, strict_layers=not args.no_strict_layers
    )

    if args.json:
        write_json(findings, Path(args.json))
    if args.sarif:
        write_sarif(
            findings, Path(args.sarif), TOOL_NAME, rule_catalogue(),
            information_uri="tools/xan_lint.py",
        )

    for finding in findings:
        print(finding)
    n_files = len(model.files)
    n_fns = len(model.functions)
    n_rules = len(rule_catalogue())
    if findings:
        print(
            f"xan_lint: {len(findings)} unannotated finding(s) across "
            f"{n_files} files / {n_fns} functions / {n_rules} rules; "
            "reviewed exceptions need // lint:allow(<rule>)",
            file=sys.stderr,
        )
        return 1
    print(
        f"xan_lint: OK ({n_files} files, {n_fns} functions, {n_rules} "
        "rules, one parse)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
