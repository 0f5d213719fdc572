#!/usr/bin/env python3
"""xan_lint: the static-analysis CLI for the Xanadu codebase.

One command, one parse, every rule.  The shared cppmodel front end
(tools/cppmodel/) loads the source roots exactly once -- tokenizer, function
extraction, call graph, include graph, suppression comments -- and every
analysis under tools/analyses/ runs off that single SourceModel:

  determinism        line rules: random-device, libc-rand, wall-clock,
                     pointer-format, unordered-iteration, bare-assert,
                     priority-queue, friend-backdoor
  layering           include-graph rules over the root named src:
                     unknown-layer, missing-header, cpp-include, layering,
                     include-cycle, layer-skip
  flow               interprocedural dataflow: shared-rng-draw,
                     nondet-taint
  observer-purity    probe/digest observation paths that draw
                     from an Rng, call an engine mutator, or write state
                     folded into state_digest (static complement of the
                     golden-digest replay)
  hot-path-text      handler-reachable code in src/ that formats text
                     (ostringstream/stringstream objects, snprintf/sscanf/
                     to_string calls); the per-event path renders with
                     std::to_chars and passes typed bus payloads

`--rule <analysis>` (repeatable) runs only the named analyses.  Every rule
shares one suppression syntax on the offending line or the line above
(`// lint:allow(<rule>) justification`), and --list-rules prints the
catalogue.

Outputs: human-readable text (default); --json PATH and --sarif PATH write
the merged findings (the SARIF is what CI uploads to GitHub code
scanning); --dot PATH writes the layering figure of src/ as GraphViz DOT;
--draw-sites PATH writes the flow analysis's predicted Rng draw sites as
JSON (read by tests/rng_trace_test.cpp).  Exit status is 0 when no
unannotated findings remain, 1 otherwise, 2 on usage errors.  Run directly
(`tools/xan_lint.py src bench`) or via `ctest -R lint`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from analyses import ANALYSES, flow, layering
from cppmodel import Finding, SourceModel, write_json, write_sarif

TOOL_NAME = "xan_lint"


def run_all(model: SourceModel, names=tuple(ANALYSES)) -> list[Finding]:
    """The named analyses over one shared parse; merged, sorted findings."""
    findings: list[Finding] = []
    for name in names:
        findings += ANALYSES[name].run(model)
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
    parser.add_argument(
        "--rule", action="append", choices=ANALYSES, metavar="ANALYSIS",
        help="run only this analysis (repeatable): " + ", ".join(ANALYSES),
    )
    parser.add_argument("--json", metavar="PATH",
                        help="write the merged findings as JSON")
    parser.add_argument("--sarif", metavar="PATH",
                        help="write the merged findings as SARIF 2.1.0")
    parser.add_argument("--dot", metavar="PATH",
                        help="write the layering figure of src/ as DOT")
    parser.add_argument("--draw-sites", metavar="PATH",
                        help="write the predicted Rng draw sites as JSON")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    args = parser.parse_args(argv)
    names = list(dict.fromkeys(args.rule or ANALYSES))
    catalogue = {rule: doc for name in names
                 for rule, doc in ANALYSES[name].RULE_DOCS.items()}

    if args.list_rules:
        for rule, doc in sorted(catalogue.items()):
            print(f"{rule}: {doc}")
        return 0

    roots = [Path(r) for r in args.roots]
    for root in roots:
        if not root.is_dir():
            print(f"xan_lint: no such directory: {root}", file=sys.stderr)
            return 2

    model = SourceModel(roots).load()
    findings = run_all(model, names)

    if args.json:
        write_json(findings, Path(args.json))
    if args.sarif:
        write_sarif(findings, Path(args.sarif), TOOL_NAME, catalogue)
    if args.dot:
        Path(args.dot).write_text(layering.dot(model), encoding="utf-8")
    if args.draw_sites:
        sites = {"draw_sites": flow.predicted_draw_sites(model)}
        Path(args.draw_sites).write_text(
            json.dumps(sites, indent=2) + "\n", encoding="utf-8"
        )

    for finding in findings:
        print(finding)
    n_files = len(model.files)
    n_fns = len(model.functions)
    if findings:
        print(
            f"xan_lint: {len(findings)} unannotated finding(s) across "
            f"{n_files} files / {n_fns} functions / {len(catalogue)} rules; "
            "reviewed exceptions need // lint:allow(<rule>)",
            file=sys.stderr,
        )
        return 1
    print(
        f"xan_lint: OK ({n_files} files, {n_fns} functions, "
        f"{len(catalogue)} rules, one parse)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
