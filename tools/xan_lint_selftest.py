#!/usr/bin/env python3
"""Self-test for the xan_lint analyses against the known-bad / known-good
fixtures in tools/fixtures/.

The analyses guard the repo's determinism contract and correctness
contracts the runtime only checks opportunistically (ASan death tests, the
channel-latency throw + TSan, golden-digest replay), so each rule gets the
same treatment as the code it guards: a regression suite that fails if the
rule goes silent on its distilled bug or noisy on the fixed form.

tools/fixtures/flow_lint/:
  bad_shared_stream.cpp        the pre-fix speculative provision-batch race
                               (shared member stream drawn inside a tied
                               handler) -- shared-rng-draw must fire with
                               the full root -> callee -> draw path
  bad_param_flow.cpp           the same hazard hidden behind an Rng&
                               parameter -- must fire via interprocedural
                               lineage
  bad_clock_taint.cpp          wall-clock read feeding a digest across a
                               call edge -- nondet-taint must fire with the
                               source -> f() -> sink path
  overload_arity.cpp           same-named overloads with different arity:
                               only the handler calling the drawing 1-arg
                               overload may appear in the finding's path
  suppressed.cpp               both hazards carrying lint:allow escapes --
                               the flow rules must be silent
  good_keyed_fork.cpp          the post-fix fork_stream(stable_key) shape --
                               must be silent, its draw still predicted

tools/fixtures/xan_lint/:
  bad_arena_member_escape.cpp  pre-fix PR-7 shape: arena allocation cached
                               on a member -- arena-escape must fire
  bad_arena_return_flow.cpp    interner view escaping through a helper's
                               return into a member container --
                               arena-escape must fire with the return-flow
                               path
  good_arena_reset_rebind.cpp  post-fix shape (rebind + value copies) --
                               must be silent
  bad_shard_direct_send.cpp    cross-shard schedules (direct peer
                               simulator + shard(i) chain) --
                               shard-lookahead must fire twice
  good_shard_local.cpp         schedules, publishes and drains on its own
                               simulator and bus only -- must be silent
  bad_observer_mutation.cpp    state_digest accessor that bumps a
                               counter and draws jitter -- observer-purity
                               must fire twice
  good_observer_pure.cpp       pure accessors + pure probe samplers --
                               must be silent
  bad_hot_path_text.cpp        pre-fix per-request text: an ostringstream
                               row renderer and an snprintf/sscanf bus
                               payload, all handler-reachable --
                               hot-path-text must fire three times
  good_hot_path_chars.cpp      to_chars rows, typed payloads, and text
                               formatting no handler reaches -- must be
                               silent
  template_overload.cpp        overload set via template: the explicit-
                               template call site must edge into the
                               template definition (shared-rng-draw fires
                               through it) and per-instantiation
                               resolution must keep the pure-overload
                               handler out of the path
  libc_rand.cpp                bare, std:: and ::-qualified rand/srand --
                               libc-rand must fire on exactly those lines,
                               never on member calls or another scope's rand
  suppressed.cpp               one silenced instance of each
                               interprocedural rule -- must be silent

Each fixture directory runs through xan_lint.run_all, and no finding
may land outside its fixture files.  Over src/, the layering analysis
must render exactly the committed docs/layering.dot and report a stale
allowlist entry at its own line, and draw-site prediction must be
non-empty.  The clean gate over src/ + bench/ is the xan_lint CTest.

Run directly (`tools/xan_lint_selftest.py`), or via
`ctest -R xan_lint_selftest`.
"""

from __future__ import annotations

import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
sys.path.insert(0, str(TOOLS))

import xan_lint  # noqa: E402
from analyses import ANALYSES, flow, layering  # noqa: E402
from cppmodel import SourceModel  # noqa: E402


def check(condition: bool, label: str, failures: list[str]) -> None:
    print(("PASS" if condition else "FAIL") + f"  {label}")
    if not condition:
        failures.append(label)


def drive(name: str, failures: list[str]):
    """One fixture directory through xan_lint.run_all: its model, and each
    analysis's findings grouped by fixture file name."""
    root = TOOLS / "fixtures" / name
    model = SourceModel([root]).load()
    findings = xan_lint.run_all(model)
    stray = [f for f in findings if not f.file.startswith(str(root))]
    for finding in stray:
        print(f"      unexpected: {finding}")
    check(not stray, f"run_all over fixtures/{name} reports only fixture "
          "files", failures)
    grouped: dict[str, dict[str, list]] = {a: {} for a in ANALYSES}
    for finding in findings:
        for analysis, module in ANALYSES.items():
            if finding.rule in module.RULE_DOCS:
                grouped[analysis].setdefault(
                    Path(finding.file).name, []).append(finding)
    return model, grouped


def main() -> int:
    failures: list[str] = []
    flow_model, flow_grouped = drive("flow_lint", failures)
    model, grouped = drive("xan_lint", failures)
    arena = grouped["arena-escape"]
    shard = grouped["shard-lookahead"]
    observer = grouped["observer-purity"]
    text = grouped["hot-path-text"]

    # --- bad_shared_stream: the distilled speculative-batch race. ---------
    by_file = flow_grouped["flow"]
    found = by_file.get("bad_shared_stream.cpp", [])
    check(
        len(found) == 1 and found[0].rule == "shared-rng-draw",
        "bad_shared_stream fires shared-rng-draw exactly once",
        failures,
    )
    if found:
        path = " -> ".join(found[0].path)
        check(
            "speculate_batch" in path
            and "daemon_build_sandbox" in path
            and "sample_provision_latency" in path
            and path.endswith("rng_.normal()"),
            "bad_shared_stream path walks root -> daemon -> sample -> draw",
            failures,
        )
        check(
            "rng_" in found[0].message,
            "bad_shared_stream names the shared stream",
            failures,
        )

    # --- bad_param_flow: lineage through an Rng& parameter. ---------------
    found = by_file.get("bad_param_flow.cpp", [])
    check(
        len(found) == 1 and found[0].rule == "shared-rng-draw",
        "bad_param_flow fires shared-rng-draw exactly once",
        failures,
    )
    if found:
        check(
            "jitter_helper" in " -> ".join(found[0].path)
            and "rng_" in found[0].message,
            "bad_param_flow traces the member stream into the helper",
            failures,
        )

    # --- bad_clock_taint: source -> call edge -> sink. --------------------
    found = by_file.get("bad_clock_taint.cpp", [])
    check(
        len(found) == 1 and found[0].rule == "nondet-taint",
        "bad_clock_taint fires nondet-taint exactly once",
        failures,
    )
    if found:
        path = " -> ".join(found[0].path)
        check(
            "stamp_millis" in path
            and "emit_report" in path
            and path.endswith("trace_digest()"),
            "bad_clock_taint path reports source -> f() -> sink",
            failures,
        )

    # --- overload_arity: arity-resolved call graph. -----------------------
    found = by_file.get("overload_arity.cpp", [])
    check(
        len(found) == 1 and found[0].rule == "shared-rng-draw",
        "overload_arity fires shared-rng-draw exactly once",
        failures,
    )
    if found:
        path = " -> ".join(found[0].path)
        check(
            "on_mix_tick" in path,
            "overload_arity path roots at the handler calling the 1-arg "
            "overload",
            failures,
        )
        check(
            "on_mix_request" not in path,
            "overload_arity keeps the 2-arg-only handler out of the path",
            failures,
        )

    # --- suppressed + good flow fixtures stay silent. ---------------------
    check(
        not by_file.get("suppressed.cpp"),
        "suppressed.cpp is silent for the flow rules (lint:allow honoured)",
        failures,
    )
    check(
        not by_file.get("good_keyed_fork.cpp"),
        "good_keyed_fork.cpp is silent (fork_stream never flagged)",
        failures,
    )
    check(
        any(
            Path(s["file"]).name == "good_keyed_fork.cpp"
            and s["method"] == "normal"
            for s in flow.predicted_draw_sites(flow_model)
        ),
        "draw-site prediction covers the keyed-fork draw",
        failures,
    )

    # --- arena-escape: member cache of an arena allocation. ---------------
    found = arena.get("bad_arena_member_escape.cpp", [])
    check(
        len(found) == 1 and found[0].rule == "arena-escape",
        "bad_arena_member_escape fires arena-escape exactly once",
        failures,
    )
    if found:
        check(
            "last_records_" in found[0].message
            and "allocate_for" in found[0].message,
            "bad_arena_member_escape names the member and the allocation",
            failures,
        )

    # --- arena-escape: interprocedural return flow. -----------------------
    found = arena.get("bad_arena_return_flow.cpp", [])
    check(
        len(found) == 1 and found[0].rule == "arena-escape",
        "bad_arena_return_flow fires arena-escape exactly once",
        failures,
    )
    if found:
        check(
            "view_label" in " -> ".join(found[0].path)
            and "retained_" in found[0].message,
            "bad_arena_return_flow reports the return-flow path into the "
            "member container",
            failures,
        )

    check(
        not arena.get("good_arena_reset_rebind.cpp"),
        "good_arena_reset_rebind is silent (rebind + value copies)",
        failures,
    )

    # --- shard-lookahead: direct cross-shard scheduling. ------------------
    found = shard.get("bad_shard_direct_send.cpp", [])
    check(
        len(found) == 2 and all(f.rule == "shard-lookahead" for f in found),
        "bad_shard_direct_send fires shard-lookahead exactly twice",
        failures,
    )
    if len(found) == 2:
        messages = " | ".join(f.message for f in found)
        check(
            "peer_sim_" in messages and "shard" in messages,
            "bad_shard_direct_send flags both the peer simulator and the "
            "shard(i) chain",
            failures,
        )
    check(
        not shard.get("good_shard_local.cpp"),
        "good_shard_local is silent (local schedules, publishes and drains)",
        failures,
    )

    # --- observer-purity: observation perturbs replay. --------------------
    found = observer.get("bad_observer_mutation.cpp", [])
    check(
        len(found) == 2 and all(f.rule == "observer-purity" for f in found),
        "bad_observer_mutation fires observer-purity exactly twice",
        failures,
    )
    if len(found) == 2:
        messages = " | ".join(f.message for f in found)
        check(
            "jitter_rng_" in messages and "reads_" in messages,
            "bad_observer_mutation flags both the draw and the member "
            "write",
            failures,
        )
        check(
            all("EstimateProbe::state_digest" in " -> ".join(f.path)
                for f in found),
            "bad_observer_mutation paths root at the state_digest accessor",
            failures,
        )
    check(
        not observer.get("good_observer_pure.cpp"),
        "good_observer_pure is silent (pure accessors and samplers)",
        failures,
    )

    # --- hot-path-text: formatting on the per-event path. -----------------
    found = text.get("bad_hot_path_text.cpp", [])
    check(
        len(found) == 3 and all(f.rule == "hot-path-text" for f in found),
        "bad_hot_path_text fires hot-path-text exactly three times",
        failures,
    )
    if len(found) == 3:
        messages = " | ".join(f.message for f in found)
        check(
            "ostringstream" in messages and "snprintf" in messages
            and "sscanf" in messages,
            "bad_hot_path_text flags the stream row renderer and both "
            "halves of the text payload",
            failures,
        )
        check(
            any("TextTrace::on_request_done" in " -> ".join(f.path)
                and "append_rows" in " -> ".join(f.path) for f in found),
            "bad_hot_path_text reports the handler path into append_rows",
            failures,
        )
    check(
        not text.get("good_hot_path_chars.cpp"),
        "good_hot_path_chars is silent (to_chars, typed payloads, cold "
        "report formatting)",
        failures,
    )

    # --- template_overload: per-instantiation call-graph resolution. ------
    targets = model.resolve("mix_jitter", 2, 1)
    check(
        len(targets) == 1 and targets[0].template_params == 1,
        "mix_jitter<double>(...) resolves to exactly the template "
        "definition",
        failures,
    )
    check(
        all(fn.template_params is None
            for fn in model.resolve("mix_jitter", 1)),
        "mix_jitter(0.5) resolves to the non-template overload only",
        failures,
    )
    found = grouped["flow"].get("template_overload.cpp", [])
    check(
        len(found) == 1 and found[0].rule == "shared-rng-draw",
        "template_overload fires shared-rng-draw exactly once (the "
        "explicit-template edge exists)",
        failures,
    )
    if found:
        path = " -> ".join(found[0].path)
        check(
            "on_template_tick" in path,
            "template_overload path roots at the explicit-template caller",
            failures,
        )
        check(
            "on_plain_tick" not in path,
            "template_overload keeps the pure-overload handler out of the "
            "path",
            failures,
        )

    # --- libc-rand: libc's rand, however qualified, and nothing else. -----
    found = grouped["determinism"].get("libc_rand.cpp", [])
    check(
        [(f.line, f.rule) for f in found]
        == [(line, "libc-rand") for line in range(12, 17)],
        "libc_rand fires libc-rand on exactly the bare, std:: and :: calls "
        "(lines 12-16), not on member or other-scope calls",
        failures,
    )

    # --- suppressions pin the escape hatch. -------------------------------
    for name in ("arena-escape", "shard-lookahead", "observer-purity",
                 "hot-path-text"):
        check(
            not grouped[name].get("suppressed.cpp"),
            f"suppressed.cpp is silent for {name} (lint:allow honoured)",
            failures,
        )

    # --- src/: the committed layering figure, stale entries, draw sites. --
    src = SourceModel([TOOLS.parent / "src"]).load()
    committed = TOOLS.parent / "docs" / "layering.dot"
    check(
        layering.dot(src) == committed.read_text(encoding="utf-8"),
        "docs/layering.dot is current (regenerate: python3 "
        "tools/xan_lint.py --rule layering --dot docs/layering.dot src)",
        failures,
    )
    check(
        len(flow.predicted_draw_sites(src)) > 0,
        "src/ draw-site prediction is non-empty",
        failures,
    )
    # Without workload/, its three allowlisted deep skips are gone.
    src.files = [sf for sf in src.files if sf.top != "workload"]
    entries = Path(layering.__file__).read_text(encoding="utf-8").splitlines()
    stale = layering.run(src)
    check(
        len(stale) == 3 and all(
            f.file == "tools/analyses/layering.py"
            and entries[f.line - 1].strip().startswith('("workload", ')
            for f in stale),
        "a stale allowlist entry is reported at its own line",
        failures,
    )

    if failures:
        print(
            f"xan_lint_selftest: {len(failures)} check(s) failed",
            file=sys.stderr,
        )
        return 1
    print("xan_lint_selftest: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
