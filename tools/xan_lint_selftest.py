#!/usr/bin/env python3
"""Self-test for the xan_lint analysis family against the known-bad /
known-good fixtures in tools/fixtures/xan_lint/.

Each new interprocedural rule guards a correctness contract the runtime
only checks opportunistically (ASan death tests, the channel-latency
throw + TSan, golden-digest replay), so each rule gets the same treatment as the
code it guards: a regression suite that fails if the rule goes silent on
its distilled bug or noisy on the fixed form.

  bad_arena_member_escape.cpp  pre-fix PR-7 shape: arena allocation cached
                               on a member -- arena-escape must fire
  bad_arena_return_flow.cpp    interner view escaping through a helper's
                               return into a member container --
                               arena-escape must fire with the return-flow
                               path
  good_arena_reset_rebind.cpp  post-fix shape (rebind + value copies) --
                               must be silent
  bad_shard_direct_send.cpp    PR-9 in-window cross-shard sends (direct
                               peer simulator + shard(i) chain) --
                               shard-lookahead must fire twice
  good_shard_mailbox.cpp       closure mailed via LogicalProcess::send,
                               local-receiver scheduling -- must be silent
  bad_observer_mutation.cpp    PolicyView accessor that bumps a counter
                               and draws jitter -- observer-purity must
                               fire twice
  good_observer_pure.cpp       pure accessors + pure probe samplers --
                               must be silent
  template_overload.cpp        overload set via template: the explicit-
                               template call site must edge into the
                               template definition (shared-rng-draw fires
                               through it) and per-instantiation
                               resolution must keep the pure-overload
                               handler out of the path
  suppressed.cpp               one silenced instance of each new rule --
                               must be silent (pins the escape hatch)

plus the clean gate: every analysis must report zero unannotated findings
on src/ + bench/ off one shared parse, so CI fails on any new finding.

Run directly (`tools/xan_lint_selftest.py`) from the repository root, or
via `ctest -R xan_lint_selftest`.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import flow_lint  # noqa: E402
import xan_lint  # noqa: E402
from analyses import arena_escape, observer_purity, shard_lookahead  # noqa: E402
from cppmodel import SourceModel  # noqa: E402

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "xan_lint"


def check(condition: bool, label: str, failures: list[str]) -> None:
    print(("PASS" if condition else "FAIL") + f"  {label}")
    if not condition:
        failures.append(label)


def by_file(findings) -> dict[str, list]:
    grouped: dict[str, list] = {}
    for finding in findings:
        grouped.setdefault(Path(finding.file).name, []).append(finding)
    return grouped


def main() -> int:
    failures: list[str] = []
    model = SourceModel([FIXTURES]).load()

    arena = by_file(arena_escape.run(model))
    shard = by_file(shard_lookahead.run(model))
    observer = by_file(observer_purity.run(model))
    flow_findings, _ = flow_lint.run_on_model(model)
    flow = by_file(flow_findings)

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
        not shard.get("good_shard_mailbox.cpp"),
        "good_shard_mailbox is silent (closure mailed via send, local "
        "scheduling untouched)",
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
            all("PolicyView::estimate" in " -> ".join(f.path)
                for f in found),
            "bad_observer_mutation paths root at the PolicyView accessor",
            failures,
        )
    check(
        not observer.get("good_observer_pure.cpp"),
        "good_observer_pure is silent (pure accessors and samplers)",
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
    found = flow.get("template_overload.cpp", [])
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

    # --- suppressions pin the escape hatch. -------------------------------
    for name, grouped in (
        ("arena-escape", arena),
        ("shard-lookahead", shard),
        ("observer-purity", observer),
    ):
        check(
            not grouped.get("suppressed.cpp"),
            f"suppressed.cpp is silent for {name} (lint:allow honoured)",
            failures,
        )

    # --- clean gate: zero findings on the real tree, one shared parse. ----
    repo_root = Path(__file__).resolve().parent.parent
    real = SourceModel([repo_root / "src", repo_root / "bench"]).load()
    merged = xan_lint.run_all(real)
    for finding in merged:
        print(f"      unexpected: {finding}")
    check(
        not merged,
        "src/ and bench/ are clean across all analyses (one shared parse)",
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
