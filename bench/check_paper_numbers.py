#!/usr/bin/env python3
"""Checks the numbers a figure or ablation program prints against
bench/paper_numbers.json.

Usage:
  check_paper_numbers.py PROGRAM BINARY

PROGRAM names an entry of the table; BINARY is the built program.  Each of
the entry's runs executes BINARY with the run's arguments and reads its
rows from stdout, either from the metrics::Table printed under `table`
(a "== title ==" line followed by a markdown table; a run may name its own
`table`, overriding the entry's) or from every line that matches the
`line` regex (one named group per key and value column).
Every expected row must be printed, every printed row must be expected,
and every value must lie within its column's tolerance.  The entry's
verdicts then assert the claims EXPERIMENTS.md makes from those values:
each check takes one printed value (`cell`) or the quotient of two
(`ratio`) and holds it to `expected` +/- `tolerance`, or strictly
`below` a bound.

Every difference is listed as expected -> printed (delta), so a change
that moves a checked number shows which one and by how much.  Exit 0 when
everything holds, 1 when anything moved, 2 on bad usage or a program that
fails to run.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

TABLE = Path(__file__).resolve().parent / "paper_numbers.json"
NUMBER_RE = re.compile(r"^[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def number(text: str) -> float:
    """The leading number of a printed cell ("21225ms" -> 21225.0)."""
    match = NUMBER_RE.match(text.strip())
    if match is None:
        raise ValueError(f"not a number: {text!r}")
    return float(match.group(0))


def table_rows(stdout: str, title: str) -> list[dict[str, str]]:
    """The rows of the metrics::Table printed under `== title ==`."""
    lines = stdout.splitlines()
    try:
        start = lines.index(f"== {title} ==")
    except ValueError:
        raise ValueError(f"no table titled {title!r} in the output") from None
    cells = []
    for line in lines[start + 1:]:
        if not line.startswith("|"):
            break
        cells.append([c.strip() for c in line.strip().strip("|").split("|")])
    if len(cells) < 2:
        raise ValueError(f"table {title!r} has no rows")
    header = cells[0]
    return [dict(zip(header, row)) for row in cells[2:]]


def line_rows(stdout: str, pattern: str) -> list[dict[str, str]]:
    """One row per output line matching `pattern`, keyed by group name."""
    regex = re.compile(pattern)
    return [m.groupdict() for line in stdout.splitlines()
            if (m := regex.fullmatch(line))]


def fmt(value: float) -> str:
    return f"{value:.10g}"


def check_program(name: str, spec: dict, binary: str) -> list[str]:
    key_cols: list[str] = spec["key"]
    value_cols: dict[str, dict] = spec["columns"]
    problems: list[str] = []
    printed: dict[str, dict[tuple[str, ...], dict[str, float]]] = {}

    for run in spec["runs"]:
        label = f"{name}[{run['name']}]"
        proc = subprocess.run([binary, *run["args"]], capture_output=True,
                              text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            raise RuntimeError(f"{label}: exited {proc.returncode}")
        table = run.get("table", spec.get("table"))
        rows = (table_rows(proc.stdout, table) if table is not None
                else line_rows(proc.stdout, spec["line"]))
        got: dict[tuple[str, ...], dict[str, float]] = {}
        for row in rows:
            key = tuple(row[c] for c in key_cols)
            got[key] = {c: number(row[c]) for c in value_cols}
        printed[run["name"]] = got

        expected_keys = set()
        for entry in run["rows"]:
            key = tuple(entry[:len(key_cols)])
            expected_keys.add(key)
            where = f"{label} {'/'.join(key)}"
            if key not in got:
                problems.append(f"{where}: row not printed")
                continue
            for (col, col_spec), want in zip(value_cols.items(),
                                             entry[len(key_cols):]):
                have = got[key][col]
                delta = have - want
                if abs(delta) > col_spec["tolerance"]:
                    rel = f", {delta / want:+.3%}" if want else ""
                    problems.append(
                        f"{where} {col}: expected {fmt(want)}, printed "
                        f"{fmt(have)} ({delta:+.10g}{rel}; tolerance "
                        f"{fmt(col_spec['tolerance'])} {col_spec['unit']})")
        for key in sorted(set(got) - expected_keys):
            problems.append(f"{label} {'/'.join(key)}: printed row is not "
                            "in the table")

    default_run = spec["runs"][0]["name"]

    def cell(ref: list[str], run: str) -> float:
        *key, col = ref
        return printed[run][tuple(key)][col]

    for verdict in spec.get("verdicts", []):
        for check in verdict["checks"]:
            run = check.get("run", default_run)
            try:
                if "ratio" in check:
                    num, den = check["ratio"]
                    value = cell(num, run) / cell(den, run)
                else:
                    value = cell(check["cell"], run)
            except KeyError as missing:
                problems.append(f"{name} verdict {verdict['claim']!r}: "
                                f"no printed value for {missing}")
                continue
            if "below" in check:
                if not value < check["below"]:
                    problems.append(
                        f"{name} verdict {verdict['claim']!r} fails: "
                        f"{fmt(value)} is not below {fmt(check['below'])}")
            elif abs(value - check["expected"]) > check["tolerance"]:
                problems.append(
                    f"{name} verdict {verdict['claim']!r} fails: "
                    f"{fmt(value)} is not {fmt(check['expected'])} "
                    f"+/- {fmt(check['tolerance'])}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("program")
    parser.add_argument("binary")
    args = parser.parse_args()

    programs = json.loads(TABLE.read_text())["programs"]
    if args.program not in programs:
        print(f"error: {args.program!r} is not in {TABLE}",
              file=sys.stderr)
        return 2
    spec = programs[args.program]
    try:
        problems = check_program(args.program, spec, args.binary)
    except (OSError, RuntimeError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    for problem in problems:
        print(problem)
    values = sum(len(run["rows"]) for run in spec["runs"]) * len(
        spec["columns"])
    verdicts = len(spec.get("verdicts", []))
    if problems:
        print(f"paper_numbers: {args.program}: {len(problems)} difference(s)")
        return 1
    print(f"paper_numbers: {args.program}: {values} values and {verdicts} "
          "verdict(s) hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
