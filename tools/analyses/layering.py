"""layering: the include graph of src/ follows the declared layer stack.

ARCHITECTURE.md declares src/ as a layered stack (low to high):

    common < sim < workflow < cluster < platform < metrics < core < workload

These rules make the declaration machine-checked over the quoted-include
graph of the scanned root named `src` (system headers are ignored; bench/
and the fixtures have no layer structure, so a root set without `src`
runs none of them):

  unknown-layer    a quoted include whose first path component is not a
                   declared layer (new top-level directories must be added
                   to LAYER_ORDER here and to ARCHITECTURE.md)
  missing-header   a quoted include that does not resolve to a file under
                   the scanned source root
  cpp-include      #include of a *.cpp / *.cc file (textual inclusion of a
                   translation unit)
  layering         an include whose target sits in a HIGHER layer than the
                   including file (a back-edge: lower layers must not know
                   about higher ones; this includes skips, e.g. sim/
                   including core/)
  include-cycle    a cycle in the file-level include graph (the layer rule
                   makes cross-layer cycles impossible, but same-layer
                   header cycles would still break builds subtly)
  layer-skip       a downward include that skips MORE THAN ONE layer and is
                   not covered by the explicit allowlist below.  Deep skips
                   are how layering erodes: each one couples a high layer to
                   a low layer's internals without the intermediate layers
                   noticing.  The foundation layers (common, sim) are exempt
                   -- ids, hashing, Rng, Duration/TimePoint and the
                   Simulator are the vocabulary of every layer above them.
                   Every other deep skip must be added to
                   STRICT_SKIP_ALLOWLIST with a justification, and an entry
                   whose skip is gone is reported at its own line here.

Silence a reviewed exception with // lint:allow(<rule>).  `dot(model)`
renders the condensed layer-level include graph as GraphViz DOT (edge
labels carry include counts); the committed figure docs/layering.dot is
generated with `python3 tools/xan_lint.py --rule layering --dot
docs/layering.dot src`.
"""

from __future__ import annotations

from pathlib import Path

from cppmodel import Finding, SourceModel, allowed_at

# Declared layer order, lowest (most fundamental) first.  A file in layer L
# may include only layers at or below L.
LAYER_ORDER = (
    "common",
    "sim",
    "workflow",
    "cluster",
    "platform",
    "metrics",
    "core",
    "workload",
)

LAYER_INDEX = {name: index for index, name in enumerate(LAYER_ORDER)}

# Layers every higher layer may include regardless of distance: the shared
# vocabulary (ids, hashing, Result, Rng) and the virtual-time substrate
# (Duration, TimePoint, Simulator).
FOUNDATION_LAYERS = {"common", "sim"}

# Deep downward skips (distance > 1) into non-foundation layers allowed on
# purpose, with why.  Growing this list is a design decision, not a lint
# tweak -- see ARCHITECTURE.md "Static analysis & verification".  Every run
# over src/ flags an entry whose deep skip no longer exists.
STRICT_SKIP_ALLOWLIST = {
    ("platform", "workflow"):
        "the engine executes WorkflowDag nodes; FunctionSpec is its input",
    ("metrics", "cluster"):
        "the cost model reads the ResourceLedger balances",
    ("metrics", "workflow"):
        "trace digests walk the DAG structure",
    ("core", "cluster"):
        "the DispatchManager facade owns the Cluster it wires up",
    ("core", "platform"):
        "the facade composes the engine and policies",
    ("core", "workflow"):
        "the facade deploys DAGs and state-language documents",
    ("workload", "workflow"):
        "case studies and generators build DAGs",
    ("workload", "platform"):
        "schedule harnesses submit requests and read RequestResults",
    ("workload", "metrics"):
        "population runs aggregate cost summaries",
}

RULE_DOCS = {
    "unknown-layer": (
        "include or directory outside the declared layer stack; new "
        "layers are added to LAYER_ORDER and ARCHITECTURE.md"
    ),
    "missing-header": "quoted include does not resolve under the source root",
    "cpp-include": "translation units must not be textually included",
    "layering": (
        "back-edge: a lower layer includes a higher one; lower layers "
        "must not know about higher ones"
    ),
    "include-cycle": "cycle in the file-level include graph",
    "layer-skip": (
        "downward include skipping more than one non-foundation layer "
        "without a STRICT_SKIP_ALLOWLIST entry"
    ),
}


def find_cycles(graph: dict[str, set[str]]) -> list[list[str]]:
    """Cycles in the file-level include graph, via iterative DFS.  Returns
    each cycle once, as the path of files around it."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {node: WHITE for node in graph}
    cycles: list[list[str]] = []
    for root in sorted(graph):
        if color[root] != WHITE:
            continue
        stack: list[tuple[str, list[str]]] = [(root, [])]
        path: list[str] = []
        on_path: set[str] = set()
        while stack:
            node, _ = stack[-1]
            if color.get(node, WHITE) == WHITE:
                color[node] = GRAY
                path.append(node)
                on_path.add(node)
                for child in sorted(graph.get(node, ())):
                    if color.get(child, WHITE) == WHITE:
                        stack.append((child, []))
                    elif color.get(child) == GRAY and child in on_path:
                        cycle = path[path.index(child):] + [child]
                        cycles.append(cycle)
            else:
                stack.pop()
                if color[node] == GRAY:
                    color[node] = BLACK
                    path.pop()
                    on_path.discard(node)
        # Defensive: the stack discipline above pops each GRAY node exactly
        # once, so path/on_path drain with the stack.
    return cycles


def _scan(
    model: SourceModel,
) -> tuple[list[Finding], dict[tuple[str, str], int]]:
    """Layer rules over the files of the root named `src`.  Returns
    (findings, condensed layer-edge counts for the DOT figure)."""
    files = [sf for sf in model.files if sf.root.name == "src"]
    if not files:
        return [], {}
    known = {str(sf.rel) for sf in files}

    findings: list[Finding] = []
    file_graph: dict[str, set[str]] = {str(sf.rel): set() for sf in files}
    layer_edges: dict[tuple[str, str], int] = {}

    for sf in files:
        src_layer = sf.rel.parts[0] if len(sf.rel.parts) > 1 else None
        if src_layer is not None and src_layer not in LAYER_INDEX:
            findings.append(
                Finding(
                    sf.display, 1, "unknown-layer",
                    f"directory '{src_layer}' is not a declared layer; add "
                    "it to LAYER_ORDER and to ARCHITECTURE.md",
                )
            )
            continue

        for target, lineno in sf.includes:
            allowed = allowed_at(sf.allow, lineno)
            if target.endswith((".cpp", ".cc")) and \
                    "cpp-include" not in allowed:
                findings.append(
                    Finding(
                        sf.display, lineno, "cpp-include",
                        f'#include "{target}": translation units must not '
                        "be textually included",
                    )
                )
                continue
            dst_layer = target.split("/")[0]
            if dst_layer not in LAYER_INDEX:
                if "unknown-layer" not in allowed:
                    findings.append(
                        Finding(
                            sf.display, lineno, "unknown-layer",
                            f'#include "{target}": \'{dst_layer}\' is not '
                            "a declared layer",
                        )
                    )
                continue
            if target not in known:
                if "missing-header" not in allowed:
                    findings.append(
                        Finding(
                            sf.display, lineno, "missing-header",
                            f'#include "{target}": no such file under '
                            f"{sf.root}/",
                        )
                    )
                continue
            file_graph[str(sf.rel)].add(target)
            if src_layer is not None and dst_layer != src_layer:
                layer_edges[(src_layer, dst_layer)] = (
                    layer_edges.get((src_layer, dst_layer), 0) + 1
                )
                if (
                    LAYER_INDEX[dst_layer] > LAYER_INDEX[src_layer]
                    and "layering" not in allowed
                ):
                    findings.append(
                        Finding(
                            sf.display, lineno, "layering",
                            f"back-edge: layer '{src_layer}' (level "
                            f"{LAYER_INDEX[src_layer]}) must not include "
                            f"'{target}' from higher layer '{dst_layer}' "
                            f"(level {LAYER_INDEX[dst_layer]})",
                        )
                    )
                skip = LAYER_INDEX[src_layer] - LAYER_INDEX[dst_layer]
                if (
                    skip > 1
                    and dst_layer not in FOUNDATION_LAYERS
                    and (src_layer, dst_layer) not in STRICT_SKIP_ALLOWLIST
                    and "layer-skip" not in allowed
                ):
                    findings.append(
                        Finding(
                            sf.display, lineno, "layer-skip",
                            f'#include "{target}": \'{src_layer}\' skips '
                            f"{skip} layers down to '{dst_layer}'; deep "
                            "skips need a STRICT_SKIP_ALLOWLIST entry "
                            "(a design decision, not a lint tweak)",
                        )
                    )

    for cycle in find_cycles(file_graph):
        findings.append(
            Finding(
                cycle[0], 1, "include-cycle",
                "include cycle: " + " -> ".join(cycle),
            )
        )

    # A stale allowlist entry means the deep skip it justified is gone; flag
    # it at its own line so the list shrinks back as the coupling does.
    used = {
        pair for pair in layer_edges
        if LAYER_INDEX[pair[0]] - LAYER_INDEX[pair[1]] > 1
        and pair[1] not in FOUNDATION_LAYERS
    }
    here = Path(__file__).resolve()
    source = here.read_text(encoding="utf-8").splitlines()
    for pair in sorted(STRICT_SKIP_ALLOWLIST.keys() - used):
        key = f'("{pair[0]}", "{pair[1]}"):'
        findings.append(
            Finding(
                here.relative_to(here.parents[2]).as_posix(),
                next(i + 1 for i, text in enumerate(source) if key in text),
                "layer-skip",
                f"stale allowlist entry {pair}: no such deep skip "
                "remains; remove it",
            )
        )

    findings.sort(key=lambda f: f.sort_key())
    return findings, layer_edges


def run(model: SourceModel) -> list[Finding]:
    return _scan(model)[0]


def dot(model: SourceModel) -> str:
    """The condensed layer-level include graph of src/ as GraphViz DOT."""
    lines = [
        "digraph layering {",
        "  rankdir=BT;",
        '  node [shape=box, fontname="Helvetica"];',
    ]
    lines += [f"  {layer};" for layer in LAYER_ORDER]
    for (src, dst), count in sorted(_scan(model)[1].items()):
        lines.append(f'  {src} -> {dst} [label="{count}"];')
    return "\n".join(lines + ["}"]) + "\n"
