"""SourceModel: one shared parse of the C++ source roots.

Loading a root walks every C++ source file under it exactly once and
captures, per file: the raw and comment-stripped lines, the token stream,
the per-line suppression sets, the quoted includes, and the function
definitions.  Whole-model indexes (overload sets, declared-name sets for
types several analyses care about, handler reachability, the reverse call
graph) are built on top, so `xan_lint` can run every analysis off this one
parse instead of four separate ones.

Unordered-container names are scoped by the include graph: a name declared
in one file counts only in that file and in the files that include it,
directly or through other headers.  A range-for over a member needs the
class definition, so its file always includes the declaring header; a
same-named container elsewhere (a vector, say) is not one of them.
"""

from __future__ import annotations

import re
from pathlib import Path

from .functions import CallSite, Function, extract_functions
from .lexer import strip_comments_and_strings, tokenize
from .suppress import allow_sets

SOURCE_SUFFIXES = {".cpp", ".hpp", ".cc", ".hh", ".h"}

# Calls that register event-time callbacks; a function containing one is a
# handler root (its lambdas execute inside the event loop).
SCHEDULING_CALLS = {"schedule_after", "schedule_at", "schedule_keyed",
                    "subscribe"}

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')

# Declared-name sets shared by the analyses.  Trailing underscore on the Rng
# capture = the member naming convention; the others catch locals too.
MEMBER_RNG_DECL_RE = re.compile(r"\bRng\s+(\w+_)\s*[;{=(]")
UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:multi)?(?:map|set)\s*<[^;()]*?>\s+(\w+)\s*(?:;|=|\{)"
)


class SourceFile:
    """Everything the front end extracted from one file."""

    def __init__(self, path: Path, root: Path, display: str):
        self.path = path
        self.root = root
        self.display = display
        try:
            rel = path.relative_to(root)
        except ValueError:
            rel = Path(path.name)
        self.rel = rel
        # Top-level directory bucket (the layer for src/ files); files
        # directly under the root bucket as the root's own name.
        self.top = rel.parts[0] if len(rel.parts) > 1 else root.name
        self.raw_lines: list[str] = []
        self.code_lines: list[str] = []
        self.tokens: list[tuple[str, int]] = []
        self.allow: list[set[str]] = []
        self.includes: list[tuple[str, int]] = []  # (quoted path, 1-based)
        self.functions: list[Function] = []
        # Names this file declares as unordered containers.
        self.unordered_decls: set[str] = set()


class SourceModel:
    """The shared parse: files, functions, and whole-model indexes."""

    def __init__(self, roots: list[Path]):
        self.roots = roots
        self.files: list[SourceFile] = []
        self.by_display: dict[str, SourceFile] = {}
        self.functions: list[Function] = []
        self.by_name: dict[str, list[Function]] = {}
        self.member_rng_names: set[str] = set()
        self._reach: dict[int, list[str]] | None = None
        self._callers: dict[int, list[tuple[Function, CallSite]]] | None = \
            None
        self._by_path: dict[Path, SourceFile] = {}
        self._unordered_scope: dict[str, set[str]] = {}

    # -- loading ----------------------------------------------------------

    def load(self) -> "SourceModel":
        for root in self.roots:
            for path in sorted(
                p
                for p in root.rglob("*")
                if p.suffix in SOURCE_SUFFIXES and p.is_file()
            ):
                display = str(path)
                raw = path.read_text(encoding="utf-8", errors="replace")
                sf = SourceFile(path, root, display)
                sf.raw_lines = raw.splitlines()
                sf.allow = allow_sets(sf.raw_lines)
                for index, line in enumerate(sf.raw_lines):
                    match = INCLUDE_RE.match(line)
                    if match:
                        sf.includes.append((match.group(1), index + 1))
                code = strip_comments_and_strings(raw)
                sf.code_lines = code.splitlines()
                for pattern, names in (
                    (MEMBER_RNG_DECL_RE, self.member_rng_names),
                    (UNORDERED_DECL_RE, sf.unordered_decls),
                ):
                    for match in pattern.finditer(code):
                        names.add(match.group(1))
                sf.tokens = tokenize(code)
                sf.functions = extract_functions(sf.tokens, display)
                for fn in sf.functions:
                    self.functions.append(fn)
                    self.by_name.setdefault(fn.name, []).append(fn)
                self.files.append(sf)
                self.by_display[display] = sf
                self._by_path[path.resolve()] = sf
        return self

    def file_of(self, fn: Function) -> SourceFile:
        return self.by_display[fn.file]

    # -- include graph ------------------------------------------------------

    def included_files(self, sf: SourceFile) -> list[SourceFile]:
        """The loaded files `sf` includes directly.  A quoted include
        resolves against every root (bench/ includes src/ headers), then
        against the including file's own directory."""
        found: list[SourceFile] = []
        for target, _line in sf.includes:
            for base in [*self.roots, sf.path.parent]:
                hit = self._by_path.get((base / target).resolve())
                if hit is not None:
                    found.append(hit)
                    break
        return found

    def unordered_names_in_scope(self, sf: SourceFile) -> set[str]:
        """Unordered-container names `sf` can see: its own declarations and
        those of every file it includes, transitively."""
        cached = self._unordered_scope.get(sf.display)
        if cached is not None:
            return cached
        names: set[str] = set()
        seen = {sf.display}
        stack = [sf]
        while stack:
            current = stack.pop()
            names |= current.unordered_decls
            for included in self.included_files(current):
                if included.display not in seen:
                    seen.add(included.display)
                    stack.append(included)
        self._unordered_scope[sf.display] = names
        return names

    # -- overload resolution ----------------------------------------------

    def resolve(self, name: str, nargs: int,
                targs: int | None = None) -> list[Function]:
        """Definitions of `name` a call with `nargs` arguments (and, when
        given, `targs` explicit template arguments) can reach.  Filtered by
        arity, then by template-parameter compatibility; each filter falls
        back to the previous set when it would empty it (out-of-line
        definitions drop their declaration's defaults, macro sites can
        miscount) so the graph stays an over-approximation."""
        candidates = list(self.by_name.get(name, ()))
        matched = [
            fn
            for fn in candidates
            if fn.min_arity <= nargs
            and (fn.max_arity is None or nargs <= fn.max_arity)
        ]
        if not matched:
            matched = candidates
        if targs is not None:
            # An explicit template argument list only ever calls a
            # template, so non-template definitions are excluded outright:
            # `std::get<T>(v)` must not edge into an unrelated non-template
            # get().  Among templates, the parameter count must admit the
            # site (packs widen upward, defaulted template params
            # downward).
            matched = [
                fn
                for fn in matched
                if fn.template_params is not None
                and (fn.tparam_pack or targs <= fn.template_params)
            ]
        return matched

    def resolve_call(self, caller: Function, call: CallSite) \
            -> list[Function]:
        """resolve(), but in the context of `caller`: calls through local
        lambda bindings stay inside the caller (their bodies are already
        attributed to it) instead of edging to same-named functions."""
        if call.name in caller.local_callables:
            return []
        return self.resolve(call.name, call.nargs, call.targs)

    # -- handler reachability ---------------------------------------------

    def handler_reachability(self) -> dict[int, list[str]]:
        """id(fn) -> root chain for every function transitively callable
        from a handler root (a function that schedules or subscribes
        callbacks -- its lambdas run at event time, and token-level
        analysis attributes lambda bodies to the enclosing function)."""
        if self._reach is not None:
            return self._reach
        reach: dict[int, list[str]] = {}
        worklist: list[Function] = []
        for fn in self.functions:
            if any(c.name in SCHEDULING_CALLS for c in fn.calls):
                reach[id(fn)] = [f"{fn.qualified}()"]
                worklist.append(fn)
        while worklist:
            fn = worklist.pop()
            chain = reach[id(fn)]
            for call in fn.calls:
                for callee in self.resolve_call(fn, call):
                    if id(callee) not in reach:
                        reach[id(callee)] = chain + [
                            f"{callee.qualified}()"
                        ]
                        worklist.append(callee)
        self._reach = reach
        return reach

    def handler_chain(self, fn: Function) -> list[str] | None:
        return self.handler_reachability().get(id(fn))

    # -- reverse call graph ------------------------------------------------

    def callers(self) -> dict[int, list[tuple[Function, CallSite]]]:
        """id(callee) -> [(caller, call site)], resolved per site."""
        if self._callers is not None:
            return self._callers
        callers: dict[int, list[tuple[Function, CallSite]]] = {}
        for fn in self.functions:
            for call in fn.calls:
                for callee in self.resolve_call(fn, call):
                    callers.setdefault(id(callee), []).append((fn, call))
        self._callers = callers
        return callers

    # -- reachability from arbitrary roots ---------------------------------

    def reachable_from(
        self, roots: list[Function],
        skip_edge=None,
    ) -> dict[int, list[str]]:
        """id(fn) -> call chain for everything transitively callable from
        `roots`.  `skip_edge(caller, call, callee)` (optional) vetoes
        individual edges."""
        reach: dict[int, list[str]] = {}
        worklist: list[Function] = []
        for fn in roots:
            if id(fn) not in reach:
                reach[id(fn)] = [f"{fn.qualified}()"]
                worklist.append(fn)
        while worklist:
            fn = worklist.pop()
            chain = reach[id(fn)]
            for call in fn.calls:
                for callee in self.resolve_call(fn, call):
                    if skip_edge is not None and \
                            skip_edge(fn, call, callee):
                        continue
                    if id(callee) not in reach:
                        reach[id(callee)] = chain + [
                            f"{callee.qualified}()"
                        ]
                        worklist.append(callee)
        return reach
