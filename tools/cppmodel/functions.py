"""Function extraction and call-site modelling (shared C++ front end).

Grown out of the PR-6 flow_lint extractor, with three front-end upgrades
every analysis now shares:

  * Enclosing-class qualification.  A linear scope pre-pass tracks
    class/struct bodies, so an in-class definition of `sample()` inside
    `class ProbeRegistry` is modelled as `ProbeRegistry::sample` --
    analyses can root themselves at a class's methods without demanding
    out-of-line definitions.
  * Template-instantiation tracking.  Call sites with an explicit template
    argument list (`f<double>(x, rng)`) are recognised as calls (the
    PR-6 extractor required `(` directly after the name, so such sites
    produced no call edge at all -- a soundness hole), and record how many
    template arguments the site supplies.  Definitions preceded by a
    `template <...>` header record their template-parameter count and
    whether a parameter pack makes it open-ended, so overload resolution
    can filter per instantiation (see model.SourceModel.resolve).
  * Uniform call sites.  Every call records its receiver chain and const
    qualification facts, so rules about *who* is called on *what* (member
    RNG streams, member containers) share one extraction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .lexer import IDENT_RE, KEYWORDS

Token = tuple[str, int]


@dataclass
class CallSite:
    """One call expression inside a function body."""

    name: str
    line: int
    end_line: int
    open_idx: int
    nargs: int
    #: Number of explicit template arguments at the site, or None when the
    #: call has no template argument list.
    targs: int | None
    is_method: bool
    #: Plain identifier receiver chain, innermost first (`a.b->c.m()` ->
    #: ("a", "b", "c")); empty for free calls or non-trivial receivers.
    receiver: tuple[str, ...]


@dataclass
class Function:
    """One function definition: its body token span plus extracted facts."""

    name: str
    qualified: str
    cls: str | None
    file: str
    line: int
    end_line: int = 0
    # Admitted argument-count range of this definition's parameter list;
    # max_arity is None for variadic (`...`) parameter packs.
    min_arity: int = 0
    max_arity: int | None = 0
    #: Template-parameter count of the `template <...>` header, or None for
    #: a non-template definition.
    template_params: int | None = None
    #: True when the template header carries a parameter pack.
    tparam_pack: bool = False
    is_const: bool = False
    calls: list[CallSite] = field(default_factory=list)
    #: Top-level token groups of the parameter list.
    param_groups: list[list[str]] = field(default_factory=list)
    #: Token-index spans attributed to this function: the ctor initializer
    #: list (if any) and the brace body.  Analyses re-walk these for
    #: facts the generic extraction does not model (member writes,
    #: statement-level taint).
    init_span: tuple[int, int] | None = None
    body_span: tuple[int, int] = (0, 0)
    #: Local names bound to lambdas (`auto fold = [...]`).  Calls through
    #: these names stay inside this function (the lambda body is already
    #: attributed here) and must not resolve to same-named free functions.
    local_callables: set[str] = field(default_factory=set)


def match_paren(tokens: list[Token], open_idx: int) -> int:
    """Index of the ')' matching tokens[open_idx] == '('."""
    depth = 0
    for i in range(open_idx, len(tokens)):
        t = tokens[i][0]
        if t == "(":
            depth += 1
        elif t == ")":
            depth -= 1
            if depth == 0:
                return i
    return len(tokens) - 1


def split_args(tokens: list[Token], open_idx: int,
               close_idx: int) -> list[list[str]]:
    """Top-level comma-separated argument token groups of a call."""
    args: list[list[str]] = []
    current: list[str] = []
    depth = 0
    for i in range(open_idx + 1, close_idx):
        t = tokens[i][0]
        if t in "([{":
            depth += 1
        elif t in ")]}":
            depth -= 1
        if t == "," and depth == 0:
            args.append(current)
            current = []
        else:
            current.append(t)
    if current:
        args.append(current)
    return args


def receiver_chain(tokens: list[Token], dot_idx: int) -> tuple[str, ...]:
    """Walks left from the '.'/'->' before a method name, collecting the
    receiver's identifier chain (innermost first): `a.b->c.m(` -> (a, b, c).
    Stops at anything that is not a plain ident/./-> chain (call results,
    array indexing) and returns what it has."""
    chain: list[str] = []
    i = dot_idx
    while i > 0:
        prev = tokens[i - 1][0]
        if IDENT_RE.fullmatch(prev):
            chain.append(prev)
            i -= 1
            if i > 0 and tokens[i - 1][0] in (".", "->"):
                i -= 1
                continue
            break
        break
    chain.reverse()
    return tuple(chain)


def param_groups(tokens: list[Token], open_idx: int,
                 close_idx: int) -> list[list[str]]:
    """Top-level comma-separated token groups of a parameter list."""
    groups: list[list[str]] = []
    current: list[str] = []
    depth = 0
    for i in range(open_idx + 1, close_idx):
        t = tokens[i][0]
        if t in "(<[{":
            depth += 1
        elif t in ")>]}":
            depth -= 1
        if t == "," and depth == 0:
            groups.append(current)
            current = []
        else:
            current.append(t)
    if current:
        groups.append(current)
    return groups


def parse_arity(groups: list[list[str]]) -> tuple[int, int | None]:
    """(min, max) argument counts a parameter list admits.  A defaulted
    parameter (`=` at top level) lowers the minimum; a `...` pack lifts the
    maximum to unbounded (None)."""
    if len(groups) == 1 and groups[0] == ["void"]:
        groups = []
    min_arity = 0
    max_arity = 0
    variadic = False
    for group in groups:
        if "..." in group:
            variadic = True
            continue
        max_arity += 1
        if "=" not in group:
            min_arity += 1
    return min_arity, None if variadic else max_arity


def param_names_of_type(groups: list[list[str]], type_name: str,
                        drop: tuple[str, ...] = ()) -> list[str]:
    """Names of parameters whose declared type mentions `type_name`."""
    names: list[str] = []
    for group in groups:
        if type_name not in group:
            continue
        idents = [t for t in group if IDENT_RE.fullmatch(t)]
        # Drop type/qualifier identifiers; the parameter name is the last
        # identifier (if any -- unnamed params cannot be referenced).
        while idents and idents[-1] in (
            (type_name, "common", "const", "xanadu", "std", "sim") + drop
        ):
            idents.pop()
        if idents:
            names.append(idents[-1])
    return names


# Tokens admissible inside an explicit template argument list.  Anything
# else means the '<' was a comparison, not a template bracket.
_TARG_OK = re.compile(r"[A-Za-z_]\w*|\d[\w'.]*")
_TARG_PUNCT = {"::", ",", "*", "&", "...", "<", ">", ">>", "(", ")", "[",
               "]", "{", "}"}


def template_arg_span(tokens: list[Token], open_idx: int,
                      max_tokens: int = 64) -> tuple[int, int] | None:
    """If tokens[open_idx] == '<' opens a plausible template argument list,
    returns (index past the closing '>', top-level argument count); else
    None.  Handles '>>' closing two levels at once."""
    depth = 1
    groups = 1
    i = open_idx + 1
    limit = min(len(tokens), open_idx + 1 + max_tokens)
    while i < limit:
        t = tokens[i][0]
        if t == "<":
            depth += 1
        elif t == ">":
            depth -= 1
            if depth == 0:
                return i + 1, groups
        elif t == ">>":
            depth -= 2
            if depth == 0:
                return i + 1, groups
            if depth < 0:
                return None
        elif t == "," and depth == 1:
            groups += 1
        elif _TARG_OK.fullmatch(t) or t in _TARG_PUNCT or t in (
            "const", "typename", "unsigned", "signed", "long", "short",
            "int", "char", "bool", "float", "double", "void", "auto",
        ):
            pass
        else:
            return None
        i += 1
    return None


def _class_scopes(tokens: list[Token]) -> list[tuple[str, ...]]:
    """For each token index, the enclosing class/struct name chain
    (outermost first).  Linear scan; namespaces are deliberately not
    tracked (analyses match bare class names, not full paths)."""
    n = len(tokens)
    scopes: list[tuple[str, ...]] = [()] * n
    stack: list[tuple[str, int]] = []  # (class name, depth at its '{')
    current: tuple[str, ...] = ()
    depth = 0
    pending: str | None = None
    for i in range(n):
        t = tokens[i][0]
        scopes[i] = current
        if t == "{":
            depth += 1
            if pending is not None:
                stack.append((pending, depth))
                current = current + (pending,)
                pending = None
        elif t == "}":
            if stack and stack[-1][1] == depth:
                stack.pop()
                current = current[:-1]
            depth -= 1
        elif t in ("class", "struct"):
            if i > 0 and tokens[i - 1][0] == "enum":
                continue
            j = i + 1
            if j >= n or not IDENT_RE.fullmatch(tokens[j][0]):
                continue  # Anonymous struct or elaborated use.
            name = tokens[j][0]
            # A body '{' before any ';', '=', ')' means this is a
            # definition whose scope we should track (base clauses and
            # `final` sit between the name and the brace).
            k = j + 1
            while k < n and k < j + 64:
                tk = tokens[k][0]
                if tk == "{":
                    pending = name
                    break
                if tk in (";", "=", ")", "("):
                    break
                k += 1
        elif t == ";":
            pending = None
    return scopes


def _find_template_headers(tokens: list[Token]) -> dict[int, tuple[int, bool]]:
    """Maps the index just past each `template <...>` header's closing '>'
    to (template-parameter count, has parameter pack)."""
    headers: dict[int, tuple[int, bool]] = {}
    for i, (t, _line) in enumerate(tokens):
        if t != "template" or i + 1 >= len(tokens):
            continue
        if tokens[i + 1][0] != "<":
            continue
        span = template_arg_span(tokens, i + 1)
        if span is None:
            continue
        end, groups = span
        has_pack = any(tokens[k][0] == "..." for k in range(i + 2, end - 1))
        headers[end] = (groups, has_pack)
    return headers


def _attach_template(headers: dict[int, tuple[int, bool]],
                     tokens: list[Token], head_start: int,
                     max_gap: int = 24) -> tuple[int, bool] | None:
    """The template header governing a function head starting at token
    `head_start`, if one closes within `max_gap` tokens before it with only
    return-type tokens in between."""
    for end in range(head_start, max(head_start - max_gap, -1), -1):
        if end in headers:
            # The gap must not cross a statement/body boundary.
            for k in range(end, head_start):
                if tokens[k][0] in (";", "{", "}"):
                    return None
            return headers[end]
    return None


def extract_functions(tokens: list[Token], file: str) -> list[Function]:
    """Finds function definitions with bodies and attributes body tokens
    (including constructor initializer lists and lambda bodies) to them."""
    functions: list[Function] = []
    scopes = _class_scopes(tokens)
    headers = _find_template_headers(tokens)
    i = 0
    n = len(tokens)
    while i < n:
        t = tokens[i][0]
        if t != "(":
            i += 1
            continue
        # Candidate: name tokens directly before '('.
        j = i - 1
        name_parts: list[str] = []
        while j >= 0:
            tj = tokens[j][0]
            if IDENT_RE.fullmatch(tj) or tj == "~":
                name_parts.append(tj)
                j -= 1
                if j >= 0 and tokens[j][0] == "::":
                    name_parts.append("::")
                    j -= 1
                    continue
                break
            break
        if not name_parts:
            i += 1
            continue
        name_parts.reverse()
        head_start = j + 1
        simple = name_parts[-1]
        if simple in KEYWORDS or not re.fullmatch(r"[A-Za-z_]\w*|~\w+",
                                                  simple.lstrip("~")):
            i += 1
            continue
        close = match_paren(tokens, i)
        # Scan past qualifiers / trailing return / ctor-init list to decide
        # whether a body follows.
        k = close + 1
        body_open = -1
        init_start = -1
        saw_const = False
        while k < n:
            tk = tokens[k][0]
            if tk in ("const", "noexcept", "override", "final", "mutable",
                      "&", "&&"):
                saw_const = saw_const or tk == "const"
                k += 1
                continue
            if tk == "->":
                # Trailing return type: skip its tokens until '{' or ';'.
                k += 1
                while k < n and tokens[k][0] not in ("{", ";"):
                    k += 1
                continue
            if tk == ":":
                # Constructor initializer list: member name then one
                # balanced (...) or {...} per initializer, comma-separated.
                k += 1
                init_start = k
                while k < n:
                    while k < n and tokens[k][0] not in ("(", "{", ";"):
                        k += 1
                    if k >= n or tokens[k][0] == ";":
                        break
                    opener = tokens[k][0]
                    closer = ")" if opener == "(" else "}"
                    depth = 0
                    while k < n:
                        if tokens[k][0] == opener:
                            depth += 1
                        elif tokens[k][0] == closer:
                            depth -= 1
                            if depth == 0:
                                k += 1
                                break
                        k += 1
                    if k < n and tokens[k][0] == ",":
                        k += 1
                        continue
                    break
                continue
            if tk == "{":
                body_open = k
            break
        if body_open == -1:
            i = close + 1
            continue
        # Collect the body token span.
        depth = 0
        end = body_open
        while end < n:
            if tokens[end][0] == "{":
                depth += 1
            elif tokens[end][0] == "}":
                depth -= 1
                if depth == 0:
                    break
            end += 1
        qualified = "".join(name_parts)
        cls: str | None = None
        if "::" in name_parts:
            # Out-of-line definition: the class is the qualifier.
            idents = [p for p in name_parts if p != "::"]
            if len(idents) >= 2:
                cls = idents[-2]
        else:
            scope = scopes[head_start]
            if scope:
                cls = scope[-1]
                qualified = f"{cls}::{qualified}"
        fn = Function(simple, qualified, cls, file, tokens[i][1])
        fn.end_line = tokens[min(end, n - 1)][1]
        fn.param_groups = param_groups(tokens, i, close)
        fn.min_arity, fn.max_arity = parse_arity(fn.param_groups)
        fn.is_const = saw_const
        template = _attach_template(headers, tokens, head_start)
        if template is not None:
            fn.template_params, fn.tparam_pack = template
        if init_start != -1:
            # Constructor initializer lists execute code too -- per-class
            # member streams are forked there (FaultPlan) -- so their call
            # sites count as part of the body.  Missing this was caught by
            # the runtime cross-validation (rng_trace_test).
            fn.init_span = (init_start, body_open)
            _collect_calls(tokens, init_start, body_open, fn)
        fn.body_span = (body_open, end)
        _collect_calls(tokens, body_open, end, fn)
        # `auto name = [...]` / `name = [...]`: a local lambda binding.
        for b in range(body_open, end - 2):
            if tokens[b + 1][0] == "=" and tokens[b + 2][0] == "[" and \
                    IDENT_RE.fullmatch(tokens[b][0]) and \
                    tokens[b][0] not in KEYWORDS:
                fn.local_callables.add(tokens[b][0])
        functions.append(fn)
        i = end + 1
    return functions


def _collect_calls(tokens: list[Token], start: int, end: int,
                   fn: Function) -> None:
    """Records every call expression (plain `f(...)`, method `x.f(...)`,
    and explicit-template `f<T>(...)`) in a body token span."""
    for i in range(start, end):
        t, line = tokens[i]
        if not IDENT_RE.fullmatch(t) or t in KEYWORDS:
            continue
        targs: int | None = None
        open_idx = -1
        if i + 1 < end and tokens[i + 1][0] == "(":
            open_idx = i + 1
        elif i + 1 < end and tokens[i + 1][0] == "<":
            span = template_arg_span(tokens, i + 1)
            if span is not None and span[0] < end and \
                    tokens[span[0]][0] == "(":
                open_idx = span[0]
                targs = span[1]
        if open_idx == -1:
            continue
        is_method = i > 0 and tokens[i - 1][0] in (".", "->")
        receiver = receiver_chain(tokens, i - 1) if is_method else ()
        close = match_paren(tokens, open_idx)
        fn.calls.append(
            CallSite(
                name=t,
                line=line,
                end_line=tokens[min(close, len(tokens) - 1)][1],
                open_idx=open_idx,
                nargs=len(split_args(tokens, open_idx, close)),
                targs=targs,
                is_method=is_method,
                receiver=receiver,
            )
        )
