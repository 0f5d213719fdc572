"""cppmodel: the shared C++ front end for the Xanadu static-analysis family.

Every linter in tools/ used to carry its own copy of the same machinery --
a comment/string stripper, a tokenizer, function extraction, a name-based
call graph, suppression-comment parsing, report emitters.  This package is
the single implementation they all share, so there is exactly one tokenizer
and one call graph to maintain (and one place where a front-end bug can
hide).

The front-end contract (see ARCHITECTURE.md "Static analysis &
verification"):

  * Parsing is token-level, not a real C++ parse.  Everything downstream
    must over-approximate: a missed refinement may cause a false positive
    (silenced per line with an allow comment), never a false negative by
    design.
  * `SourceModel` loads a set of source roots ONCE -- strips comments and
    strings, tokenizes, extracts function definitions (constructor
    initializer lists, in-class bodies and lambda bodies included, with
    enclosing-class qualification), parses quoted includes, and indexes
    per-line suppression comments.  All analyses run off that one parse.
  * Call edges resolve overload sets by argument arity and -- for call
    sites with an explicit template argument list (`f<T>(x)`) -- by
    template-parameter compatibility, falling back to the whole overload
    set when nothing admits the site (sound, not precise).
  * Findings are `report.Finding` values; `report.write_json` /
    `report.write_sarif` emit the merged machine-readable reports.
"""

from __future__ import annotations

from .functions import (  # noqa: F401
    CallSite,
    Function,
    extract_functions,
    match_paren,
    split_args,
)
from .lexer import (  # noqa: F401
    IDENT_RE,
    KEYWORDS,
    strip_comments_and_strings,
    tokenize,
)
from .model import SourceFile, SourceModel  # noqa: F401
from .report import Finding, write_json, write_sarif  # noqa: F401
from .suppress import allow_sets, allowed_at  # noqa: F401

SOURCE_SUFFIXES = {".cpp", ".hpp", ".cc", ".hh", ".h"}
