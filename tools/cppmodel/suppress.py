"""Suppression-comment handling (shared C++ front end).

Every rule honours the same escape hatch on the offending line or the
line directly above it:

    // lint:allow(<rule>[, <rule>...]) justification
"""

from __future__ import annotations

import re

ALLOW_RE = re.compile(r"//\s*lint:allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")


def allow_sets(raw_lines: list[str]) -> list[set[str]]:
    """Per-line suppressed rule names, 0-indexed."""
    sets: list[set[str]] = []
    for line in raw_lines:
        match = ALLOW_RE.search(line)
        sets.append(
            {r.strip() for r in match.group(1).split(",")} if match else set()
        )
    return sets


def allowed_at(allow: list[set[str]], lineno: int) -> set[str]:
    """Rules suppressed for 1-based lineno (that line or the line above)."""
    rules: set[str] = set()
    for probe in (lineno - 1, lineno - 2):
        if 0 <= probe < len(allow):
            rules |= allow[probe]
    return rules
