"""Finding records and machine-readable report emitters (JSON + SARIF).

One Finding type serves every analysis; the emitters take the rule
catalogue as a parameter so `xan_lint` can write a single merged report
covering line rules, layering rules, and the interprocedural analyses.
"""

from __future__ import annotations

import json
from pathlib import Path


class Finding:
    def __init__(self, file: str, line: int, rule: str, message: str,
                 path: list[str] | None = None):
        self.file = file
        self.line = line
        self.rule = rule
        self.message = message
        self.path = path or []

    def __str__(self) -> str:
        text = f"{self.file}:{self.line}: [{self.rule}] {self.message}"
        if self.path:
            text += "\n    path: " + " -> ".join(self.path)
        return text

    def as_dict(self) -> dict:
        return {
            "file": self.file,
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
            "path": self.path,
        }

    def sort_key(self) -> tuple:
        return (self.file, self.line, self.rule)


def write_json(findings: list[Finding], out_path: Path) -> None:
    out_path.write_text(
        json.dumps(
            {"findings": [f.as_dict() for f in findings]}, indent=2
        )
        + "\n",
        encoding="utf-8",
    )


def write_sarif(findings: list[Finding], out_path: Path,
                tool_name: str, rule_docs: dict[str, str]) -> None:
    """SARIF 2.1.0, uploadable to GitHub code scanning."""
    results = []
    for f in findings:
        message = f.message
        if f.path:
            message += " | path: " + " -> ".join(f.path)
        results.append(
            {
                "ruleId": f.rule,
                "level": "error",
                "message": {"text": message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {"uri": f.file},
                            "region": {"startLine": max(1, f.line)},
                        }
                    }
                ],
            }
        )
    sarif = {
        "version": "2.1.0",
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": tool_name,
                        "informationUri": f"tools/{tool_name}.py",
                        "rules": [
                            {
                                "id": rule,
                                "shortDescription": {"text": doc},
                            }
                            for rule, doc in sorted(rule_docs.items())
                        ],
                    }
                },
                "results": results,
            }
        ],
    }
    out_path.write_text(json.dumps(sarif, indent=2) + "\n", encoding="utf-8")
