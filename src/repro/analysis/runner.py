"""The ``repro check`` entry point: run every rule over the package, render.

The checked tree is always the whole ``repro`` package this module was
imported from, so the result does not depend on the working directory.
Exit status is the contract CI relies on: 0 when there is no finding,
1 the moment one exists, 2 when the package holds no module at all.
``--json`` emits a machine-readable report (``{"findings": [...],
"summary": {...}}``) for the static-analysis CI job and for tooling
that wants to diff runs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import TextIO

from repro.analysis.core import Analyzer
from repro.analysis.rules import ALL_RULES

#: The package directory of the imported ``repro``.
PACKAGE = Path(__file__).parents[1]


def run_check(
    as_json: bool = False,
    out: TextIO | None = None,
    root: Path = PACKAGE,
) -> int:
    """Run the analyzer over ``root``; returns the process exit status."""
    out = out or sys.stdout
    modules, findings = Analyzer([cls() for cls in ALL_RULES]).run(root)
    if not modules:
        out.write(f"repro check: no Python modules under {root}\n")
        return 2
    if as_json:
        report = {
            "findings": [f.to_dict() for f in findings],
            "summary": {"findings": len(findings), "modules": modules},
        }
        out.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    else:
        for finding in findings:
            out.write(f"{finding.location}: {finding.rule} {finding.message}\n")
        if findings:
            out.write("\n")
        out.write(
            f"repro check: {len(findings)} finding(s) in {modules} modules\n"
        )
    return 1 if findings else 0
