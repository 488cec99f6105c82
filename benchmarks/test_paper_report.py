"""The full-scale report is byte-identical to the one in EXPERIMENTS.md.

Runs ``examples/streambench_campaign.py --full`` (48 setups × 10 runs ×
1,000,001 records) in a subprocess and compares everything after its
``done in`` line with the fenced block under "## Full report" in
EXPERIMENTS.md.  This guards what no golden digest covers: the Beam
setups at the paper's scale and the Figure 10, Figure 11 and Table III
renderings.  A change to simulated behaviour updates EXPERIMENTS.md in
the same change; any other difference fails with a unified diff.

Run:  PYTHONPATH=src python -m pytest -q benchmarks/test_paper_report.py
"""

from __future__ import annotations

import difflib
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def recorded_report() -> str:
    """The fenced block under "## Full report" in EXPERIMENTS.md."""
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    match = re.search(r"^## Full report[^\n]*\n+```\n(.*?)^```", text, re.S | re.M)
    assert match, 'EXPERIMENTS.md has no fenced block under "## Full report"'
    return match.group(1).strip("\n")


def generated_report() -> str:
    """Everything the full campaign prints after its ``done in`` line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH")))
    )
    env["PYTHONIOENCODING"] = "utf-8"
    result = subprocess.run(
        [sys.executable, str(ROOT / "examples" / "streambench_campaign.py"), "--full"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        encoding="utf-8",
        check=True,
    )
    lines = result.stdout.split("\n")
    done = next(i for i, line in enumerate(lines) if line.startswith("done in "))
    return "\n".join(lines[done + 1 :]).strip("\n")


def test_full_report_matches_experiments_md():
    expected = recorded_report()
    actual = generated_report()
    if actual != expected:
        diff = difflib.unified_diff(
            expected.split("\n"),
            actual.split("\n"),
            "EXPERIMENTS.md (Full report)",
            "examples/streambench_campaign.py --full",
            lineterm="",
        )
        pytest.fail("full-scale report differs:\n" + "\n".join(diff), pytrace=False)
