"""tools/report_hashes.py: the sha256 of every golden report, made by ./src."""

import hashlib
import pathlib
import subprocess
import sys

from test_golden import INVOCATIONS, _run

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "report_hashes.py"


def test_prints_one_sha256_line_per_golden_report():
    out = subprocess.run([sys.executable, str(SCRIPT)], cwd=ROOT, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines() == [
        f"{hashlib.sha256(_run(INVOCATIONS[name]).encode()).hexdigest()} {name}"
        for name in sorted(INVOCATIONS)]


def test_takes_no_options():
    done = subprocess.run([sys.executable, str(SCRIPT), "--rewrite"], cwd=ROOT,
                          capture_output=True, text=True)
    assert done.returncode != 0 and done.stdout == ""
    assert "takes no options" in done.stderr
