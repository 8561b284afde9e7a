"""The benchmark's own output checks, run at toy size.

``perfbench/run.py --selfcheck`` runs every workload once traced and once
plain on tiny inputs, without timing, and checks every output against
numpy oracles: gate flags, least-squares baselines and scores, secant
candidates, affine exactness, bitwise save/load and report byte
stability.  It takes a few seconds.
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_selfcheck_passes_with_no_failed_operation():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                           "--selfcheck"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    verdicts = re.findall(r"^([\w-]+): (\w+) \(.*, (\d+) failed\)$", proc.stdout,
                          flags=re.MULTILINE)
    assert [name for name, _, _ in verdicts] == ["protocol-train",
                                                  "protocol-outliers",
                                                  "deploy-score"]
    assert all(status == "ok" and failed == "0" for _, status, failed in verdicts), \
        proc.stdout
