"""The benchmark's workloads run end to end on the program and pass their checks.

``perfbench/run.py`` exits 1 on a failed check and on any exception from
the program API it calls, so a change to that API shows here and not first
in a benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


@pytest.mark.parametrize("workload", ["train-small", "predict-eval", "ablate-compact"])
def test_workload_runs_and_checks(workload, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1", "--seconds", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
