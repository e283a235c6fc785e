"""The benchmark's own test: every workload at reduced size, every check
on, untraced and traced.  Run with `python -m pytest bench/test_smoke.py`."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke(trace):
    proc = subprocess.run([sys.executable, str(RUN), "--smoke", "--trace", trace],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    results = json.loads(proc.stdout.splitlines()[-1])
    assert set(results) == {"verify", "refute", "structure"}
    for name, result in results.items():
        assert result["correct"], name
        assert result["attempted"] >= 1
    # the one failing job is the 1500-cycle hom count (README.md, "Named fault")
    assert [r["failed"] for r in results.values()] == [0, 0, 1 + int(trace)]
    metrics = results["structure"]["metrics"]
    if trace == "1":
        assert metrics["generation.clone_members"]["value"] == 16 + 18
        assert "trace.overhead_s" in metrics
    else:
        assert set(metrics) == {"wall_s", "job_p50_ms", "job_tail_ms", "peak_rss_mb", "setup_s"}
