import os
import subprocess
import sys

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "tools", "bench_pair.py")


def test_one_pair_is_rejected_before_any_run(tmp_path):
    # quartiles need two runs a side, so one pair is a usage error that
    # must come before the first benchmark run, not after the last
    missing = str(tmp_path / "no-such-checkout")
    proc = subprocess.run([sys.executable, SCRIPT, missing, missing,
                           "--workload", "lob-solve", "--seed", "1",
                           "--pairs", "1", "--label", "one"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1].endswith(
        "error: --pairs must be at least 2: quartiles need two runs a side")
    assert proc.stdout == ""
    assert os.listdir(tmp_path) == []
