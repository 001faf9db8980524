import re
import subprocess
import sys
from pathlib import Path

from helpers import bench_corpus

ROOT = Path(__file__).resolve().parent.parent
LINE = re.compile(r"(\S+) +[\d.]+ ms  faults +\d+  user +[\d.]+ ms  sys +[\d.]+ ms")


def test_one_line_per_cli_op_of_the_workload(tmp_path):
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "op_faults.py"), "--workload", "smooth-mix", "--repeats", "1"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    ops = bench_corpus().build("smooth-mix", 1, tmp_path).ops
    names = [op.name for op in ops if op.kind != "project"]
    lines = result.stdout.splitlines()
    # every op exited 0, or its line would end in its exit code
    assert [LINE.fullmatch(line).group(1) for line in lines] == names
