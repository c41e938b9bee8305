"""Byte-identical CLI outputs on the benchmark corpora.

Each workload of perfbench/ is built at the golden seed and every problem
is run through run_command; exit status and the sha256 of stdout must
match the digests frozen in perfbench/golden/.  Nothing under perfbench/
is written.
"""

import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from padicspec.cli import run_command

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import corpus  # noqa: E402


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_cli_matches_golden_digests(workload, tmp_path):
    golden = json.loads((ROOT / "perfbench" / "golden" / f"{workload}.json").read_text())
    problems = corpus.build(workload, golden["seed"])
    assert sorted(pr.pid for pr in problems) == sorted(golden["problems"])
    mismatched = []
    for pr in problems:
        argv = list(pr.argv)
        if pr.doc is not None:
            path = tmp_path / f"{pr.pid}.json"
            path.write_text(json.dumps(pr.doc), encoding="utf-8")
            argv[1:1] = ["--in", str(path)]
        stream = io.StringIO()
        status = run_command(argv, stream)
        digest = [status, hashlib.sha256(stream.getvalue().encode()).hexdigest()]
        if digest != golden["problems"][pr.pid]:
            mismatched.append(pr.pid)
    assert not mismatched
