#!/usr/bin/env python3
"""Driving the batch interface: problem files in, JSON certificates out.

Run: python demos/08_batch_cli.py
"""

import json
import sys
import tempfile
from pathlib import Path

from padicspec.cli import run_command

with tempfile.TemporaryDirectory(prefix="padicspec-demo-") as tmp:
    workdir = Path(tmp)

    # Lift a residue from the command line alone.
    print("$ padicspec lift --p 5 --m 3 --residue 2")
    run_command(["lift", "--p", "5", "--m", "3", "--residue", "2"], sys.stdout)

    # Matrices travel as row-major scalar arrays; scalars are {v, u} pairs
    # with the unit residue as a decimal string.
    problem = {
        "p": 3,
        "m": 4,
        "entries": [
            {"v": 0, "u": "1"}, {"v": 0, "u": "1"},
            {"v": 0, "u": "0"}, {"v": 0, "u": "1"},
        ],
    }
    unipotent = workdir / "unipotent.json"
    unipotent.write_text(json.dumps(problem))

    print(f"\n$ padicspec jordan --in {unipotent.name}")
    run_command(["jordan", "--in", str(unipotent)], sys.stdout)

    # Mathematical rejections use exit status 1 and carry a structured reason.
    print(f"\n$ padicspec hermite --in {unipotent.name}")
    status = run_command(["hermite", "--in", str(unipotent)], sys.stdout)
    print(f"exit status: {status}")

    # Malformed inputs use exit status 2 and name the offending field.
    broken = workdir / "broken.json"
    broken.write_text(json.dumps({"p": 3, "m": 4, "entries": [{"v": 0, "u": "1"}] * 3}))
    print(f"\n$ padicspec classify --in {broken.name}")
    status = run_command(["classify", "--in", str(broken)], sys.stdout)
    print(f"exit status: {status}")
