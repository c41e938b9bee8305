"""The demos run end to end and print exactly the bytes they printed before.

Each digest is the sha256 of a demo's stdout.  The demos drive the public
API end to end, so a changed digest means it now computes or prints
something different.  To record a new digest after an intended output
change, run the demo with PYTHONPATH=src and pipe its stdout through
sha256sum.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

DIGESTS = {
    "01_scalars_and_lifts.py": "84b22bbf6ab50665f47c73c51e724149191bec28ed3acf497fd4a73d4ecbf6bb",
    "02_finite_fields_and_extensions.py": "09a4eebaab5fc508f223a097020b9fe31ad8027de74954214a4b2ae32e410cda",
    "03_orthogonal_projections.py": "ec6f6e7d894af75eff90dcc9a2be7defc031ed1d09cb2bc36bc9d718f7eea572",
    "04_spectral_decomposition.py": "3f16b509f71987e41f5fae7e8384d95bc884a69943940b74511459fe9ae2c7f1",
    "05_fractal_measure.py": "9db9e7ac2f92203bfe63d0644994f4b76156385b752be7860ead0bfe32f9d997",
    "06_jordan_and_uncertainty.py": "1ecb61e75a879d90d7001719c4cffd2c1684ece062aac5afad1b818fae323ba0",
    "07_ladder_operators.py": "20700b38e82253fc2f4c3ca3171a8ac5db1bf3178500ecd4aabecb45a280af8b",
    "08_batch_cli.py": "800b45c41653eacd1ad68bd0b2e032f1cd0d42e844a3650a94269aaa89918d01",
}


def test_every_demo_has_a_digest():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_output_is_unchanged(name, tmp_path):
    # TMPDIR keeps the files the batch demo writes inside the test's directory
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, cwd=ROOT, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DIGESTS[name]
