"""The traced benchmark still finds every function it spans.

perfbench/trace.py wraps padicspec entry points named by module and
attribute path, so renaming or deleting one of them would otherwise only
show when the benchmark runs with --trace 1.  Nothing under perfbench/
is written.
"""

import sys
from pathlib import Path

import padicspec.cli  # noqa: F401  (the tracer rebinds names in every loaded padicspec module)

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.trace import SPANS, Tracer  # noqa: E402


def _span_targets():
    for modname, path, _, _ in SPANS:
        owner = sys.modules[f"padicspec.{modname}"]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        yield (modname, path), owner.__dict__[attr]


def test_tracer_installs_and_uninstalls_every_span():
    originals = dict(_span_targets())
    tracer = Tracer()
    try:
        tracer.install()
        assert [key for key, target in _span_targets() if target is originals[key]] == []
    finally:
        tracer.uninstall()
    assert dict(_span_targets()) == originals
