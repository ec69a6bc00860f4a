"""The names the benchmark's span tracer patches still exist in ssag.

perfbench/spans.py wraps functions and methods by name; renaming or
deleting one of them breaks only the benchmark run, which the tier-1 suite
does not execute.  These checks import the tracer and install it once.
"""

import sys
from pathlib import Path

from ssag.optimizers import SPECS

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402  (perfbench/spans.py)


def test_tracer_installs_and_restores():
    tracer = spans.Tracer()
    with tracer.installed():
        installed = spans.installed_wrappers()
    assert "ssag.optimizers.make_state" in installed
    assert "ssag.optimizers.recompute_sum" in installed
    assert "ssag.optimizers.svrg_outer" in installed
    assert spans.installed_wrappers() == []


def test_step_functions_match_the_registry():
    assert spans.STEP_FUNCTIONS == {kind: spec.step for kind, spec in SPECS.items()}
