"""The package surface: lazy public names and a lean shard-worker import."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


@pytest.mark.parametrize("name", repro.__all__)
def test_public_name_imports_and_is_listed(name):
    namespace: dict = {}
    exec(f"from repro import {name}", namespace)
    assert namespace[name] is getattr(repro, name)
    assert name in dir(repro)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name
    assert not hasattr(repro, "no_such_name")


def test_shard_worker_import_leaves_the_scientific_stack_out():
    """A `repro-shard` process imports the cache tier, not scipy or the
    strategy stack, so it boots in a fraction of the planner's time."""
    heavy = [
        "scipy",
        "repro.strategies",
        "repro.distributions",
        "repro.simulation",
        "repro.verification",
    ]
    code = (
        "import sys, repro.service.shard; "
        f"print([m for m in {heavy!r} if m in sys.modules])"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
