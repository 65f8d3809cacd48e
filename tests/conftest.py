"""Fixtures shared by the test modules."""

import os
import pathlib

import pytest

import shiftlab


@pytest.fixture()
def child_env():
    """Environment for a child interpreter: it imports the same shiftlab as
    the tests, whether or not PYTHONPATH was set for them."""
    src = str(pathlib.Path(shiftlab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env
