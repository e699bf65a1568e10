"""Fixtures shared by the test modules."""

import os
import sys

import pytest
from hypothesis import settings

import g2sew  # noqa: F401  (imports every layer module)

# HYPOTHESIS_PROFILE=ci draws the same examples on every run, so a failure
# reproduces; the per-test example counts are unchanged
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def _wrap_everywhere(monkeypatch, name, before):
    """Wrap every g2sew binding of the function ``name`` (the defining
    module's and each ``from ... import`` copy) so that each call runs
    before(args) first."""
    modules = [mod for mod_name, mod in list(sys.modules.items())
               if mod_name.split(".")[0] == "g2sew"]
    orig = next(getattr(mod, name) for mod in modules
                if getattr(getattr(mod, name, None), "__module__", None) == mod.__name__)

    def wrapped(*args, **kwargs):
        before(args)
        return orig(*args, **kwargs)

    for mod in modules:
        if getattr(mod, name, None) is orig:
            monkeypatch.setattr(mod, name, wrapped)


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(*names) wraps every g2sew binding of the named functions
    with a counter and returns the live dict of call counts by name."""

    def install(*names):
        counts = dict.fromkeys(names, 0)
        for name in names:
            _wrap_everywhere(monkeypatch, name,
                             lambda args, _name=name: counts.update({_name: counts[_name] + 1}))
        return counts

    return install


@pytest.fixture
def record_calls(monkeypatch):
    """record_calls(name) wraps every g2sew binding of the named function
    and returns the live list of each call's positional arguments."""

    def install(name):
        calls = []
        _wrap_everywhere(monkeypatch, name, calls.append)
        return calls

    return install
