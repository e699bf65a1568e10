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


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(*names) wraps every g2sew binding of the named functions
    (the defining module's and each ``from ... import`` copy) with a counter
    and returns the live dict of call counts by name."""

    def install(*names):
        counts = dict.fromkeys(names, 0)
        modules = [mod for mod_name, mod in list(sys.modules.items())
                   if mod_name.split(".")[0] == "g2sew"]
        for name in names:
            orig = next(getattr(mod, name) for mod in modules
                        if getattr(getattr(mod, name, None), "__module__", None)
                        == mod.__name__)

            def counted(*args, _orig=orig, _name=name, **kwargs):
                counts[_name] += 1
                return _orig(*args, **kwargs)

            for mod in modules:
                if getattr(mod, name, None) is orig:
                    monkeypatch.setattr(mod, name, counted)
        return counts

    return install
