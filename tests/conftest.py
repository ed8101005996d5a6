import sys

import hypothesis
import pytest

hypothesis.settings.register_profile(
    "suite", deadline=None, derandomize=True, max_examples=100
)
hypothesis.settings.load_profile("suite")


@pytest.fixture
def rebind(monkeypatch):
    """Replace a function under every name that a ``nilpath`` module binds
    it to, so that no route reaches the original. The fixture's
    monkeypatch restores them after the test."""

    def patch(function, replacement):
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "nilpath"]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is function:
                    monkeypatch.setattr(module, attr, replacement)

    return patch


@pytest.fixture
def refuse(rebind):
    """Make functions raise when called, under every name that a ``nilpath``
    module binds them to, so that a test can show a route never calls them."""

    def patch(*functions):
        for function in functions:

            def refused(*args, name=function.__qualname__, **kwargs):
                raise AssertionError(f"{name} was called")

            rebind(function, refused)

    return patch
