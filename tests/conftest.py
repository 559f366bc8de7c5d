import sys

import pytest


@pytest.fixture
def int_digit_limit():
    """Python's default limit on int <-> str conversion, for one test."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python does not limit int <-> str conversion")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(before)


@pytest.fixture(autouse=True)
def hermetic(monkeypatch):
    """Keep each test off the user's HGBERN_CACHE and on the digit limit it started with."""
    monkeypatch.delenv("HGBERN_CACHE", raising=False)
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    yield
    if limit is not None:
        sys.set_int_max_str_digits(limit)


@pytest.fixture
def patch_every_binding(monkeypatch):
    """Rebind a function to a replacement in every hgbern module that binds it, for one test."""

    def patch(function, replacement):
        for module in [module for name, module in sys.modules.items() if name.startswith("hgbern")]:
            for attr in [attr for attr, value in vars(module).items() if value is function]:
                monkeypatch.setattr(module, attr, replacement)

    return patch
