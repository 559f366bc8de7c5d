"""Replay the golden CLI digests in ``golden/cli.txt`` in-process.

Each line pins one invocation's exit code and the SHA-256 of its stdout and
stderr; ``golden/make_cli.py`` writes the file and says when to regenerate it.
"""

import sys

import pytest

from golden.make_cli import GOLDEN, digest, invocations


@pytest.fixture
def lines(monkeypatch):
    monkeypatch.delenv("HGBERN_CACHE", raising=False)
    # main lifts the int <-> str digit limit for its process; other tests get it back
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    yield [line for line in GOLDEN.read_text(encoding="utf-8").splitlines() if line[:1] != "#"]
    if limit is not None:
        sys.set_int_max_str_digits(limit)


def test_the_golden_file_lists_the_generators_invocations(lines):
    assert [line.split()[3:] for line in lines] == invocations()


def test_every_cli_invocation_matches_its_golden_digest(lines):
    changed = [line.split()[3:] for line in lines if digest(line.split()[3:]) != line]
    assert changed == []
