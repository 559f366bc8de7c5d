"""Replay the golden CLI digests in ``golden/cli.txt`` in-process.

Each line pins one invocation's exit code and the SHA-256 of its stdout and
stderr; ``golden/make_cli.py`` writes the file and says when to regenerate it.
"""

from golden.make_cli import GOLDEN, digest, invocations

LINES = [line for line in GOLDEN.read_text(encoding="utf-8").splitlines() if line[:1] != "#"]


def test_the_golden_file_lists_the_generators_invocations():
    assert [line.split()[3:] for line in LINES] == invocations()


def test_every_cli_invocation_matches_its_golden_digest():
    changed = [line.split()[3:] for line in LINES if digest(line.split()[3:]) != line]
    assert changed == []
