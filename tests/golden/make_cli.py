"""Write ``cli.txt``: one digest line per invocation of a fixed list of CLI calls.

Each line holds the invocation's exit code, the SHA-256 of its stdout and of
its stderr, and its argv, separated by single spaces.  ``tests/test_golden.py``
replays every line in-process through ``cli.main`` and compares.  The list
covers the default ``verify``, five ``--routes`` sweeps, every
``compute --route`` on a small grid (most points outside a route's domain, so
error texts and exit codes are pinned too), two tables, the convergent
checks, the worked congruence examples, a few hypothesis errors and integer
arguments below their least value.  No
invocation reaches an argparse error, whose text varies between Python
versions, or a cache file.

Regenerate with ``PYTHONPATH=src python tests/golden/make_cli.py`` only for an
intended change of output, and name each changed line in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
from itertools import product
from pathlib import Path

from hgbern import cli

GOLDEN = Path(__file__).with_name("cli.txt")

HEADER = """\
# Golden CLI digests: exit code, SHA-256 of stdout, SHA-256 of stderr, argv.
# Replayed by tests/test_golden.py with HGBERN_CACHE unset.  Regenerate with
#   PYTHONPATH=src python tests/golden/make_cli.py
# only for an intended change of output, naming each changed line in CHANGES.md.
"""

ROUTE_SWEEPS = (
    "recurrence,det",
    "recurrence,comp,trudi",
    "recurrence,binom,descent",
    "recurrence,descent-nested",
    "recurrence,convolution",
)

CONGRUENCES = (
    "classical -p 5 -m 6 -n 2",
    "hb-kummer -p 5 -n 6 --ordp-target 4",
    "hb-kummer -p 5 -n 2 -N 626",
    "factorial -p 3 -N 10 -n 6",
    "factorial -p 5 -N 26 -n 6",
    "hb-pair -p 5 -m 22 -n 2 --nu 1 --ordp-target 48",
    # hypotheses and arguments that are refused
    "classical -p 5 -m 8 -n 2",
    "classical -p 5 -m 6 -n 3",
    "classical -p 7 -m 10 -n 2",
    "classical -p 4 -m 6 -n 2",
    "hb-kummer -p 5 -n 4 -N 626",
    "hb-kummer -p 5 -n 6 -N 6",
    "hb-pair -p 5 -m 2 -n 6 -N 626",
    "factorial -p 3 -N 0 -n 6",
    # integer arguments below their least value
    "classical -p 5 -m 6 -n 2 --nu=-1",
    "hb-kummer -p 5 -n 6 --nu=-1 -N 626",
    "hb-pair -p 5 -m 22 -n 2 --nu=-1 -N 626",
    "hb-kummer -p 5 -n 0 -N 626",
    "factorial -p 3 -N 10 -n=-1",
)


def invocations() -> list[list[str]]:
    """The fixed list of argvs, in the order of ``cli.txt``."""
    calls = [["verify"]]
    calls += [["verify", "-n", "0..14", "--routes", routes] for routes in ROUTE_SWEEPS]
    routes = ("recurrence", "comp", "binom", "trudi", "det", "descent", "descent-nested")
    for route, N, n, r in product(
        (*routes, "convolution"), (0, 1, 2, 5), (-1, 0, 1, 2, 7), (0, 1, 3)
    ):
        calls.append(["compute", "--route", route, "-N", str(N), "-n", str(n), "-r", str(r)])
    calls += [
        ["compute", "-N", "3", "-n", "6", "--decimal", "8"],
        ["compute", "-N", "1", "-n", "12", "-r", "2", "--decimal", "0"],
        ["table", "-N", "1..3", "-n", "0..8", "-r", "1..2"],
        ["table", "-N", "2", "-n", "3..6", "-r", "3", "--format", "json"],
    ]
    calls += [
        ["convergents", "-N", str(N), "-n", str(n), "--check"]
        for N, n in product((1, 2, 3), range(8))
    ]
    calls += [
        ["convergents", "-N", "0", "-n", "3"],
        ["convergents", "-N", "2", "-n", "-1", "--route", "closed"],
        ["cache-audit"],
    ]
    calls += [["congruence", *line.split()] for line in CONGRUENCES]
    return calls


def digest(argv: list[str]) -> str:
    """The digest line of one in-process ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    sums = (hashlib.sha256(s.getvalue().encode("utf-8")).hexdigest() for s in (out, err))
    return " ".join((str(code), *sums, *argv))


def main() -> None:
    os.environ.pop("HGBERN_CACHE", None)  # a cache file would change what runs
    calls = invocations()
    assert all(arg and not any(c.isspace() for c in arg) for argv in calls for arg in argv)
    lines = [digest(argv) for argv in calls]
    GOLDEN.write_text(HEADER + "".join(f"{line}\n" for line in lines), encoding="utf-8")
    print(f"wrote {len(lines)} digests to {GOLDEN}")


if __name__ == "__main__":
    main()
