"""Byte identity of the CLI against a golden manifest.

``golden.json`` maps each case (an ``hqz`` argv) to the sha256 of its
output: the table the run writes, what it prints and its exit code, with
one short digest per line so that a failure names the first line that
moved.  Each case runs through ``cli.main`` in an empty directory, with
relative output names, since the printed line names the table's path.
The cases are the scenarios at their defaults, the runs that reach a
path the defaults do not (each with its reason), the JSONL writer and the
FAIL line of the CI workflow.

The manifest holds bits, so it is compared only on the platform and
numpy version it was made on; elsewhere the test checks only the exit
code, then skips and says why.

Regenerate it, after a change that moves an output on purpose, with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from hqz.cli import SCENARIOS, main

MANIFEST = Path(__file__).with_name("golden.json")

# verify-t3 at its defaults runs C_n's even and odd recurrences, through
# the sphere means, at every n = 2 ... 8
CASES = [[s] for s in SCENARIOS] + [
    # omega of degree 40 leaves g' degree 23 below the cap
    ["verify-t2", "--k=0.5", "--degree=40", "--seeds=20"],
    # omega of degree 63 leaves g' degree 0, so 1 + omega is cut to its constant
    ["verify-t2", "--k=0.5", "--degree=63", "--seeds=20"],
    # the shortest omega, at the largest k the corpus draws
    ["verify-t2", "--degree=1", "--seeds=50", "--k=0.9"],
    # omega = 0 (P = F'), in one chunk of 64 seeds and one of 1
    ["verify-t2", "--k=0", "--seeds=65"],
    # from 16 nodes the rows of one verification stack settle at
    # different levels, M_1 and the entropy of one row too
    ["verify-t2", "--k=0.5", "--circle_nodes=16", "--seeds=50"],
    ["verify-t2", "--degree=2", "--seeds=20", "--r=0.9"],
    # from 64 nodes the square-function norms settle at different levels, in three stacks
    ["calderon-estimate", "--circle_nodes=64", "--seeds=150"],
    ["verify-t1", "--circle_nodes=64", "--seeds=150"],
    # the K^2 bound from dilatation_sup's stacked Newton polish, on
    # N = 128 nodes at degree 2 and at k = 0.9
    ["laplacian-audit", "--degree=2", "--seeds=20"],
    ["laplacian-audit", "--k=0.9", "--seeds=10"],
    # h = 0: the one-series audit, and a zero h' row in the stacked grid
    ["laplacian-audit", "--k=0", "--seeds=10"],
    # the JSONL writer, on the vacuous row of an empty corpus
    ["verify-t2", "--seeds=0", "--format=jsonl", "--out", "empty.jsonl"],
    ["verify-t1", "--seeds=2", "--c1c2=1e-6"],  # the FAIL line, exit 1
]


def made_on() -> dict:
    return {"platform": f"{platform.system()} {platform.machine()}",
            "python": platform.python_version(), "numpy": np.__version__}


def output_lines(argv: list[str]) -> list[bytes]:
    """The lines of the table ``hqz argv`` writes in the current directory,
    of its stdout and its exit code, each part under a header line."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    [table] = os.listdir()
    return [f"== table {table}\n".encode(), *Path(table).read_bytes().splitlines(True),
            b"== stdout\n", *out.getvalue().encode().splitlines(True),
            f"== exit {code}\n".encode()]


def digests(lines: list[bytes]) -> dict:
    return {"sha256": hashlib.sha256(b"".join(lines)).hexdigest(),
            "lines": [hashlib.sha256(line).hexdigest()[:16] for line in lines]}


def load_manifest() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_output_matches_the_manifest(argv, tmp_path, monkeypatch):
    manifest = load_manifest()
    made, here = manifest["made_on"], made_on()
    case = " ".join(argv)
    want = manifest["cases"][case]
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("HQZ_SEED", raising=False)
    lines = output_lines(argv)
    got = digests(lines)
    for key in ("platform", "numpy"):
        if made[key] != here[key]:
            # elsewhere the case still runs, and must exit as it does here
            assert got["lines"][-1] == want["lines"][-1], f"hqz {case}: {lines[-1]!r}"
            pytest.skip(f"exact mode needs {key} {made[key]} (this is {here[key]}); "
                        "the exit code matched, and no tolerance mode exists yet")
    if got["sha256"] != want["sha256"]:
        i = next((i for i, (a, b) in enumerate(zip(got["lines"], want["lines"])) if a != b),
                 min(len(got["lines"]), len(want["lines"])))
        line = lines[i].decode(errors="replace").rstrip("\n")[:200] if i < len(lines) else "<none>"
        pytest.fail(f"hqz {case}: output line {i + 1} differs from the manifest "
                    f"({len(lines)} lines now, {len(want['lines'])} stored): {line!r}")


def test_the_manifest_has_every_case():
    assert sorted(load_manifest()["cases"]) == sorted(" ".join(a) for a in CASES)


def regenerate() -> None:
    """Rewrite the manifest from the outputs of this checkout."""
    cases = {}
    home = os.getcwd()
    os.environ.pop("HQZ_SEED", None)
    for argv in CASES:
        with tempfile.TemporaryDirectory() as d:
            os.chdir(d)
            try:
                cases[" ".join(argv)] = digests(output_lines(argv))
            finally:
                os.chdir(home)
    MANIFEST.write_text(json.dumps({"made_on": made_on(), "cases": cases}, indent=1) + "\n",
                        encoding="utf-8")
    print(f"wrote {len(cases)} cases to {MANIFEST}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
