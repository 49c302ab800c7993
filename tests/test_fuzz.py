"""A seeded structural fuzz of the CLI: each input is a spec fixture or the
``solve_rhs.json`` field with one leaf replaced by a bad value or one key
dropped, run in-process through ``cli.main``.  Every run must end with an
exit code that the README documents, with no exception and no warning, and
a failure must print exactly one ``error:`` line to stderr.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import warnings
from pathlib import Path

from torus_hypo import cli

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

#: the exit codes of the README's table
DOCUMENTED_EXITS = {0, 10, 20, 2, 30, 31, 32, 33, 40, 41, 50}

#: values a leaf is replaced with
BAD_VALUES = [
    None, True, False, "", "abc", "1/0", "nan", "-inf", "1e400", -7, 0, 3,
    1e308, -1e308, 10**400, 2.5, [], {}, ["1", "x"], {"cf": "1,0,3"},
    {"cf": "constant:0"}, {"cos": ["1e400"]}, {"const": "1/2", "cos": ["1"]},
]

#: the commands that run on a spec alone, and the flags of ``singular``
SPEC_COMMANDS = ("classify", "diagnose", "normalform", "singular")
SINGULAR_FLAGS = ["--xi-max", "16", "--grid", "32"]

#: the spec fixtures
SPECS = sorted(p.stem for p in FIXTURES.glob("*.json") if "tubes" in p.read_text(encoding="utf-8"))

#: inputs that once ended in a traceback, a warning or a silent NaN: (kind,
#: fixture, its edits), an edit setting the leaf at a path to a value
KNOWN = [
    ("singular", "singular_rationalJ", [(("tubes", 0, "a"), {"const": "1/2", "cos": ["1"]})]),
    ("singular", "cond1", [(("tubes", 0, "a"), {"const": "1/2", "cos": ["1"]}), (("tubes", 0, "b"), {"sin": ["1"]})]),
    ("singular", "cond1", [(("tubes", 0, "b"), {"sin": ["1e400"]})]),
    ("singular", "cond1", [(("tubes", 0, "b", "cos", 0), 1e308)]),
    ("singular", "singular_rationalJ", [(("tubes", 1, "a"), 1e308)]),
    ("solve", "solve_rhs", [(("blocks", 0, "im", 0), 1e308)]),
    ("solve", "solve_rhs", [(("blocks", 0, "xi"), 0), (("blocks", 0, "im", 0), 1e308)]),
]


def _leaves(obj, path=()):
    """The path of every leaf of a JSON value (a scalar or an empty
    container); of a list only its first two entries."""
    if isinstance(obj, dict) and obj:
        for key, value in obj.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(obj, list) and obj:
        for k, value in enumerate(obj[:2]):
            yield from _leaves(value, path + (k,))
    else:
        yield path


def _mutated(obj, edits):
    """A copy of ``obj`` with each ``(path, value)`` of ``edits`` applied:
    the leaf at the path set to the value, or its key dropped when the
    value is "DROP"."""
    obj = json.loads(json.dumps(obj))
    for path, value in edits:
        *head, last = path
        parent = obj
        for key in head:
            parent = parent[key]
        if value == "DROP":
            del parent[last]
        else:
            parent[last] = value
    return obj


def _sample(seed: int, count: int) -> list:
    """``count`` seeded one-leaf mutations (kind, fixture, edits) over the
    spec commands and the rhs of ``solve``, then the KNOWN inputs."""
    rng = random.Random(seed)
    rhs_leaves = list(_leaves(json.loads((FIXTURES / "solve_rhs.json").read_text())))
    runs = []
    for _ in range(count):
        kind = rng.choice([*SPEC_COMMANDS, "solve"])
        stem = "solve_rhs" if kind == "solve" else rng.choice(SPECS)
        leaves = rhs_leaves if kind == "solve" else list(_leaves(_load(stem)))
        path = rng.choice(leaves)
        value = rng.choice(BAD_VALUES + ["DROP"] * isinstance(path[-1], str))
        runs.append((kind, stem, [(path, value)]))
    return runs + KNOWN


def _load(stem: str):
    return json.loads((FIXTURES / f"{stem}.json").read_text(encoding="utf-8"))


def _run(kind, stem, edits, workdir: Path):
    """(exit code, stderr, warnings) of one mutated input."""
    given = workdir / "input.json"
    given.write_text(json.dumps(_mutated(_load(stem), edits)), encoding="utf-8")
    if kind == "solve":
        argv = ["solve", str(FIXTURES / "solve_spec.json"), str(given), str(workdir / "u.json")]
    elif kind == "singular":
        argv = ["singular", str(given), str(workdir / "out.json"), *SINGULAR_FLAGS]
    else:
        argv = [kind, str(given)]
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    return code, err.getvalue(), [str(w.message) for w in caught]


def _faults(runs, workdir: Path) -> list:
    """The runs that break the rules, each with what it did."""
    faults = []
    for kind, stem, edits in runs:
        try:
            code, err, caught = _run(kind, stem, edits, workdir)
        except Exception as exc:  # a traceback from main
            faults.append((kind, stem, edits, f"{type(exc).__name__}: {exc}"))
            continue
        one_line = err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        if code not in DOCUMENTED_EXITS or caught or (err != "" if code in (0, 10, 20) else not one_line):
            faults.append((kind, stem, edits, code, err, caught))
    return faults


def test_mutated_inputs_end_in_a_documented_exit_and_one_line(tmp_path):
    assert _faults(_sample(20261019, 160), tmp_path) == []
