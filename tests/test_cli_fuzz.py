"""Seeded fuzz of the command line, in process.

Every call must return 0, 1 or 2 (argparse's usage exit counts as a
return), and a nonzero exit must print ``error:`` or usage text on
stderr, never a traceback.  The input classes:

* every subcommand that reads a file: nondom, proper, stability (with and
  without --cone), reduce (finite and hull mode), hull, poly and connect;
* JSON that is invalid text, a scalar, a list, or an object whose keys
  hold the wrong shape: a scalar, text, a ragged or empty matrix, null,
  booleans and floats;
* number cells and strings: zero denominators, text, nan and inf, long
  exponents, and integers over and just under Python's limit on the
  digits of an int as text (the limit itself is never raised);
* point CSV with a wrong header, ragged rows or no rows;
* a missing file, a directory and bytes that are not UTF-8 as a path;
* bad flags: an unknown option, a missing --input, a value that is not a
  number or not a choice, and a grid over the weight cap.

Instances stay small (at most 4 rows in at most 3 objectives), so the run
takes a few seconds.
"""

import json
import random
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from itertools import count

from pareto_kit.cli import main

CALLS = 400

SMALL = ["0", "1", "-1", "2", "1/2", "-3/2"]
ODD = [
    "",
    "x",
    "1/0",
    "1/x",
    "nan",
    "inf",
    "0.25",
    " 3 ",
    "1e3",
    "1e99999",
    "2e-99999",
    "9" * 5000,
    "1/" + "7" * 5000,
    "3" * 4000,
]
JUNK = [None, True, 0.5, 7, -2, 10**30, "text", [], {}, [[]], [1, "2"], {"x": 1}]
BAD_JSON = ["", "{", "[1,", "NaN", "1" * 5000, '{"generators": [[1e400]]}']


def _number(rng) -> str:
    return rng.choice(ODD) if rng.random() < 0.15 else rng.choice(SMALL)


def _matrix(rng, rows, width):
    """A rows x width matrix of number strings, or one of a few bad shapes."""
    roll = rng.random()
    if roll < 0.15:
        return rng.choice(JUNK)
    if roll < 0.25:
        # ragged
        return [[_number(rng) for _ in range(rng.randint(1, 3))] for _ in range(rows)]
    return [[_number(rng) for _ in range(width)] for _ in range(rows)]


def _json_text(rng, keys) -> str:
    """An object with ``keys`` (each a matrix or a vector of ``width``), or
    invalid text, a scalar, a list or an object missing a key."""
    roll = rng.random()
    if roll < 0.08:
        return rng.choice(BAD_JSON)
    if roll < 0.2:
        return json.dumps(rng.choice(JUNK))
    width = rng.randint(1, 3)
    rows = rng.randint(1, 4)
    data = {}
    for key in keys:
        if key == "b":
            vector = [_number(rng) for _ in range(rows)]
            data[key] = vector if rng.random() < 0.9 else rng.choice(JUNK)
        elif key == "labels":
            if rng.random() < 0.5:
                data[key] = rng.choice([[f"x{i}" for i in range(rows)], "xy", ["a"] * rows])
        else:
            data[key] = _matrix(rng, rows, width)
    if rng.random() < 0.1 and data:
        del data[rng.choice(sorted(data))]
    return json.dumps(data)


def _csv_text(rng) -> str:
    roll = rng.random()
    width = rng.randint(1, 3)
    header = ",".join(f"y{j + 1}" for j in range(width))
    if roll < 0.05:
        return ""
    if roll < 0.1:
        header = rng.choice(["a,b", "y2,y1", "y1,,y3"])
    rows = [
        ",".join(_number(rng) for _ in range(width if rng.random() < 0.9 else width + 1))
        for _ in range(rng.randint(0, 4))
    ]
    return "\n".join([header, *rows]) + "\n"


def _call(rng, tmp_path, k):
    """One fuzzed argv, with the files it names written under ``tmp_path``."""

    names = count()

    def file(text, suffix):
        path = tmp_path / f"in{k}-{next(names)}.{suffix}"
        path.write_text(text, encoding="utf-8")
        return str(path)

    command = rng.choice(["nondom", "proper", "stability", "reduce", "hull", "poly", "connect"])
    if command in ("nondom", "proper", "stability"):
        argv = [command, "--input", file(_csv_text(rng), "csv")]
        if command == "stability" and rng.random() < 0.5:
            argv += ["--cone", file(_json_text(rng, ["generators"]), "json")]
    elif command == "reduce":
        if rng.random() < 0.5:
            argv = [command, "--input", file(_json_text(rng, ["objectives", "labels"]), "json")]
        else:
            argv = [command, "--mode", "hull", "--input", file(_json_text(rng, ["generators"]), "json")]
            if rng.random() < 0.9:
                argv += ["--queries", file(_csv_text(rng), "csv")]
        if rng.random() < 0.2:
            argv += ["--max-objectives", rng.choice(["0", "1", "-3", "99"])]
    elif command == "hull":
        argv = [command, "--input", file(_json_text(rng, ["generators"]), "json")]
        for _ in range(rng.randint(0, 2)):
            argv += ["--query", ",".join(_number(rng) for _ in range(rng.randint(1, 3)))]
        if rng.random() < 0.5:
            argv += ["--queries", file(_csv_text(rng), "csv")]
    elif command == "poly":
        argv = [command, "--input", file(_json_text(rng, ["A", "b"]), "json")]
        if rng.random() < 0.5:
            argv += ["--samples", file(_csv_text(rng), "csv")]
    else:
        keys = rng.choice([["generators"], ["A", "b"]])
        argv = [command, "--input", file(_json_text(rng, keys), "json")]
        argv += ["--grid", rng.choice(["1", "2", "3", "0", "-1", "99999999999"])]
        if rng.random() < 0.3:
            argv += ["--mode", rng.choice(["auto", "hull", "poly"])]
        if rng.random() < 0.3:
            argv += ["--epsilon", _number(rng)]
        if rng.random() < 0.2:
            argv += ["--tsv", str(tmp_path / f"out{k}.tsv")]
    roll = rng.random()
    if roll < 0.04:
        argv[argv.index("--input") + 1] = str(tmp_path / "missing.csv")
    elif roll < 0.07:
        argv[argv.index("--input") + 1] = str(tmp_path)
    elif roll < 0.1:
        path = tmp_path / f"in{k}-bytes"
        path.write_bytes(b"y1,y2\n\xff\xfe,1\n")
        argv[argv.index("--input") + 1] = str(path)
    elif roll < 0.18:
        bad = rng.choice(
            [["--bogus"], ["--grid", "x"], ["--mode", "nope"], ["--max-objectives", "x"]]
        )
        if rng.random() < 0.5:
            i = argv.index("--input")
            argv = argv[:i] + argv[i + 2 :]
        argv += bad
    return argv


def test_fuzzed_cli_calls_end_in_a_report_an_error_or_usage(tmp_path):
    rng = random.Random(2026)
    exits = {0: 0, 1: 0, 2: 0}
    for k in range(CALLS):
        argv = _call(rng, tmp_path, k)
        out, err = StringIO(), StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback at the command line
            raise AssertionError(f"{argv} raised {exc!r}") from exc
        assert code in exits, (argv, code)
        exits[code] += 1
        text = err.getvalue()
        assert "Traceback" not in text, (argv, text)
        if code:
            assert "error:" in text or "usage:" in text, (argv, text)
    assert min(exits.values()) > 20, exits
