#!/usr/bin/env python3
"""Print the output corpus of this checkout: one line per record, its label
and a short sha256 of its canonical text.

    python3 scripts/corpus.py > tests/data/corpus.txt

The records are:

- every case of ``compare_sides.py --quick`` but its verdicts, which the
  commands' reports hold: each series side's ``(cap, den, nums)`` or the
  exception it raises, each float side at the default float points, each
  scalar sum and each admissibility check, by the same ``outcome`` that
  script compares;
- the five commands through ``cli.run``, in text, CSV and JSON, at a few
  points each, the exit-2 refusals among them: the exit status, stdout and
  stderr of each run.

A command's wall time is left out of its record: the ``elapsed_seconds``
JSON field, the ``elapsed:`` text line, the trailing ``elapsed_seconds``
CSV column and the sweep's ``timing:`` line. Everything else is exact: a
float goes in by its ``repr``, which round-trips a double.

``tests/test_corpus.py`` rebuilds the corpus and compares it with the
committed one. A change that alters an output on purpose regenerates the
file and names each changed record class. Only the standard library is
used.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from compare_sides import ROOT, cases  # noqa: E402

DIGEST_CHARS = 16
FORMATS = ("text", "csv", "json")
_P = "--alpha 3/7 --beta 2/5"
# the command lines, each run once per output format
COMMANDS = [
    "list",
    # series entries: a product grid point, entries the paper states with
    # e**x at the default cap and at cap 40, an expansion, both readings of
    # 3.3, an inadmissible point; then the scalar sums
    f"verify --identity 2.1 {_P} --i 2 --j 1",
    f"verify --identity 2.3 {_P} --i 1 --j 1 --printed-form",
    f"verify --identity 1.10 {_P}",
    "verify --identity 1.13 --alpha 3/7 --degree 40",
    "verify --identity 1.17 --alpha 3/7 --i 3",
    "verify --identity 3.1 --alpha 3/7 --i 1 --j 2",
    "verify --identity 3.3 --alpha 3/7 --i 1 --j 1 --printed-form",
    "verify --identity 1.10 --alpha=-1 --beta 2/5",
    "verify --identity 1.3 --alpha 1/3 --beta 2/5 --i 4",
    "verify --identity 1.4 --alpha=-300 --beta 1/3",
    "verify --identity 1.8 --alpha 1/3 --beta 2/5 --gamma 1/7",
    f"sweep --identity 2.1,2.2,2.3 {_P},-1/2 --i 1 --j 1",
    "sweep --identity 3.3 --alpha 3/7 --i 1 --j 1 --printed-form",
    "sweep --identity 1.3,1.5 --alpha 1/3,2 --beta 2/5 --i 2",
    "expand --identity 1.5 --alpha 3/7 --side lhs --degree 8",
    f"expand --identity 2.3 {_P} --i 1 --j 1",
    "expand --identity 3.1 --alpha 3/7 --i 1 --j 1 --degree 6",
    "eval --identity 1.17 --alpha 3/7 --i 2 --x 2",
    f"eval --identity 2.1 {_P} --i 1 --j 1 --x 0.5",
    "eval --identity 1.8 --alpha 1/3 --beta 2/5 --gamma 1/7",
    # refusals, each with exit status 2
    "verify --identity 2.1 --alpha 0.5 --beta 2/5",
    "verify --identity 9.9 --alpha 3/7",
    f"verify --identity 2.1 {_P} --degree 513",
    f"verify --identity 2.1 {_P} --i=-1",
    "verify --identity 1.5 --alpha 3/7 --i 3",
    "verify --identity 2.1 --alpha 3/7 --beta 2/5 --printed-form",
    "verify --identity 1.3 --alpha 1/3 --beta 2/5 --degree 20",
    "verify --identity 2.1 --alpha 3/7 --beta 1/0",
    "sweep --identity 1.5 --alpha 3/7 --j 2",
    "sweep --identity 2.1 --alpha 3/7",
    "sweep --identity 1.3 --alpha 1/3 --beta 2/5 --degree 20",
    "sweep --identity 2.1 --alpha 1,2,3,4,5,6,7,8,9,10 --beta 1,2,3,4,5 --i 15 --j 15",
    "expand --identity 1.3 --alpha 1/3 --beta 2/5",
    "eval --identity 2.1 --alpha 3/7 --beta 2/5",
    "eval --identity 1.3 --alpha 1/3 --beta 2/5 --x 2",
    "eval --identity 1.10 --alpha=-1 --beta 2/5 --x 1",
]
_TIMES = [
    re.compile(r'^ *"elapsed_seconds": .*\n', re.M),
    re.compile(r"^elapsed: .*\n?", re.M),
    re.compile(r"^timing: .*\n", re.M),
]


def _untimed(output: str, text: str) -> str:
    """``text`` without the wall times of a run."""
    if output == "csv" and text.startswith("identity,alpha,"):  # a report table, elapsed_seconds last
        text = re.sub(r",[^,\n]*$", "", text, flags=re.M)
    for pattern in _TIMES:
        text = pattern.sub("", text)
    return text


def command_records(cli):
    """``(label, text)`` of every command line in every output format."""
    for command in COMMANDS:
        for output in FORMATS:
            argv = [*command.split(), "--output", output]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(argv)
            yield f"cli {' '.join(argv)}", repr((code, _untimed(output, out.getvalue()), _untimed(output, err.getvalue())))


def records(package):
    """``(label, text)`` of every record of the corpus of ``package``, an
    imported ``hypident``."""
    for label, (outcome,) in cases([package], quick=True):
        if not label.endswith(" verdict"):
            yield label, repr(outcome)
    yield from command_records(importlib.import_module(f"{package.__name__}.cli"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:DIGEST_CHARS]


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import hypident

    sys.stdout.write("".join(f"{label} {digest(text)}\n" for label, text in records(hypident)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
