"""The committed output corpus, ``tests/data/corpus.txt``, rebuilt from this
checkout by ``scripts/corpus.py``: every series side, float side, scalar
sum, admissibility check and command output it records must be unchanged.

A change that alters an output on purpose regenerates the file with
``python3 scripts/corpus.py > tests/data/corpus.txt``."""

import importlib.util
from pathlib import Path

import hypident

ROOT = Path(__file__).resolve().parent.parent
COMMITTED = ROOT / "tests" / "data" / "corpus.txt"
SHOWN = 5

_SPEC = importlib.util.spec_from_file_location("corpus", ROOT / "scripts" / "corpus.py")
corpus = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(corpus)


def test_the_outputs_match_the_committed_corpus():
    committed = dict(line.rsplit(" ", 1) for line in COMMITTED.read_text().splitlines())
    current = list(corpus.records(hypident))
    labels = [label for label, _ in current]
    assert len(labels) == len(set(labels)), "a corpus label repeats"
    assert labels == list(committed), "the record set changed: regenerate the corpus and say why"
    differ = [(label, text) for label, text in current if corpus.digest(text) != committed[label]]
    shown = "\n".join(f"{label}\n    now: {text[:300]}" for label, text in differ[:SHOWN])
    assert not differ, f"{len(differ)} of {len(current)} records changed, the first:\n{shown}"
