"""Replay of every checked-in fuzz reproducer — GENERATED FILE.

Regenerated by ``repro.fuzz.corpus.Corpus.write_regression_test`` (the
``fuzz`` CLI does this after recording findings).  Each entry under
``fuzz/corpus/`` is a minimized program that once exposed a divergence
between the interpreter, the Graham-Glanville backend and the PCC
baseline.  With the bug fixed, all three must agree forever after; a
failure here means a regression resurrected an old bug.  Do not edit by
hand — rerun the fuzzer instead.
"""

import pathlib

import pytest

from repro.fuzz.corpus import Corpus
from repro.fuzz.oracle import run_oracle

CORPUS = pathlib.Path(__file__).resolve().parents[2] / "fuzz" / "corpus"

FINGERPRINTS = [
    '1ed3522c3a30cf39',
    '4bb3b8de152c0170',
    'ee4c01aa01a850e7',
    'f174cb55c9adc025',
]


@pytest.mark.parametrize("fingerprint", FINGERPRINTS or ["<empty>"])
def test_corpus_reproducer_agrees(fingerprint):
    if not FINGERPRINTS:
        pytest.skip("fuzz corpus is empty")
    entry = Corpus(CORPUS).entry(fingerprint)
    report = run_oracle(entry.source, target=entry.target)
    assert report.ok, (
        f"corpus reproducer {fingerprint} ({entry.target}) diverges "
        f"again: {report.divergence} ({report.detail})"
    )
