"""The reproducer corpus: findings that must never come back.

Every divergence the fuzzer finds is minimized and persisted under
``fuzz/corpus/<fingerprint>/`` as

* ``repro.c``   — the minimized source, ready for any pipeline;
* ``meta.json`` — divergence class, oracle detail, originating seed and
  case number, statement count, and the target the finding was made on
  (an entry without one is a VAX finding).

The fingerprint is content-addressed (sha256 of the minimized source
plus the divergence class, plus the target when it is not VAX), so
re-finding the same bug is a no-op and two distinct bugs that happen to
shrink to similar programs stay distinct.
:meth:`Corpus.write_regression_test` regenerates the pytest module that
replays every entry through the oracle on its own target; once the
underlying bug is fixed the replay expects full agreement, turning each
past finding into a permanent regression test.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional

_REPO_ROOT = Path(__file__).resolve().parents[3]

_TEST_HEADER = '''"""Replay of every checked-in fuzz reproducer — GENERATED FILE.

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
'''

_TEST_FOOTER = ''']


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
'''


def fingerprint(source: str, divergence: str, target: str = "vax") -> str:
    """Stable content address for one finding.  A VAX finding hashes
    exactly as before targets were recorded, so old entries keep their
    names."""
    digest = hashlib.sha256()
    digest.update(divergence.encode())
    digest.update(b"\0")
    digest.update(source.encode())
    if target != "vax":
        digest.update(b"\0" + target.encode())
    return digest.hexdigest()[:16]


def default_corpus_dir() -> Path:
    return _REPO_ROOT / "fuzz" / "corpus"


def default_regression_path() -> Path:
    return _REPO_ROOT / "tests" / "regression" / "test_fuzz_corpus.py"


@dataclass
class CorpusEntry:
    fingerprint: str
    source: str
    meta: dict

    @property
    def target(self) -> str:
        """The target the finding was made on (VAX when unrecorded)."""
        return self.meta.get("target") or "vax"


class Corpus:
    """The on-disk reproducer store."""

    def __init__(self, root: Optional[Path] = None) -> None:
        self.root = Path(root) if root is not None else default_corpus_dir()

    # ------------------------------------------------------------- reading
    def fingerprints(self) -> List[str]:
        if not self.root.is_dir():
            return []
        return sorted(
            entry.name for entry in self.root.iterdir()
            if (entry / "repro.c").is_file()
        )

    def entry(self, name: str) -> CorpusEntry:
        directory = self.root / name
        meta_path = directory / "meta.json"
        meta = (json.loads(meta_path.read_text())
                if meta_path.is_file() else {})
        return CorpusEntry(
            fingerprint=name,
            source=(directory / "repro.c").read_text(),
            meta=meta,
        )

    def entries(self) -> Iterator[CorpusEntry]:
        for name in self.fingerprints():
            yield self.entry(name)

    def __len__(self) -> int:
        return len(self.fingerprints())

    # ------------------------------------------------------------- writing
    def record(self, source: str, divergence: str, *,
               target: str = "vax",
               detail: str = "", seed: Optional[int] = None,
               case: Optional[int] = None,
               statements: Optional[int] = None) -> str:
        """Persist one minimized finding made on *target*; returns its
        fingerprint.

        Idempotent: an already-recorded fingerprint is left untouched,
        so replay metadata (and any hand-added notes) survive re-runs.
        """
        name = fingerprint(source, divergence, target)
        directory = self.root / name
        if (directory / "repro.c").is_file():
            return name
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "repro.c").write_text(source)
        meta = {
            "fingerprint": name,
            "divergence": divergence,
            "detail": detail,
            "seed": seed,
            "case": case,
            "statements": statements,
            "target": target,
        }
        (directory / "meta.json").write_text(
            json.dumps(meta, indent=2, sort_keys=True) + "\n"
        )
        return name

    def write_regression_test(self, path: Optional[Path] = None) -> Path:
        """(Re)generate the pytest module replaying every corpus entry."""
        path = Path(path) if path is not None else default_regression_path()
        body = "".join(
            f"    {name!r},\n" for name in self.fingerprints()
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(_TEST_HEADER + body + _TEST_FOOTER)
        return path
