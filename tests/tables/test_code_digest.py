"""The compiler's own code is a component of every cache key.

A persistent cache outlives the code that filled it: an entry written by
an older compiler must not answer a newer one, or a fixed miscompile is
served again from disk.  :func:`code_digest` covers every ``.py`` file
of the ``repro`` package, and both the table key and the result
fingerprint carry it, as :data:`CODE_DIGEST`, taken once at import.
"""

import os
import shutil
import subprocess
import sys

from repro.codegen.driver import GrahamGlanvilleCodeGenerator
from repro.compile import compile_program
from repro.tables.cache import CODE_DIGEST, PACKAGE_DIR, code_digest

SOURCE = (
    "int g;\n"
    "int f(int x) { g = x + 1; return g * 2; }\n"
    "int h(int y) { return y - g; }\n"
)

COMPILE = (
    "import sys\n"
    "from repro.compile import compile_program\n"
    "compile_program(sys.stdin.read(), result_cache_dir=sys.argv[1])\n"
)


def _copy_package(tmp_path, name, change_one_byte=False):
    """A copy of the ``repro`` package under ``tmp_path/name``; with
    *change_one_byte*, one comment letter of the driver swaps case."""
    copy = tmp_path / name / "repro"
    shutil.copytree(
        PACKAGE_DIR, copy, ignore=shutil.ignore_patterns("__pycache__")
    )
    if change_one_byte:
        path = copy / "codegen" / "driver.py"
        data = bytearray(path.read_bytes())
        at = data.index(b"# ") + 2
        assert chr(data[at]).isalpha()
        data[at] ^= 0x20
        path.write_bytes(bytes(data))
    return copy


def test_one_byte_changed_in_a_copy_changes_the_digest(tmp_path):
    same = _copy_package(tmp_path, "same")
    changed = _copy_package(tmp_path, "changed", change_one_byte=True)
    # identity is the code, not where it lives
    assert code_digest(str(same)) == CODE_DIGEST
    assert code_digest(str(changed)) != CODE_DIGEST


def test_entries_written_by_other_code_miss(tmp_path):
    """A table entry and two result entries stored by a copy of the
    compiler one byte away are all misses here; this compiler's own
    entries then hit."""
    copy = _copy_package(tmp_path, "other", change_one_byte=True)
    tables = tmp_path / "tables"
    results = tmp_path / "results"
    env = dict(
        os.environ, PYTHONPATH=str(copy.parent),
        REPRO_TABLE_CACHE_DIR=str(tables), REPRO_TABLE_CACHE="1",
    )
    subprocess.run(
        [sys.executable, "-c", COMPILE, str(results)],
        input=SOURCE, env=env, text=True, check=True, capture_output=True,
    )
    assert len(list(tables.glob("*.tables.pickle"))) == 1
    assert len(list(results.glob("*.result.pickle"))) == 2

    generator = GrahamGlanvilleCodeGenerator(cache_dir=str(tables))
    assert generator.table_source == "built"
    cold = compile_program(
        SOURCE, generator=generator, result_cache_dir=str(results)
    )
    assert (cold.cache_hits, cold.cache_misses) == (0, 2)
    warm = compile_program(
        SOURCE, generator=generator, result_cache_dir=str(results)
    )
    assert (warm.cache_hits, warm.cache_misses) == (2, 0)
    assert warm.text == cold.text
