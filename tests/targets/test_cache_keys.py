"""Target identity in every cache key — the aliasing bugfix, pinned.

Before targets were an explicit key component, both the persistent
table cache and the per-function result cache derived their keys only
from *content* (grammar text, packed-table bytes).  Two targets whose
encodings happened to collide would silently alias — a VAX entry could
answer an R32 probe.  The fix makes the target name an explicit,
first-class component of both key spaces (and bumps both envelope
versions so stale single-target entries can never be confused with
target-qualified ones).  These tests pin that property.
"""

from repro.result_cache import RESULT_VERSION, result_key, table_fingerprint
from repro.tables.cache import CACHE_VERSION, TableCache, table_cache_key

GRAMMAR_TEXT = "byte.reg -> + byte.reg byte.reg ;"
OPTIONS = dict(reversed_ops=True, overfactoring_fix=True,
               rescue_bridges=True)


class TestTableCacheKeys:
    def test_same_text_different_target_splits_the_key(self):
        vax_key = table_cache_key(GRAMMAR_TEXT, target="vax", **OPTIONS)
        r32_key = table_cache_key(GRAMMAR_TEXT, target="r32", **OPTIONS)
        assert vax_key != r32_key

    def test_key_is_stable_across_identical_rebuilds(self):
        first = table_cache_key(GRAMMAR_TEXT, target="r32", **OPTIONS)
        second = table_cache_key(GRAMMAR_TEXT, target="r32", **OPTIONS)
        assert first == second

    def test_entries_coexist_without_cross_hits(self, tmp_path):
        store = TableCache(str(tmp_path))
        vax_key = table_cache_key(GRAMMAR_TEXT, target="vax", **OPTIONS)
        r32_key = table_cache_key(GRAMMAR_TEXT, target="r32", **OPTIONS)
        assert store.store(vax_key, {"who": "vax"})
        assert store.store(r32_key, {"who": "r32"})
        assert store.load(vax_key) == {"who": "vax"}
        assert store.load(r32_key) == {"who": "r32"}

    def test_version_bumped_for_target_qualified_keys(self):
        # v3 added the target component; a rollback would let pre-fix
        # single-target entries satisfy target-qualified probes
        assert CACHE_VERSION >= 3

    def test_driver_keys_its_store_consultation_by_target(self, tmp_path):
        """The generator's own cache probe must carry the target name —
        exactly the :func:`table_cache_key` an external auditor would
        compute — so per-target entries land under distinct keys."""
        from repro.codegen.driver import GrahamGlanvilleCodeGenerator
        from repro.targets import resolve_target

        keys = {}
        for name in ("vax", "r32"):
            generator = GrahamGlanvilleCodeGenerator(
                target=name, cache_dir=str(tmp_path)
            )
            expected = table_cache_key(
                resolve_target(name).grammar_text(True, True, True),
                target=name, reversed_ops=True, overfactoring_fix=True,
                rescue_bridges=True,
            )
            assert generator.cache_outcome.key == expected
            keys[name] = generator.cache_outcome.key
        assert keys["vax"] != keys["r32"]


class TestResultCacheKeys:
    def test_fingerprint_splits_on_target(self, gg, r32_gg):
        assert table_fingerprint(gg) != table_fingerprint(r32_gg)

    def test_fingerprint_is_stable_for_one_generator(self, gg):
        assert table_fingerprint(gg) == table_fingerprint(gg)

    def test_result_keys_never_alias_across_targets(self, gg, r32_gg):
        text = "int f() { return 1; }"
        vax_key = result_key(table_fingerprint(gg), "packed", text)
        r32_key = result_key(table_fingerprint(r32_gg), "packed", text)
        assert vax_key != r32_key

    def test_target_is_an_explicit_component_not_inferred(self, gg):
        """Even with byte-identical tables, a different target name must
        split the fingerprint — identity comes from the name, never
        from hoping the encodings differ."""

        class _Retargeted:
            def __init__(self, inner, name):
                self.tables = inner.tables
                self.peephole = inner.peephole
                self.target = type("T", (), {"name": name})()

        assert table_fingerprint(_Retargeted(gg, "vax")) \
            != table_fingerprint(_Retargeted(gg, "clone"))

    def test_result_version_bumped(self):
        assert RESULT_VERSION >= 3
