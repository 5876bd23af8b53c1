"""The reproducer corpus: content addressing, idempotence, regeneration."""

import json

from repro.fuzz.corpus import Corpus, default_corpus_dir, fingerprint

SOURCE = "int f(int a, int b) { return a - b; }\n"


class TestFingerprint:
    def test_stable(self):
        assert fingerprint(SOURCE, "return-mismatch") == \
            fingerprint(SOURCE, "return-mismatch")

    def test_divergence_class_distinguishes(self):
        assert fingerprint(SOURCE, "return-mismatch") != \
            fingerprint(SOURCE, "crash:pcc")

    def test_source_distinguishes(self):
        assert fingerprint(SOURCE, "crash:pcc") != \
            fingerprint(SOURCE + " ", "crash:pcc")

    def test_a_vax_finding_keeps_its_old_name(self):
        # sha256(divergence \0 source), as before targets were recorded
        assert fingerprint(SOURCE, "crash:pcc", "vax") == \
            fingerprint(SOURCE, "crash:pcc") == "2d697c3838218c0b"

    def test_target_distinguishes(self):
        assert fingerprint(SOURCE, "return-mismatch", "r32") != \
            fingerprint(SOURCE, "return-mismatch")


class TestCorpus:
    def test_record_and_read_back(self, tmp_path):
        corpus = Corpus(tmp_path)
        name = corpus.record(SOURCE, "return-mismatch",
                             detail="0:f: interp=4 gg=10",
                             seed=0, case=7, statements=1)
        assert corpus.fingerprints() == [name]
        assert len(corpus) == 1
        (entry,) = corpus.entries()
        assert entry.source == SOURCE
        assert entry.meta["divergence"] == "return-mismatch"
        assert entry.meta["seed"] == 0
        assert entry.meta["case"] == 7

    def test_the_target_is_recorded(self, tmp_path):
        corpus = Corpus(tmp_path)
        name = corpus.record(SOURCE, "return-mismatch", target="r32")
        assert name == fingerprint(SOURCE, "return-mismatch", "r32")
        (entry,) = corpus.entries()
        assert entry.meta["target"] == "r32"
        assert entry.target == "r32"

    def test_an_entry_without_a_target_is_a_vax_finding(self, tmp_path):
        corpus = Corpus(tmp_path)
        name = corpus.record(SOURCE, "crash:pcc")
        meta_path = tmp_path / name / "meta.json"
        meta = json.loads(meta_path.read_text())
        del meta["target"]
        meta_path.write_text(json.dumps(meta))
        assert corpus.entry(name).target == "vax"

    def test_the_replay_runs_each_entry_on_its_own_target(
        self, tmp_path, monkeypatch
    ):
        import importlib.util

        import repro.fuzz.oracle as oracle

        corpus = Corpus(tmp_path / "corpus")
        vax = corpus.record(SOURCE, "crash:pcc")
        r32 = corpus.record(SOURCE, "return-mismatch", target="r32")
        out = corpus.write_regression_test(tmp_path / "test_generated.py")
        seen = []

        def fake_oracle(source, target=None, **_):
            seen.append(target)
            return type("Report", (), {"ok": True})()

        monkeypatch.setattr(oracle, "run_oracle", fake_oracle)
        spec = importlib.util.spec_from_file_location("generated", out)
        generated = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(generated)
        generated.CORPUS = corpus.root
        for name in (vax, r32):
            generated.test_corpus_reproducer_agrees(name)
        assert seen == ["vax", "r32"]

    def test_record_is_idempotent(self, tmp_path):
        corpus = Corpus(tmp_path)
        name = corpus.record(SOURCE, "crash:pcc", detail="first")
        meta_path = tmp_path / name / "meta.json"
        meta_path.write_text(json.dumps({"divergence": "crash:pcc",
                                         "note": "hand-added"}))
        again = corpus.record(SOURCE, "crash:pcc", detail="second")
        assert again == name
        assert "hand-added" in meta_path.read_text()
        assert len(corpus) == 1

    def test_empty_corpus(self, tmp_path):
        corpus = Corpus(tmp_path / "missing")
        assert corpus.fingerprints() == []
        assert list(corpus.entries()) == []

    def test_regression_module_lists_entries(self, tmp_path):
        corpus = Corpus(tmp_path / "corpus")
        first = corpus.record(SOURCE, "crash:pcc")
        second = corpus.record("int g(int a, int b) { return a; }\n",
                               "global-mismatch")
        out = corpus.write_regression_test(tmp_path / "test_generated.py")
        text = out.read_text()
        assert first in text
        assert second in text
        assert "GENERATED" in text
        compile(text, str(out), "exec")  # must at least be valid python

    def test_regression_module_for_empty_corpus_compiles(self, tmp_path):
        corpus = Corpus(tmp_path / "corpus")
        out = corpus.write_regression_test(tmp_path / "test_generated.py")
        compile(out.read_text(), str(out), "exec")

    def test_checked_in_corpus_matches_regression_module(self):
        # the generated module in tests/regression must list exactly the
        # fingerprints present on disk — a drifted checkout fails here
        import importlib.util
        import pathlib

        corpus = Corpus(default_corpus_dir())
        module_path = (pathlib.Path(__file__).resolve().parents[1]
                       / "regression" / "test_fuzz_corpus.py")
        spec = importlib.util.spec_from_file_location(
            "generated_fuzz_corpus", module_path)
        generated = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(generated)
        assert sorted(generated.FINGERPRINTS) == corpus.fingerprints()


def test_ggcc_fuzz_records_a_finding_on_its_campaign_target(
    tmp_path, monkeypatch
):
    import repro.fuzz as fuzz
    from repro.fuzz.driver import CampaignStats, Finding
    from repro.tools.cli import fuzz_main

    finding = Finding(case=73, seed=0, divergence="return-mismatch",
                      detail="", source=SOURCE, minimized=SOURCE,
                      statements=1)

    def campaign(config, progress=None):
        return CampaignStats(seed=config.seed, target=config.target,
                             findings=[finding])

    monkeypatch.setattr(fuzz, "run_campaign", campaign)
    monkeypatch.setattr(Corpus, "write_regression_test",
                        lambda self, path=None: tmp_path / "generated.py")
    corpus = Corpus(tmp_path / "corpus")
    assert fuzz_main(["--target", "r32", "--corpus", str(corpus.root)]) == 1
    (entry,) = corpus.entries()
    assert entry.target == "r32"
    assert entry.fingerprint == fingerprint(SOURCE, "return-mismatch", "r32")
