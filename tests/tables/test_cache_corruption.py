"""Corruption handling in the checksummed v2 cache envelope.

Companion to ``test_cache.py``: these tests attack the on-disk entry —
flipped bytes, truncation, forged checksums — and assert the cache
quarantines rather than trusts, always falling back to a cold build.
"""

import os
import pickle

import pytest

from repro.tables.cache import (
    CACHE_VERSION, STORE_ATTEMPTS, TableCache, cached_build,
    rewrite_payload,
)

KEY = "a" * 64
PAYLOAD = {"tables": list(range(100)), "marker": "payload-v2"}


@pytest.fixture()
def cache(tmp_path):
    cache = TableCache(str(tmp_path))
    assert cache.store(KEY, PAYLOAD)
    return cache


def entry_path(cache):
    return cache.path_for(KEY)


class TestByteLevelDamage:
    def test_flipped_byte_is_quarantined(self, cache):
        path = entry_path(cache)
        data = bytearray(open(path, "rb").read())
        # flip deep inside the payload, past the envelope header
        data[len(data) // 2] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(bytes(data))

        assert cache.load(KEY) is None
        assert "checksum" in cache.last_corruption \
            or "unpicklable" in cache.last_corruption
        assert not os.path.exists(path)
        assert os.path.exists(path + ".quarantined")
        assert cache.last_quarantine == path + ".quarantined"

    def test_truncated_file_is_quarantined(self, cache):
        path = entry_path(cache)
        with open(path, "r+b") as handle:
            handle.truncate(17)
        assert cache.load(KEY) is None
        assert cache.last_corruption
        assert os.path.exists(path + ".quarantined")

    def test_empty_file_is_quarantined(self, cache):
        path = entry_path(cache)
        with open(path, "wb"):
            pass
        assert cache.load(KEY) is None
        assert os.path.exists(path + ".quarantined")

    def test_quarantined_entry_not_retrusted(self, cache):
        path = entry_path(cache)
        with open(path, "r+b") as handle:
            handle.truncate(17)
        assert cache.load(KEY) is None
        # the bad bytes are no longer at the live path: a second load is
        # a plain miss, not a second quarantine of the same damage
        cache.load(KEY)
        assert not os.path.exists(path)


class TestForgedEnvelopes:
    def write_envelope(self, cache, envelope):
        with open(entry_path(cache), "wb") as handle:
            pickle.dump(envelope, handle)

    def test_wrong_checksum_is_quarantined(self, cache):
        payload_bytes = pickle.dumps(PAYLOAD)
        self.write_envelope(
            cache, (CACHE_VERSION, KEY, "0" * 64, payload_bytes)
        )
        assert cache.load(KEY) is None
        assert cache.last_corruption == "payload checksum mismatch"
        assert os.path.exists(entry_path(cache) + ".quarantined")

    def test_rewritten_payload_is_quarantined(self, cache):
        # the envelope stays well formed: only the digest catches it
        rewrite_payload(
            entry_path(cache), lambda payload: {**payload, "marker": "rot"}
        )
        assert cache.load(KEY) is None
        assert cache.last_corruption == "payload checksum mismatch"

    def test_checksum_verified_before_unpickling(self, cache):
        # a malicious/garbage payload with a wrong digest must be
        # rejected by the checksum, never handed to pickle.loads
        self.write_envelope(
            cache, (CACHE_VERSION, KEY, "0" * 64, b"\x80\x05garbage")
        )
        assert cache.load(KEY) is None
        assert cache.last_corruption == "payload checksum mismatch"

    def test_wrong_shape_is_quarantined(self, cache):
        self.write_envelope(cache, ("not", "an", "envelope"))
        assert cache.load(KEY) is None
        assert cache.last_corruption == "malformed envelope"

    def test_stale_version_is_quiet_miss(self, cache):
        payload_bytes = pickle.dumps(PAYLOAD)
        import hashlib
        self.write_envelope(
            cache,
            (CACHE_VERSION - 1, KEY,
             hashlib.sha256(payload_bytes).hexdigest(), payload_bytes),
        )
        assert cache.load(KEY) is None
        # old layout is staleness, not damage: deleted, not quarantined
        assert cache.last_corruption == ""
        assert not os.path.exists(entry_path(cache))
        assert not os.path.exists(entry_path(cache) + ".quarantined")


class TestColdFallback:
    def test_cached_build_survives_corruption(self, tmp_path):
        cache = TableCache(str(tmp_path))
        assert cache.store(KEY, PAYLOAD)
        path = cache.path_for(KEY)
        data = bytearray(open(path, "rb").read())
        data[len(data) // 2] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(bytes(data))

        built = []

        def builder():
            built.append(True)
            return PAYLOAD

        payload, outcome = cached_build(
            KEY, builder, directory=str(tmp_path), enabled=True
        )
        assert payload == PAYLOAD
        assert built, "corrupt entry must force a cold build"
        assert not outcome.hit
        assert outcome.corruption
        assert outcome.quarantined.endswith(".quarantined")
        # the rebuilt entry is good again
        _, second = cached_build(
            KEY, builder, directory=str(tmp_path), enabled=True
        )
        assert second.hit and not second.corruption


class TestStoreRetries:
    def test_store_retries_transient_failure(self, cache, monkeypatch):
        real_replace = os.replace
        failures = iter([True, False])

        def flaky(src, dst):
            if dst.endswith(".tables.pickle") and next(failures, False):
                raise OSError("transient")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", flaky)
        monkeypatch.setattr("repro.tables.cache.time.sleep", lambda s: None)
        assert cache.store(KEY, PAYLOAD)
        assert cache.last_store_retries == 1
        assert cache.load(KEY) == PAYLOAD

    def test_store_gives_up_after_bounded_attempts(self, cache, monkeypatch):
        real_replace = os.replace

        def always_fails(src, dst):
            if dst.endswith(".tables.pickle"):
                raise OSError("persistent")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", always_fails)
        sleeps = []
        monkeypatch.setattr(
            "repro.tables.cache.time.sleep", sleeps.append
        )
        assert cache.store(KEY, PAYLOAD) is None
        assert cache.last_store_retries == STORE_ATTEMPTS - 1
        # backoff doubles between attempts
        assert sleeps == sorted(sleeps) and len(sleeps) == STORE_ATTEMPTS - 1
