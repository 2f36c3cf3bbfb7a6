"""GenerationStore: digests, atomic entries, corruption degradation."""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.harness.genstore import GenerationStore, generation_digest
from repro.workload.generator import GeneratorConfig, generate_binned_tasksets

BINS = [(0.2, 0.3), (0.5, 0.6)]


@pytest.fixture()
def corpus():
    return generate_binned_tasksets(BINS, 2, None, 11, max_draws_per_bin=100)


@pytest.fixture()
def store(tmp_path):
    return GenerationStore(str(tmp_path / "gen"))


class TestDigest:
    def test_digest_is_stable(self):
        a = generation_digest(BINS, 2, None, 11)
        b = generation_digest(list(map(tuple, BINS)), 2, None, 11)
        assert a == b
        assert len(a) == 24

    def test_digest_distinguishes_every_spec_knob(self):
        base = generation_digest(BINS, 2, None, 11)
        assert generation_digest(BINS, 3, None, 11) != base
        assert generation_digest(BINS, 2, None, 12) != base
        assert generation_digest(BINS[:1], 2, None, 11) != base
        assert generation_digest(BINS, 2, None, 11, max_draws_per_bin=7) != base
        assert (
            generation_digest(BINS, 2, GeneratorConfig(k_range=(2, 6)), 11)
            != base
        )

    def test_default_config_digest_matches_explicit_none(self):
        assert generation_digest(BINS, 2, None, 11) == generation_digest(
            BINS, 2, None, 11, max_draws_per_bin=5000
        )


class TestRoundTrip:
    def test_put_get_roundtrips_fingerprints(self, store, corpus):
        digest = generation_digest(BINS, 2, None, 11)
        store.put(digest, corpus)
        assert digest in store
        loaded = store.get(digest)
        assert loaded is not None
        assert list(loaded) == [tuple(map(float, b)) for b in corpus]
        for key, tasksets in corpus.items():
            got = loaded[tuple(map(float, key))]
            assert [t.fingerprint() for t in got] == [
                t.fingerprint() for t in tasksets
            ]

    def test_missing_digest_is_a_silent_miss(self, store, recwarn):
        assert store.get("0" * 24) is None
        assert store.misses == 1
        assert not recwarn.list  # absent entry: miss, not corruption

    def test_put_is_idempotent(self, store, corpus):
        digest = generation_digest(BINS, 2, None, 11)
        store.put(digest, corpus)
        before = store.stats()["bytes"]
        store.put(digest, corpus)  # second write is a no-op
        assert store.stats()["bytes"] == before

    def test_stats_counts_entries_and_bytes(self, store, corpus):
        assert store.stats() == {
            "hits": 0,
            "misses": 0,
            "entries": 0,
            "bytes": 0,
        }
        digest = generation_digest(BINS, 2, None, 11)
        store.put(digest, corpus)
        store.get(digest)
        stats = store.stats()
        assert stats["hits"] == 1
        assert stats["entries"] == 1
        assert stats["bytes"] > 0


class TestCorruptionDegradesToRegeneration:
    """A damaged entry must warn and miss -- never poison or abort."""

    def _entry_files(self, store, digest):
        entry = store.path(digest)
        return [
            os.path.join(entry, name)
            for name in sorted(os.listdir(entry))
            if name.startswith("bin-")
        ]

    def _stored(self, store, corpus):
        digest = generation_digest(BINS, 2, None, 11)
        store.put(digest, corpus)
        return digest

    def test_truncated_shard_warns_and_misses(self, store, corpus):
        digest = self._stored(store, corpus)
        shard = self._entry_files(store, digest)[0]
        with open(shard, "rb") as handle:
            payload = handle.read()
        with open(shard, "wb") as handle:
            handle.write(payload[: len(payload) // 2])
        with pytest.warns(UserWarning, match="failed verification"):
            assert store.get(digest) is None
        assert store.misses == 1

    def test_bitflipped_shard_warns_and_misses(self, store, corpus):
        digest = self._stored(store, corpus)
        shard = self._entry_files(store, digest)[0]
        with open(shard, "r+b") as handle:
            handle.seek(10)
            handle.write(b"X")
        with pytest.warns(UserWarning, match="hash mismatch"):
            assert store.get(digest) is None

    def test_corrupt_meta_warns_and_misses(self, store, corpus):
        digest = self._stored(store, corpus)
        with open(
            os.path.join(store.path(digest), "meta.json"), "w"
        ) as handle:
            handle.write("{not json")
        with pytest.warns(UserWarning, match="failed verification"):
            assert store.get(digest) is None

    def test_missing_shard_warns_and_misses(self, store, corpus):
        digest = self._stored(store, corpus)
        os.unlink(self._entry_files(store, digest)[0])
        with pytest.warns(UserWarning, match="unreadable shard"):
            assert store.get(digest) is None

    def test_wrong_count_warns_and_misses(self, store, corpus):
        digest = self._stored(store, corpus)
        meta_path = os.path.join(store.path(digest), "meta.json")
        with open(meta_path) as handle:
            meta = json.load(handle)
        # Drop a task set from a shard but recompute the hash, so only
        # the count cross-check can catch the tampering.
        entry = meta["shards"][0]
        shard_path = os.path.join(store.path(digest), entry["name"])
        with open(shard_path) as handle:
            document = json.load(handle)
        document["tasksets"] = document["tasksets"][:-1]
        payload = (json.dumps(document, sort_keys=True) + "\n").encode()
        with open(shard_path, "wb") as handle:
            handle.write(payload)
        import hashlib

        entry["sha256"] = hashlib.sha256(payload).hexdigest()
        with open(meta_path, "w") as handle:
            json.dump(meta, handle)
        with pytest.warns(UserWarning, match="expected"):
            assert store.get(digest) is None


class TestCrossProcessReuse:
    def test_entry_written_by_another_process_is_a_hit(
        self, tmp_path, corpus
    ):
        root = str(tmp_path / "gen")
        script = textwrap.dedent(
            """
            import sys
            from repro.harness.genstore import GenerationStore, generation_digest
            from repro.workload.generator import generate_binned_tasksets

            bins = [(0.2, 0.3), (0.5, 0.6)]
            corpus = generate_binned_tasksets(
                bins, 2, None, 11, max_draws_per_bin=100
            )
            store = GenerationStore(sys.argv[1])
            store.put(generation_digest(bins, 2, None, 11), corpus)
            """
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        subprocess.run(
            [sys.executable, "-c", script, root],
            check=True,
            env=env,
            timeout=120,
        )
        store = GenerationStore(root)
        loaded = store.get(generation_digest(BINS, 2, None, 11))
        assert loaded is not None
        assert store.hits == 1
        for key, tasksets in corpus.items():
            got = loaded[tuple(map(float, key))]
            assert [t.fingerprint() for t in got] == [
                t.fingerprint() for t in tasksets
            ]
