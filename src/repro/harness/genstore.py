"""Digest-keyed persistent store for generated task-set corpora.

Task-set generation is deterministic in its spec -- (bins, sets per bin,
generator config, seed, draw budget) -- and expensive: the admission
loop dominates cold sweep wall clock.  The same spec is regenerated all
over the place: every triage ablation shares most of its spec with the
baseline, and repeat service submissions share all of it.  This store
memoizes the generated corpus on disk, keyed by a digest of the spec, so
any sweep's parent process -- CLI sweep, triage run, server job -- that
has seen the spec before loads task sets instead of redrawing them.
Pool workers never read it: every sweep job carries its own task set.

Layout (one directory per digest, content-hashed shards)::

    root/<digest>/meta.json      # spec echo + shard names/counts/sha256
    root/<digest>/bin-0000.json  # {"bin": [lo, hi], "tasksets": [...]}

Entries keep one shard per utilization bin, the layout every existing
store was written in, so those stores still load.  Writes are atomic at
the *entry* level: shards and meta are staged into a hidden temp
directory and ``os.rename``d into place, so a crash mid-write leaves
either the whole entry or nothing.  Reads verify each shard against the
sha256 recorded in ``meta.json``; any corruption (torn file, truncation,
hand-editing) degrades to a warning plus regeneration -- mirroring the
journal-header hardening, a damaged cache must never poison results or
abort a sweep.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import warnings
from typing import Dict, List, Optional, Sequence, Tuple

from ..model.taskset import TaskSet
from ..workload.serialization import taskset_from_dict, taskset_to_dict

BinRange = Tuple[float, float]


def generation_digest(
    bins: Sequence[BinRange],
    sets_per_bin: int,
    config=None,
    seed: Optional[int] = None,
    max_draws_per_bin: int = 5000,
) -> str:
    """Stable digest of a generation spec.

    Uses the same config canonicalization as the sweep journal
    fingerprint (``_config_key``), so two specs share a digest exactly
    when they would generate identical corpora.
    """
    from .sweep import _config_key  # deferred: sweep imports this module

    spec = {
        "bins": [[float(lo), float(hi)] for lo, hi in bins],
        "sets_per_bin": int(sets_per_bin),
        "seed": seed,
        "max_draws_per_bin": int(max_draws_per_bin),
        "generator_config": repr(_config_key(config)),
    }
    blob = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]


def _shard_name(position: int) -> str:
    return f"bin-{position:04d}.json"


def _shard_bytes(bin_range: BinRange, tasksets: List[TaskSet]) -> bytes:
    document = {
        "bin": [float(bin_range[0]), float(bin_range[1])],
        "tasksets": [taskset_to_dict(ts) for ts in tasksets],
    }
    return (json.dumps(document, sort_keys=True) + "\n").encode("utf-8")


class StoreCorruption(Exception):
    """Internal signal that an entry failed verification (never escapes)."""


class GenerationStore:
    """Digest-keyed directory of generated task-set corpora."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.hits = 0
        self.misses = 0
        os.makedirs(root, exist_ok=True)

    # -- paths -------------------------------------------------------

    def path(self, digest: str) -> str:
        return os.path.join(self.root, digest)

    def __contains__(self, digest: str) -> bool:
        return os.path.isfile(os.path.join(self.path(digest), "meta.json"))

    # -- reading -----------------------------------------------------

    def _load_meta(self, digest: str) -> dict:
        meta_path = os.path.join(self.path(digest), "meta.json")
        try:
            with open(meta_path, "r", encoding="utf-8") as handle:
                meta = json.load(handle)
        except FileNotFoundError:
            raise StoreCorruption("missing meta.json")
        except (json.JSONDecodeError, OSError) as exc:
            raise StoreCorruption(f"unreadable meta.json: {exc}")
        if not isinstance(meta, dict) or "shards" not in meta:
            raise StoreCorruption("meta.json has no shard table")
        return meta

    def _load_shard(self, digest: str, entry: dict) -> Tuple[BinRange, List[TaskSet]]:
        try:
            name = entry["name"]
            recorded_sha = entry["sha256"]
            expected_count = int(entry["count"])
        except (TypeError, KeyError, ValueError):
            raise StoreCorruption(f"malformed shard table entry: {entry!r}")
        shard_path = os.path.join(self.path(digest), name)
        try:
            with open(shard_path, "rb") as handle:
                payload = handle.read()
        except OSError as exc:
            raise StoreCorruption(f"unreadable shard {name}: {exc}")
        actual_sha = hashlib.sha256(payload).hexdigest()
        if actual_sha != recorded_sha:
            raise StoreCorruption(
                f"shard {name} hash mismatch (corrupt or truncated)"
            )
        try:
            document = json.loads(payload.decode("utf-8"))
            lo, hi = document["bin"]
            tasksets = [taskset_from_dict(d) for d in document["tasksets"]]
        except Exception as exc:  # WorkloadError, KeyError, ValueError...
            raise StoreCorruption(f"undecodable shard {name}: {exc}")
        if len(tasksets) != expected_count:
            raise StoreCorruption(
                f"shard {name} has {len(tasksets)} sets, expected {expected_count}"
            )
        return (float(lo), float(hi)), tasksets

    def get(self, digest: str) -> Optional[Dict[BinRange, List[TaskSet]]]:
        """The full corpus for ``digest``, or None on miss/corruption."""
        try:
            meta = self._load_meta(digest)
            result: Dict[BinRange, List[TaskSet]] = {}
            for entry in meta["shards"]:
                bin_range, tasksets = self._load_shard(digest, entry)
                result[bin_range] = tasksets
        except StoreCorruption as exc:
            if digest in self:
                warnings.warn(
                    f"generation store entry {digest} failed verification "
                    f"({exc}); regenerating",
                    stacklevel=2,
                )
            self.misses += 1
            return None
        self.hits += 1
        return result

    # -- writing -----------------------------------------------------

    def put(
        self,
        digest: str,
        tasksets_by_bin: Dict[BinRange, List[TaskSet]],
        spec: Optional[dict] = None,
    ) -> None:
        """Atomically store a corpus under ``digest`` (no-op if present).

        The whole entry is staged in a temp directory and renamed into
        place; concurrent writers race benignly (first rename wins, the
        loser discards its staging copy -- both wrote identical content
        for a content-addressed key anyway).
        """
        if digest in self:
            return
        staging = tempfile.mkdtemp(dir=self.root, prefix=".stage-")
        try:
            shards = []
            for position, (bin_range, tasksets) in enumerate(
                tasksets_by_bin.items()
            ):
                name = _shard_name(position)
                payload = _shard_bytes(bin_range, tasksets)
                with open(os.path.join(staging, name), "wb") as handle:
                    handle.write(payload)
                    handle.flush()
                    os.fsync(handle.fileno())
                shards.append(
                    {
                        "name": name,
                        "bin": [float(bin_range[0]), float(bin_range[1])],
                        "count": len(tasksets),
                        "sha256": hashlib.sha256(payload).hexdigest(),
                    }
                )
            meta = {"digest": digest, "shards": shards}
            if spec is not None:
                meta["spec"] = spec
            meta_payload = (
                json.dumps(meta, indent=2, sort_keys=True) + "\n"
            ).encode("utf-8")
            with open(os.path.join(staging, "meta.json"), "wb") as handle:
                handle.write(meta_payload)
                handle.flush()
                os.fsync(handle.fileno())
            try:
                os.rename(staging, self.path(digest))
            except OSError:
                if digest not in self:  # a real failure, not a lost race
                    raise
                shutil.rmtree(staging, ignore_errors=True)
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise

    # -- observability -----------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Hit/miss counters plus on-disk entry count and byte size."""
        entries = 0
        size = 0
        try:
            names = os.listdir(self.root)
        except OSError:
            names = []
        for name in names:
            if name.startswith("."):
                continue
            entry_dir = os.path.join(self.root, name)
            if not os.path.isdir(entry_dir):
                continue
            entries += 1
            try:
                for filename in os.listdir(entry_dir):
                    try:
                        size += os.path.getsize(
                            os.path.join(entry_dir, filename)
                        )
                    except OSError:
                        pass
            except OSError:
                pass
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": entries,
            "bytes": size,
        }
