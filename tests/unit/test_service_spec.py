"""Unit tests for the service's spec, config, and result store."""

import json
import os

import pytest

from repro.errors import ConfigurationError
from repro.harness.store import sweep_to_dict
from repro.service import (
    ResultStore,
    ServiceConfig,
    SweepSpec,
    canonical_result_bytes,
)
from repro.service.spec import BATCH_MIN_WIDTH

SMALL = {
    "faults": "none",
    "bins": [[0.2, 0.3]],
    "sets_per_bin": 1,
    "horizon_cap_units": 50,
}


class TestSweepSpec:
    def test_defaults_match_cli_smoke_scale(self):
        from repro.harness.protocol import ExperimentProtocol

        smoke = ExperimentProtocol.smoke()
        spec = SweepSpec()
        assert spec.sets_per_bin == smoke.sets_per_bin
        assert spec.horizon_cap_units == smoke.horizon_cap_units
        assert spec.seed == smoke.seed

    def test_round_trips_through_dict(self):
        spec = SweepSpec.from_dict(SMALL)
        again = SweepSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.digest() == spec.digest()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown sweep-spec key"):
            SweepSpec.from_dict({**SMALL, "sets_per_bim": 3})

    @pytest.mark.parametrize(
        "key, value",
        [("collect_trace", False), ("fold", True), ("fold", False)],
        ids=["collect_trace", "fold-true", "fold-false"],
    )
    def test_removed_knob_is_an_unknown_key(self, key, value):
        # Sweeps always run stats-only and cycle folding is gone; the old
        # execution knobs are rejected like any typo.
        with pytest.raises(
            ConfigurationError, match=f"unknown sweep-spec key.*'{key}'"
        ):
            SweepSpec.from_dict({**SMALL, key: value})

    def test_unknown_faults_rejected(self):
        with pytest.raises(ConfigurationError, match="faults regime"):
            SweepSpec.from_dict({**SMALL, "faults": "cosmic"})

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scheme"):
            SweepSpec.from_dict({**SMALL, "schemes": ["MKSS_ST", "nope"]})

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            SweepSpec.from_dict({**SMALL, "backend": "gpu"})

    def test_removed_serial_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            SweepSpec.from_dict({**SMALL, "backend": "serial"})

    def test_repeated_bin_rejected(self):
        # Wide enough to resolve to the batch backend, which would serve
        # the bin twice at 10 sets from the 5 it generated.
        with pytest.raises(ConfigurationError, match="bins repeat"):
            SweepSpec.from_dict(
                {
                    "faults": "none",
                    "bins": [[0.2, 0.3], [0.2, 0.3]],
                    "sets_per_bin": 5,
                }
            )

    def test_repeated_scheme_rejected(self):
        with pytest.raises(ConfigurationError, match="schemes repeat"):
            SweepSpec.from_dict(
                {**SMALL, "schemes": ["MKSS_ST", "MKSS_ST", "MKSS_DP"]}
            )

    def test_non_dict_payload_rejected(self):
        with pytest.raises(ConfigurationError, match="JSON object"):
            SweepSpec.from_dict(["faults", "none"])

    @pytest.mark.parametrize(
        "key", ["sets_per_bin", "seed", "horizon_cap_units", "validate"]
    )
    @pytest.mark.parametrize(
        "value",
        [2.7, 2.0, True, "12"],
        ids=["float", "integral-float", "bool", "string"],
    )
    def test_integer_fields_must_be_json_integers(self, key, value):
        # Coercion would serve {"sets_per_bin": 2.7} the sets_per_bin=2
        # result under the same digest; a wrong type is a malformed spec.
        with pytest.raises(ConfigurationError, match="must be a JSON integer"):
            SweepSpec.from_dict({**SMALL, key: value})

    @pytest.mark.parametrize(
        "bins",
        [[["0.2", 0.3]], [[0.2, "0.3"]], [[False, True]], [[None, 0.3]]],
        ids=["string-lo", "string-hi", "bools", "null"],
    )
    def test_bin_edges_must_be_json_numbers(self, bins):
        with pytest.raises(ConfigurationError, match="must be a JSON number"):
            SweepSpec.from_dict({**SMALL, "bins": bins})

    def test_integer_bin_edges_are_numbers(self):
        spec = SweepSpec.from_dict({**SMALL, "bins": [[0, 1]]})
        assert spec.bins == ((0.0, 1.0),)

    def test_execution_knobs_excluded_from_identity(self):
        # The engine guarantees identical results in every execution
        # mode, so the backend must not split the cache.
        base = SweepSpec.from_dict(SMALL)
        assert (
            SweepSpec.from_dict({**SMALL, "backend": "batch"}).digest()
            == base.digest()
        )

    def test_faults_and_scale_change_identity(self):
        base = SweepSpec.from_dict(SMALL)
        for knob in (
            {"faults": "permanent"},
            {"faults": "transient"},
            {"seed": 7},
            {"sets_per_bin": 2},
            {"horizon_cap_units": 60},
            {"bins": [[0.3, 0.4]]},
            {"schemes": ["MKSS_ST", "MKSS_DP"]},
            {"validate": 2},
            {"release_model": "light"},
            {"release_model": {"kind": "bursty", "burst_size": 3,
                               "burst_gap": 1.0}},
            {"initial_history": "miss"},
        ):
            assert SweepSpec.from_dict({**SMALL, **knob}).digest() != base.digest()

    @pytest.mark.parametrize(
        "defaults",
        [
            {"release_model": "periodic", "initial_history": "met"},
            {"release_model": {"kind": "periodic"}},
            {"dvfs": {"static_power": 2.0}},
            {"release_model": None, "dvfs": None},
        ],
        ids=["periodic-met", "periodic-dict", "noop-dvfs", "nulls"],
    )
    def test_explicit_defaults_keep_the_identity(self, defaults):
        # Old clients never sent these keys; explicit defaults must hit
        # the same cached results (and the same journal fingerprints).
        base = SweepSpec.from_dict(SMALL)
        explicit = SweepSpec.from_dict({**SMALL, **defaults})
        assert explicit.digest() == base.digest()
        assert explicit.to_dict() == base.to_dict()
        assert explicit == base
        assert "release_model" not in base.to_dict()

    @pytest.mark.parametrize(
        "knob, spellings",
        [
            ("release_model", ["light", {"kind": "sporadic", "jitter": 0.1}]),
            ("dvfs", [{}, {"alpha": 3.0}]),
        ],
        ids=["release_model", "dvfs"],
    )
    def test_every_spelling_gives_one_identity(self, knob, spellings):
        specs = [
            SweepSpec.from_dict({**SMALL, knob: value}) for value in spellings
        ]
        assert len({spec.digest() for spec in specs}) == 1
        assert all(spec == specs[0] for spec in specs)
        assert getattr(specs[0], knob) == getattr(specs[0].protocol(), knob)
        assert specs[0].digest() != SweepSpec.from_dict(SMALL).digest()

    def test_release_knobs_round_trip(self):
        spec = SweepSpec.from_dict(
            {**SMALL, "release_model": {"kind": "sporadic", "jitter": 0.1,
                                        "seed": 4},
             "initial_history": "rpattern"}
        )
        again = SweepSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.digest() == spec.digest()

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("release_model", "storm"),
            ("release_model", 42),
            ("initial_history", "reds"),
            ("initial_history", True),
            ("dvfs", {"alpha": -1}),
            ("dvfs", "fast"),
            ("horizon_cap_units", 0),
        ],
    )
    def test_bad_run_knobs_rejected(self, knob, value):
        with pytest.raises(ConfigurationError):
            SweepSpec.from_dict({**SMALL, knob: value})

    @pytest.mark.parametrize(
        "schemes",
        [None, ["MKSS_DP", "MKSS_Selective"]],
        ids=["paper-schemes", "without-MKSS_ST"],
    )
    def test_run_normalizes_to_the_spec_reference(self, schemes):
        payload = {
            "faults": "none",
            "sets_per_bin": 1,
            "horizon_cap_units": 100,
            "bins": [[0.1, 0.2]],
            "reference_scheme": "MKSS_DP",
        }
        if schemes is not None:
            payload["schemes"] = schemes
        document = sweep_to_dict(SweepSpec.from_dict(payload).run())
        assert document["reference_scheme"] == "MKSS_DP"
        (bucket,) = document["bins"]
        assert bucket["normalized_energy"]["MKSS_DP"] == 1.0


class TestDefaultBackend:
    """An omitted ``backend`` picks the batch kernel for wide sweeps."""

    @pytest.fixture
    def no_numpy(self, monkeypatch):
        import repro.sim.batch as batch_mod

        monkeypatch.setattr(batch_mod, "_np", None)

    def test_smoke_scale_resolves_to_batch(self):
        pytest.importorskip("numpy")
        spec = SweepSpec.from_dict({"faults": "transient"})
        width = len(spec.bins) * spec.sets_per_bin * len(spec.schemes)
        assert width >= BATCH_MIN_WIDTH
        assert spec.backend == "batch"

    def test_narrow_spec_resolves_to_pool(self):
        assert SweepSpec.from_dict(SMALL).backend == "pool"
        # One simulation short of the crossover stays on the pool.
        narrow = {"bins": [[0.2, 0.3]], "schemes": ["MKSS_ST"],
                  "reference_scheme": "MKSS_ST",
                  "sets_per_bin": BATCH_MIN_WIDTH - 1}
        assert SweepSpec.from_dict(narrow).backend == "pool"
        wide = dict(narrow, sets_per_bin=BATCH_MIN_WIDTH)
        pytest.importorskip("numpy")
        assert SweepSpec.from_dict(wide).backend == "batch"

    def test_without_numpy_resolves_to_pool(self, no_numpy):
        assert SweepSpec.from_dict({"faults": "none"}).backend == "pool"

    @pytest.mark.parametrize("backend", ["pool", "batch"])
    def test_explicit_backend_is_kept(self, backend):
        for payload in (SMALL, {"faults": "none"}):
            spec = SweepSpec.from_dict({**payload, "backend": backend})
            assert spec.backend == backend

    def test_resolved_default_round_trips(self):
        for payload in (SMALL, {"faults": "permanent"}):
            spec = SweepSpec.from_dict(payload)
            again = SweepSpec.from_dict(spec.to_dict())
            assert again == spec
            assert again.to_dict()["backend"] == spec.backend

    def test_default_leaves_the_digest_alone(self):
        # The backend is an execution knob: the resolved default must
        # not move a digest (the golden spec digests pin the values).
        for payload in (SMALL, {"faults": "transient"}):
            spec = SweepSpec.from_dict(payload)
            for backend in ("pool", "batch"):
                explicit = SweepSpec.from_dict({**payload, "backend": backend})
                assert explicit.digest() == spec.digest()

    def test_default_without_numpy_leaves_the_digest_alone(self, no_numpy):
        spec = SweepSpec.from_dict({"faults": "transient"})
        assert spec.backend == "pool"
        assert spec.digest() == SweepSpec(
            faults="transient", backend="batch"
        ).digest()


class TestServiceConfig:
    def test_rejects_bad_bounds(self):
        for bad in (
            {"queue_capacity": 0},
            {"per_tenant": 0},
            {"executors": 0},
            {"sweep_workers": 0},
            {"throttle_s": -1.0},
        ):
            with pytest.raises(ConfigurationError):
                ServiceConfig(data_dir="x", **bad)
        with pytest.raises(ConfigurationError):
            ServiceConfig(data_dir="")

    def test_path_joins_under_data_dir(self):
        config = ServiceConfig(data_dir="/srv/repro")
        assert config.path("jobs", "a.json") == "/srv/repro/jobs/a.json"


class TestResultStore:
    def _sweep(self):
        return SweepSpec.from_dict(SMALL).run()

    def test_round_trip_bytes(self, tmp_path):
        store = ResultStore(str(tmp_path / "results"))
        sweep = self._sweep()
        digest = "abc123"
        assert digest not in store
        written = store.put(digest, sweep)
        assert digest in store
        assert store.get_bytes(digest) == written
        assert written == canonical_result_bytes(sweep)
        assert list(store.digests()) == [digest]

    def test_canonical_bytes_are_content_addressed(self):
        # Same spec run twice (fresh run_ids) must serialize identically:
        # this is the byte-identity the cache and resume guarantees
        # stand on.
        first = canonical_result_bytes(self._sweep())
        second = canonical_result_bytes(self._sweep())
        assert first == second
        document = json.loads(first)
        assert document == sweep_to_dict(self._sweep())

    def test_missing_digest_returns_none(self, tmp_path):
        store = ResultStore(str(tmp_path / "results"))
        assert store.get_bytes("nope") is None

    def test_writes_leave_no_temp_droppings(self, tmp_path):
        root = str(tmp_path / "results")
        store = ResultStore(root)
        store.put("d1", self._sweep())
        assert os.listdir(root) == ["d1.json"]
