"""ReleaseModel: validation, presets, serialization, knob plumbing."""

from __future__ import annotations

import pytest

from repro.energy.dvfs import DVFSConfig
from repro.energy.power import PowerModel
from repro.errors import ConfigurationError, ModelError
from repro.harness.protocol import ExperimentProtocol
from repro.harness.runner import RunSpec, run_scheme
from repro.harness.sweep import _sweep_fingerprint, utilization_sweep
from repro.harness.validate import audit_scheme
from repro.model.history import (
    INITIAL_HISTORY_MODES,
    normalize_initial_history,
)
from repro.workload.presets import fig3_taskset
from repro.workload.release import (
    RELEASE_KINDS,
    RELEASE_PRESETS,
    ReleaseModel,
    resolve_release_model,
)


class TestValidation:
    def test_default_is_periodic(self):
        model = ReleaseModel()
        assert model.kind == "periodic"
        assert model.is_periodic()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            ReleaseModel(kind="poisson")

    def test_periodic_rejects_parameters(self):
        with pytest.raises(ConfigurationError):
            ReleaseModel(jitter=0.1)
        with pytest.raises(ConfigurationError):
            ReleaseModel(burst_size=2)
        with pytest.raises(ConfigurationError):
            ReleaseModel(burst_gap=0.5)

    def test_sporadic_needs_positive_jitter(self):
        with pytest.raises(ConfigurationError):
            ReleaseModel(kind="sporadic")
        with pytest.raises(ConfigurationError):
            ReleaseModel(kind="sporadic", jitter=-0.1)
        assert ReleaseModel(kind="sporadic", jitter=0.2).jitter == 0.2

    def test_sporadic_rejects_burst_parameters(self):
        with pytest.raises(ConfigurationError):
            ReleaseModel(kind="sporadic", jitter=0.1, burst_size=3)
        with pytest.raises(ConfigurationError):
            ReleaseModel(kind="sporadic", jitter=0.1, burst_gap=1.0)

    def test_bursty_needs_burst_shape(self):
        with pytest.raises(ConfigurationError):
            ReleaseModel(kind="bursty", burst_gap=1.0)  # burst_size 1
        with pytest.raises(ConfigurationError):
            ReleaseModel(kind="bursty", burst_size=3)  # no gap
        with pytest.raises(ConfigurationError):
            ReleaseModel(kind="bursty", burst_size=3, burst_gap=1.0, jitter=0.1)
        model = ReleaseModel(kind="bursty", burst_size=2, burst_gap=0.5)
        assert not model.is_periodic()

    def test_task_seeds_are_distinct_ints(self):
        model = ReleaseModel(kind="sporadic", jitter=0.1, seed=5)
        seeds = [model.task_seed(i) for i in range(10)]
        assert len(set(seeds)) == len(seeds)
        assert all(isinstance(s, int) for s in seeds)
        other = ReleaseModel(kind="sporadic", jitter=0.1, seed=6)
        assert other.task_seed(0) != model.task_seed(0)


class TestPresets:
    def test_preset_names(self):
        assert set(RELEASE_PRESETS) == {"periodic", "light", "bursty", "heavy"}
        assert set(RELEASE_KINDS) == {"periodic", "sporadic", "bursty"}

    @pytest.mark.parametrize("name", sorted(RELEASE_PRESETS))
    def test_presets_construct(self, name):
        model = ReleaseModel.preset(name, seed=3)
        assert model.kind in RELEASE_KINDS
        if name == "periodic":
            assert model.is_periodic()
            assert model.seed == 0  # seed means nothing without draws
        else:
            assert not model.is_periodic()
            assert model.seed == 3

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigurationError):
            ReleaseModel.preset("storm")

    def test_preset_shapes(self):
        assert RELEASE_PRESETS["light"].jitter == 0.1
        assert RELEASE_PRESETS["heavy"].jitter == 0.5
        assert RELEASE_PRESETS["bursty"].burst_size == 3


class TestSerialization:
    @pytest.mark.parametrize("name", ["light", "bursty", "heavy"])
    def test_roundtrip(self, name):
        model = ReleaseModel.preset(name, seed=11)
        assert ReleaseModel.from_dict(model.as_dict()) == model

    def test_as_dict_omits_defaults(self):
        assert ReleaseModel().as_dict() == {"kind": "periodic"}
        light = ReleaseModel.preset("light")
        assert light.as_dict() == {"kind": "sporadic", "jitter": 0.1}

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError):
            ReleaseModel.from_dict({"kind": "sporadic", "jitters": 0.1})

    def test_from_dict_rejects_non_dict(self):
        with pytest.raises(ConfigurationError):
            ReleaseModel.from_dict(["sporadic"])

    def test_cache_key_distinguishes_models(self):
        keys = {
            ReleaseModel.preset(name, seed=s).cache_key()
            for name in ("light", "bursty", "heavy")
            for s in (0, 1)
        }
        assert len(keys) == 6


class TestResolve:
    def test_none_and_periodic_normalize_to_none(self):
        assert resolve_release_model(None) is None
        assert resolve_release_model("periodic") is None
        assert resolve_release_model(ReleaseModel()) is None
        assert resolve_release_model({"kind": "periodic"}) is None

    def test_accepts_every_spelling(self):
        by_name = resolve_release_model("light")
        by_model = resolve_release_model(ReleaseModel.preset("light"))
        by_dict = resolve_release_model({"kind": "sporadic", "jitter": 0.1})
        assert by_name == by_model == by_dict

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_release_model(42)
        with pytest.raises(ConfigurationError):
            resolve_release_model("storm")


class TestInitialHistoryKnob:
    def test_modes(self):
        assert INITIAL_HISTORY_MODES == ("met", "miss", "rpattern")

    def test_normalize_accepts_only_mode_names(self):
        for legacy in (True, False):
            with pytest.raises(ModelError):
                normalize_initial_history(legacy)
        for mode in INITIAL_HISTORY_MODES:
            assert normalize_initial_history(mode) == mode
        with pytest.raises(ModelError):
            normalize_initial_history("reds")


#: Every accepted spelling of one non-default knob value.
EQUIVALENT_SPELLINGS = [
    (
        "release_model",
        (
            "light",
            {"kind": "sporadic", "jitter": 0.1},
            ReleaseModel.preset("light"),
        ),
    ),
    ("dvfs", ({}, DVFSConfig())),
]

#: Explicit spellings of a knob's default, which normalize to None.
DEFAULT_SPELLINGS = [
    ("release_model", "periodic"),
    ("release_model", {"kind": "periodic"}),
    ("release_model", ReleaseModel()),
    ("dvfs", {"static_power": 2.0}),
    ("dvfs", DVFSConfig(static_power=2.0)),
    ("power_model", PowerModel.paper_default()),
]

#: Values every entry point must reject with a ConfigurationError.
BAD_KNOBS = [
    ("release_model", "storm"),
    ("release_model", 42),
    ("initial_history", "reds"),
    ("initial_history", True),
    ("dvfs", {"alpha": -1}),
    ("dvfs", "fast"),
    ("horizon_cap_units", 0),
]

#: The knobs ExperimentProtocol carries as fields of its own.
PROTOCOL_KNOBS = (
    "horizon_cap_units",
    "release_model",
    "initial_history",
    "dvfs",
)


class TestProtocolKnobs:
    @pytest.mark.parametrize(
        "knob, spellings", EQUIVALENT_SPELLINGS, ids=lambda v: str(v)[:20]
    )
    def test_every_spelling_gives_one_run_spec(self, knob, spellings):
        specs = {RunSpec(**{knob: value}) for value in spellings}
        assert len(specs) == 1
        assert specs != {RunSpec()}
        # The protocol normalizes its own public field, not only the
        # RunSpec it builds: SweepSpec copies that field.
        protocols = {
            ExperimentProtocol(**{knob: value}) for value in spellings
        }
        assert len(protocols) == 1
        (protocol,) = protocols
        (spec,) = specs
        assert getattr(protocol, knob) == getattr(spec, knob)
        documented = ExperimentProtocol().horizon_cap_units
        assert protocol.run_spec() == RunSpec(
            horizon_cap_units=documented, **{knob: spellings[-1]}
        )

    @pytest.mark.parametrize("knob, value", DEFAULT_SPELLINGS)
    def test_explicit_default_normalizes_to_none(self, knob, value):
        assert getattr(RunSpec(**{knob: value}), knob) is None
        assert RunSpec(**{knob: value}) == RunSpec()
        if knob in PROTOCOL_KNOBS:
            assert ExperimentProtocol(**{knob: value}) == ExperimentProtocol()

    @pytest.mark.parametrize("knob, value", BAD_KNOBS)
    def test_bad_value_rejected(self, knob, value):
        with pytest.raises(ConfigurationError):
            RunSpec(**{knob: value})
        with pytest.raises(ConfigurationError):
            ExperimentProtocol(**{knob: value})

    def test_default_as_dict_has_no_new_keys(self):
        payload = ExperimentProtocol().as_dict()
        assert "release_model" not in payload
        assert "initial_history" not in payload
        assert RunSpec().key() == {}

    def test_non_default_as_dict_carries_knobs(self):
        proto = ExperimentProtocol(
            release_model="bursty", initial_history="rpattern"
        )
        payload = proto.as_dict()
        assert payload["release_model"]["kind"] == "bursty"
        assert payload["initial_history"] == "rpattern"
        assert proto.run_spec().key() == {
            "release_model": payload["release_model"],
            "initial_history": "rpattern",
        }


class TestSweepFingerprint:
    ARGS = ([(0.2, 0.3)], ["MKSS_ST"], 2, "MKSS_ST", None, 7, None)

    def test_periodic_fingerprint_unchanged(self):
        default = _sweep_fingerprint(
            *self.ARGS, RunSpec(horizon_cap_units=100)
        )
        explicit = _sweep_fingerprint(
            *self.ARGS,
            RunSpec(
                horizon_cap_units=100,
                power_model=PowerModel.paper_default(),
                release_model=ReleaseModel(),
                initial_history="met",
            ),
        )
        assert explicit == default
        assert "power_model" not in default
        assert "release_model" not in default
        assert "initial_history" not in default

    def test_non_default_knobs_enter_fingerprint(self):
        fp = _sweep_fingerprint(
            *self.ARGS,
            RunSpec(
                horizon_cap_units=100,
                release_model=ReleaseModel.preset("light", seed=4),
                initial_history="miss",
            ),
        )
        assert fp["release_model"] == {
            "kind": "sporadic",
            "jitter": 0.1,
            "seed": 4,
        }
        assert fp["initial_history"] == "miss"
        assert fp != _sweep_fingerprint(
            *self.ARGS, RunSpec(horizon_cap_units=100)
        )


class TestRunSpecReachesEveryEntryPoint:
    """A preset-name release model is accepted wherever a RunSpec goes."""

    NAMED = RunSpec(horizon_cap_units=100, release_model="light")
    MODEL = RunSpec(
        horizon_cap_units=100, release_model=ReleaseModel.preset("light")
    )

    def test_run_scheme(self):
        taskset = fig3_taskset()
        named = run_scheme(taskset, "MKSS_Selective", run=self.NAMED)
        model = run_scheme(taskset, "MKSS_Selective", run=self.MODEL)
        periodic = run_scheme(
            taskset, "MKSS_Selective", run=RunSpec(horizon_cap_units=100)
        )
        releases = [
            {
                key: record.release
                for key, record in outcome.result.trace.records.items()
            }
            for outcome in (named, model, periodic)
        ]
        assert releases[0] == releases[1] != releases[2]

    def test_audit_scheme(self):
        report = audit_scheme(fig3_taskset(), "MKSS_DP", run=self.NAMED)
        assert report.ok, report.issues

    def test_utilization_sweep(self):
        kwargs = dict(bins=[(0.3, 0.4)], sets_per_bin=1, seed=5)
        named = utilization_sweep(run=self.NAMED, **kwargs)
        model = utilization_sweep(run=self.MODEL, **kwargs)
        periodic = utilization_sweep(
            run=RunSpec(horizon_cap_units=100), **kwargs
        )
        assert named.job_payloads == model.job_payloads
        assert named.job_payloads != periodic.job_payloads

    def test_batch_item_falls_back(self):
        pytest.importorskip("numpy")
        from repro.sim.batch import build_batch_item

        taskset = fig3_taskset()
        assert build_batch_item(taskset, "MKSS_ST", None, self.NAMED) is None
        assert build_batch_item(
            taskset, "MKSS_ST", None, RunSpec(horizon_cap_units=100)
        ) is not None
