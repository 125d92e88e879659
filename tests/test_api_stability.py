"""API-stability guarantees for the ``repro`` 2.x public surface.

Two contracts are pinned here:

* every symbol in ``repro.__all__`` imports from ``repro`` directly and
  stays importable from its documented home module;
* ``config=TDACConfig(...)`` is the only way to set TD-AC knobs: it
  never warns, and the per-knob keywords removed in 2.0.0 are rejected.
"""

import dataclasses
import importlib
import warnings

import pytest

import repro
from repro import IncrementalTDAC, MajorityVote, TDAC, TDACConfig
from repro.core.config import CONFIG_FIELD_NAMES, RESULT_AFFECTING_FIELDS
from repro.datasets import make_synthetic


@pytest.fixture(scope="module")
def dataset():
    return make_synthetic("DS1", n_objects=20, seed=3).dataset


class TestPublicSurface:
    def test_every_all_symbol_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_all_is_sorted_and_unique(self):
        assert list(repro.__all__) == sorted(set(repro.__all__))

    @pytest.mark.parametrize(
        "module, names",
        [
            ("repro.core", ["TDAC", "TDACConfig", "TDACResult",
                            "IncrementalTDAC", "PartitionCache",
                            "RESULT_SCHEMA", "result_to_dict",
                            "result_from_dict", "config_from_dict"]),
            ("repro.store", ["TruthStore", "ClaimWAL", "SnapshotStore",
                             "WALCorruptionWarning", "StoreError"]),
            ("repro.execution", ["ExecutionPolicy"]),
            ("repro.observability", ["SpanTracer"]),
            ("repro.serving", ["TruthService", "TruthSnapshot",
                               "ServiceOverloadedError", "run_smoke",
                               "TruthServer", "AsyncTruthClient",
                               "RetryPolicy", "serve_network",
                               "handle_request"]),
        ],
    )
    def test_documented_homes_stay_importable(self, module, names):
        mod = importlib.import_module(module)
        for name in names:
            assert hasattr(mod, name), f"{module}.{name} missing"

    def test_serving_symbols_are_top_level(self):
        from repro import TruthService, TruthSnapshot  # noqa: F401

    def test_version_matches_package_metadata(self):
        assert repro.__version__ == "2.0.0"

    def test_store_symbols_are_top_level(self):
        from repro import TruthStore, store  # noqa: F401


class TestTDACConfig:
    def test_is_frozen(self):
        config = TDACConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.seed = 1

    def test_fingerprint_ignores_performance_knobs(self):
        base = TDACConfig(seed=4)
        tuned = TDACConfig(seed=4, n_jobs=8, backend="processes")
        assert base.fingerprint() == tuned.fingerprint()

    def test_fingerprint_tracks_result_affecting_knobs(self):
        fingerprints = {
            TDACConfig().fingerprint(),
            TDACConfig(seed=1).fingerprint(),
            TDACConfig(k_min=3).fingerprint(),
            TDACConfig(distance="masked").fingerprint(),
        }
        assert len(fingerprints) == 4

    def test_result_affecting_fields_exist(self):
        assert set(RESULT_AFFECTING_FIELDS) <= set(CONFIG_FIELD_NAMES)


class TestLegacyKwargShim:
    """Only ``config=TDACConfig(...)`` sets TD-AC knobs."""

    def test_config_path_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            TDAC(MajorityVote(), config=TDACConfig(seed=7))

    def test_unknown_kwarg_rejected(self):
        with pytest.raises(TypeError):
            TDAC(MajorityVote(), wat=1)

    def test_per_knob_keywords_and_views_removed(self):
        with pytest.raises(TypeError):
            TDAC(MajorityVote(), seed=7)
        with pytest.raises(TypeError):
            IncrementalTDAC(MajorityVote(), seed=7)
        tdac = TDAC(MajorityVote(), config=TDACConfig(seed=7))
        assert not hasattr(tdac, "seed")
        assert tdac.config.seed == 7

    def test_kwargs_and_config_are_mutually_exclusive(self):
        with pytest.raises(TypeError):
            TDAC(MajorityVote(), config=TDACConfig(), seed=1)
        with pytest.raises(TypeError):
            IncrementalTDAC(MajorityVote(), config=TDACConfig(), seed=1)


class TestResultSchema:
    def test_run_to_dict_uses_versioned_schema(self, dataset):
        from repro.core import RESULT_SCHEMA, RESULT_SCHEMA_KEYS

        outcome = TDAC(MajorityVote(), config=TDACConfig(seed=0)).run(dataset)
        payload = outcome.to_dict()
        assert payload["schema"] == RESULT_SCHEMA
        assert tuple(sorted(payload)) == tuple(sorted(RESULT_SCHEMA_KEYS))
        assert payload["partition"] is not None

    def test_plain_result_to_dict_shares_schema(self, dataset):
        from repro.core import RESULT_SCHEMA

        result = MajorityVote().discover(dataset)
        payload = result.to_dict()
        assert payload["schema"] == RESULT_SCHEMA
        assert payload["partition"] is None

    def test_result_round_trips_through_from_dict(self, dataset):
        import json

        from repro.core import result_from_dict

        result = MajorityVote().discover(dataset)
        # Through real JSON, so type erasure (tuples -> arrays) applies.
        payload = json.loads(json.dumps(result.to_dict(), sort_keys=True))
        rebuilt = result_from_dict(payload)
        assert rebuilt.algorithm == result.algorithm
        assert rebuilt.iterations == result.iterations
        assert dict(rebuilt.predictions) == {
            fact: value for fact, value in result.predictions.items()
        }
        assert dict(rebuilt.source_trust) == dict(result.source_trust)
        assert dict(rebuilt.confidence) == dict(result.confidence)
        # And the rebuilt result re-serializes byte-identically.
        assert (
            json.dumps(rebuilt.to_dict(), sort_keys=True)
            == json.dumps(result.to_dict(), sort_keys=True)
        )

    def test_result_from_dict_rejects_wrong_schema(self):
        from repro.core import result_from_dict

        with pytest.raises(ValueError):
            result_from_dict({"schema": "tdac-result/v0"})
