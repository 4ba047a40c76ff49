"""Tests for diagnosis jobs: hashing, manifests, JSON shapes."""

import json
from dataclasses import replace

import pytest

from repro.circuit.library import three_stage_amplifier
from repro.circuit.measurements import Measurement
from repro.circuit.netlist import Circuit, GROUND
from repro.circuit.components import Resistor, VoltageSource
from repro.circuit.spice import write_netlist
from repro.core.diagnosis import Flames
from repro.fuzzy import FuzzyInterval
from repro.service.jobs import (
    DiagnosisJob,
    JobResult,
    ManifestError,
    diagnosis_to_dict,
    load_manifest,
    job_from_spec,
    measurement_to_dict,
)

NETLIST = (
    ".title divider\n"
    "Vin top 0 12\n"
    "Rtop top mid 10k tol=0.05\n"
    "Rbot mid 0 10k tol=0.05\n"
)


def _measure(volts=6.0, spread=0.02):
    return [Measurement("V(mid)", FuzzyInterval.number(volts, spread))]


def _configured(config):
    """The ``_measure()`` job with ``config`` overrides, as a job spec states them."""
    spec = {
        "unit": "u",
        "netlist_text": NETLIST,
        "measurements": [measurement_to_dict(m) for m in _measure()],
        "config": config,
    }
    return job_from_spec(spec)


class TestContentHash:
    def test_deterministic(self):
        a = DiagnosisJob.build("u1", NETLIST, _measure())
        b = DiagnosisJob.build("u1", NETLIST, _measure())
        assert a.content_hash == b.content_hash

    def test_unit_label_not_hashed(self):
        a = DiagnosisJob.build("unit-a", NETLIST, _measure())
        b = DiagnosisJob.build("unit-b", NETLIST, _measure())
        assert a.content_hash == b.content_hash

    def test_confirm_not_hashed(self):
        a = DiagnosisJob.build("u", NETLIST, _measure())
        b = replace(DiagnosisJob.build("u", NETLIST, _measure()), confirm=("Rtop", "short"))
        assert a.content_hash == b.content_hash

    def test_measurement_changes_hash(self):
        a = DiagnosisJob.build("u", NETLIST, _measure(6.0))
        b = DiagnosisJob.build("u", NETLIST, _measure(7.0))
        assert a.content_hash != b.content_hash

    def test_config_changes_hash(self):
        a = DiagnosisJob.build("u", NETLIST, _measure())
        b = _configured({"conflict_threshold": 0.2})
        assert a.content_hash != b.content_hash

    def test_component_order_does_not_change_hash(self):
        forward = Circuit("d")
        forward.add(VoltageSource("Vin", 12.0, p="top", n=GROUND))
        forward.add(Resistor("Rtop", 10e3, a="top", b="mid"))
        forward.add(Resistor("Rbot", 10e3, a="mid", b=GROUND))
        backward = Circuit("d-reordered")
        backward.add(Resistor("Rbot", 10e3, a="mid", b=GROUND))
        backward.add(Resistor("Rtop", 10e3, a="top", b="mid"))
        backward.add(VoltageSource("Vin", 12.0, p="top", n=GROUND))
        assert forward.fingerprint() == backward.fingerprint()
        a = DiagnosisJob.build("u", forward, _measure())
        b = DiagnosisJob.build("u", backward, _measure())
        assert a.content_hash == b.content_hash

    def test_parameter_changes_fingerprint(self):
        base = three_stage_amplifier()
        tweaked = base.clone()
        tweaked.component("R2").resistance *= 1.1
        assert base.fingerprint() != tweaked.fingerprint()

    def test_unparseable_netlist_still_hashes(self):
        bad = DiagnosisJob.build("u", "Rbroken top 0\n", _measure())
        assert bad.content_hash == DiagnosisJob.build("x", "Rbroken top 0\n", _measure()).content_hash

    def test_netlist_round_trip_same_hash(self):
        circuit = three_stage_amplifier()
        ms = _measure()
        direct = DiagnosisJob.build("u", circuit, ms)
        via_text = DiagnosisJob.build("u", write_netlist(circuit), ms)
        assert direct.content_hash == via_text.content_hash


class TestJobViews:
    def test_round_trips_measurements(self):
        job = DiagnosisJob.build("u", NETLIST, _measure(6.5, 0.03))
        [m] = job.to_measurements()
        assert m.point == "V(mid)"
        assert m.value.m1 == pytest.approx(6.5)
        assert m.value.alpha == pytest.approx(0.03)

    def test_flames_config_overrides(self):
        job = _configured({"conflict_threshold": 0.1, "max_candidate_size": 2})
        cfg = job.flames_config()
        assert cfg.conflict_threshold == pytest.approx(0.1)
        assert cfg.max_candidate_size == 2
        assert isinstance(cfg.max_candidate_size, int)

    def test_unknown_kernel_rejected(self):
        # There is one engine: naming any kernel is an unknown field.
        for name in ("reference", "turbo"):
            with pytest.raises(ManifestError, match="unknown config field"):
                _configured({"kernel": name})

    def test_unknown_config_field_rejected(self):
        # ``hard_threshold`` and ``t_norm`` were engine knobs nothing read.
        for name in ("bogus", "hard_threshold", "t_norm"):
            with pytest.raises(ManifestError, match="unknown config field"):
                _configured({name: 1})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("conflict_threshold", float("nan")),
            ("conflict_threshold", float("inf")),
            ("conflict_threshold", -0.1),
            ("conflict_threshold", 1.5),
            ("max_candidate_size", float("inf")),
            ("max_candidate_size", float("nan")),
            ("max_candidate_size", -3),
            ("max_candidate_size", 0),
            ("max_candidate_size", 2.7),
            ("assumable_nodes", 2),
            ("assumable_nodes", 0.5),
            ("assumable_nodes", float("nan")),
            ("conflict_threshold", "x"),
            ("max_candidate_size", None),
        ],
    )
    def test_out_of_range_config_value_rejected(self, field, value):
        with pytest.raises(ManifestError, match=f"bad config value for '{field}'"):
            _configured({field: value})

    def test_boundary_config_values_accepted_with_stable_hash(self):
        config = {"conflict_threshold": 0.0, "max_candidate_size": 1, "assumable_nodes": True}
        job = _configured(config)
        assert job.config == (
            ("assumable_nodes", 1.0), ("conflict_threshold", 0.0), ("max_candidate_size", 1.0)
        )
        cfg = job.flames_config()
        assert (cfg.assumable_nodes, cfg.conflict_threshold, cfg.max_candidate_size) == (
            True, 0.0, 1
        )
        # Whole-number floats and ints store the same, so keys do not move.
        same = _configured(
            {"conflict_threshold": 0, "max_candidate_size": 1.0, "assumable_nodes": 1}
        )
        assert same.content_hash == job.content_hash
        top = _configured({"conflict_threshold": 1})
        assert top.config == (("conflict_threshold", 1.0),)

    def test_job_is_picklable(self):
        import pickle

        job = replace(DiagnosisJob.build("u", NETLIST, _measure()), confirm=("Rtop", ""))
        clone = pickle.loads(pickle.dumps(job))
        assert clone == job


class TestDiagnosisDict:
    def test_shape_and_json_safety(self):
        job = DiagnosisJob.build("u", NETLIST, _measure(7.5))
        result = Flames(job.circuit(), job.flames_config()).diagnose(job.to_measurements())
        payload = diagnosis_to_dict(result)
        text = json.dumps(payload)  # must be JSON-serialisable
        back = json.loads(text)
        assert back["status"] == "faulty"
        assert back["suspicions"]
        assert back["measurements"][0]["point"] == "V(mid)"
        assert len(back["measurements"][0]["value"]) == 4
        assert back["stats"]["nogoods"] >= 1

    def test_measurement_dict_round_trip(self):
        m = Measurement("V(mid)", FuzzyInterval(5.9, 6.1, 0.02, 0.04))
        spec = {"netlist_text": NETLIST, "measurements": [measurement_to_dict(m)]}
        assert job_from_spec(spec).to_measurements() == [m]

    def test_bad_measurement_spec(self):
        spec = {"netlist_text": NETLIST, "measurements": [{"point": "V(x)", "value": [1, 2]}]}
        with pytest.raises(ManifestError):
            job_from_spec(spec)


class TestJobResult:
    def test_dict_round_trip(self):
        res = JobResult(
            unit="u", content_hash="abc", status="ok",
            diagnosis={"status": "consistent", "suspicions": {}},
            elapsed=0.5, attempts=2,
        )
        assert JobResult.from_dict(res.to_dict()) == res

    def test_relabel_marks_cache_hit(self):
        res = JobResult(unit="u", content_hash="abc", status="ok", elapsed=1.0)
        again = res.relabel("other")
        assert again.unit == "other"
        assert again.cache_hit
        assert again.elapsed == 0.0
        assert not res.cache_hit


class TestManifest:
    def _write(self, tmp_path, payload):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(payload))
        return path

    def test_probes_and_netlist_path(self, tmp_path):
        (tmp_path / "divider.cir").write_text(NETLIST)
        path = self._write(tmp_path, {"jobs": [
            {"unit": "a", "netlist": "divider.cir", "probes": {"mid": 6.0},
             "imprecision": 0.05},
        ]})
        [job] = load_manifest(path)
        assert job.unit == "a"
        [m] = job.to_measurements()
        assert m.point == "V(mid)"
        assert m.value.alpha == pytest.approx(0.05)

    def test_explicit_measurements_and_confirm(self, tmp_path):
        path = self._write(tmp_path, [
            {"netlist_text": NETLIST,
             "measurements": [{"point": "V(mid)", "value": [6, 6, 0.02, 0.02]}],
             "confirm": {"component": "Rbot", "mode": "high"}},
        ])
        [job] = load_manifest(path)
        assert job.unit == "unit-000"
        assert job.confirm == ("Rbot", "high")

    def test_missing_netlist_rejected(self, tmp_path):
        path = self._write(tmp_path, [{"unit": "a", "probes": {"mid": 6.0}}])
        with pytest.raises(ManifestError):
            load_manifest(path)

    def test_missing_measurements_rejected(self, tmp_path):
        path = self._write(tmp_path, [{"netlist_text": NETLIST}])
        with pytest.raises(ManifestError):
            load_manifest(path)

    def test_empty_manifest_rejected(self, tmp_path):
        path = self._write(tmp_path, {"jobs": []})
        with pytest.raises(ManifestError):
            load_manifest(path)

    def test_unreadable_netlist_path(self, tmp_path):
        path = self._write(tmp_path, [
            {"unit": "a", "netlist": "missing.cir", "probes": {"mid": 6.0}}
        ])
        with pytest.raises(ManifestError):
            load_manifest(path)


class TestJobFromSpec:
    def test_public_spec_parsing_inlines_netlist(self):
        from repro.service.jobs import job_from_spec

        job = job_from_spec(
            {"unit": "u1", "netlist_text": NETLIST, "probes": {"mid": 6.0}}
        )
        assert job.unit == "u1"
        assert job.measurements

    def test_netlist_paths_rejected_without_base_dir(self):
        from repro.service.jobs import ManifestError, job_from_spec

        with pytest.raises(ManifestError, match="netlist_text"):
            job_from_spec({"unit": "u1", "netlist": "design.cir", "probes": {"mid": 6.0}})
