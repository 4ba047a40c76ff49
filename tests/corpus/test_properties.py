"""Property tests for the corpus plane (hypothesis).

Three invariants the corpus rests on:

* every netlist the topology families produce is well-formed (ground
  reference, no dangling nets) and survives the SPICE-subset round trip
  with its electrical content intact;
* ``apply_fault`` is a pure function: the golden circuit is never
  mutated and the same fault always yields the same faulty clone;
* corpus generation is deterministic: the same ``(seed, classes,
  per_class)`` recipe yields byte-identical manifests, and each class's
  stream is independent of which other classes were requested.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.faults import Fault, FaultKind, apply_fault, apply_faults
from repro.circuit.spice import parse_netlist, write_netlist
from repro.corpus import CorpusManifest, FAMILIES, generate_corpus

_family_index = st.integers(min_value=0, max_value=len(FAMILIES) - 1)
_size_index = st.integers(min_value=0, max_value=7)
_seed = st.integers(min_value=0, max_value=2**32 - 1)


def _build(family_index, size_index, seed):
    family = FAMILIES[family_index]
    size = family.sizes[size_index % len(family.sizes)]
    return family, family.build(size, random.Random(seed))


def _draw_fault(family, circuit, seed):
    rng = random.Random(seed)
    component = rng.choice(family.faultable(circuit))
    kind = rng.choice((FaultKind.OPEN, FaultKind.SHORT, FaultKind.DRIFT))
    value = rng.uniform(0.1, 0.6) if kind is FaultKind.DRIFT else 0.0
    return Fault(kind, component, value=value)


class TestGeneratedNetlists:
    @given(_family_index, _size_index, _seed)
    @settings(max_examples=40, deadline=None)
    def test_well_formed_and_connected(self, family_index, size_index, seed):
        family, circuit = _build(family_index, size_index, seed)
        circuit.validate()  # ground reference present, no dangling nets
        assert family.faultable(circuit), "family must expose fault targets"
        probes = family.probe_nets(circuit)
        assert probes, "family must expose probe nets"
        net_names = {n.name for n in circuit.non_ground_nets}
        assert set(probes) <= net_names

    @given(_family_index, _size_index, _seed)
    @settings(max_examples=40, deadline=None)
    def test_netlist_round_trip(self, family_index, size_index, seed):
        _, circuit = _build(family_index, size_index, seed)
        rebuilt = parse_netlist(write_netlist(circuit), name=circuit.name)
        assert rebuilt.fingerprint() == circuit.fingerprint()


class TestApplyFaultPurity:
    @given(_family_index, _size_index, _seed, _seed)
    @settings(max_examples=40, deadline=None)
    def test_never_mutates_and_deterministic(
        self, family_index, size_index, seed, fault_seed
    ):
        family, circuit = _build(family_index, size_index, seed)
        fault = _draw_fault(family, circuit, fault_seed)
        before = circuit.fingerprint()
        first = apply_fault(circuit, fault)
        second = apply_fault(circuit, fault)
        assert circuit.fingerprint() == before, "golden circuit mutated"
        assert first.fingerprint() == second.fingerprint()
        assert first.fingerprint() != before, "fault left no electrical trace"

    @given(_family_index, _size_index, _seed, _seed)
    @settings(max_examples=20, deadline=None)
    def test_intermittent_applies_its_base(
        self, family_index, size_index, seed, fault_seed
    ):
        family, circuit = _build(family_index, size_index, seed)
        base = _draw_fault(family, circuit, fault_seed)
        wrapped = Fault(FaultKind.INTERMITTENT, base.component, base=base)
        assert (
            apply_fault(circuit, wrapped).fingerprint()
            == apply_fault(circuit, base).fingerprint()
        )

    @given(_family_index, _size_index, _seed, _seed, _seed)
    @settings(max_examples=20, deadline=None)
    def test_multi_fault_composition_is_pure(
        self, family_index, size_index, seed, seed_a, seed_b
    ):
        family, circuit = _build(family_index, size_index, seed)
        faults = [
            _draw_fault(family, circuit, seed_a),
            _draw_fault(family, circuit, seed_b),
        ]
        before = circuit.fingerprint()
        first = apply_faults(circuit, faults)
        second = apply_faults(circuit, faults)
        assert circuit.fingerprint() == before
        assert first.fingerprint() == second.fingerprint()

    @given(_family_index, _size_index, _seed, _seed)
    @settings(max_examples=20, deadline=None)
    def test_fault_serialisation_round_trip(
        self, family_index, size_index, seed, fault_seed
    ):
        family, circuit = _build(family_index, size_index, seed)
        base = _draw_fault(family, circuit, fault_seed)
        for fault in (base, Fault(FaultKind.INTERMITTENT, base.component, base=base)):
            assert Fault.from_dict(fault.to_dict()) == fault


class TestCorpusDeterminism:
    # The cheap, engine-free classes; intermittent determinism is pinned
    # by its golden manifest (tests/golden) and the full-corpus test below.
    _CLASSES = ["single-hard", "multi-fault", "tolerance-stackup"]

    @given(_seed)
    @settings(max_examples=10, deadline=None)
    def test_same_seed_byte_identical(self, seed):
        first = generate_corpus(seed, 1, self._CLASSES)
        second = generate_corpus(seed, 1, self._CLASSES)
        assert first.to_json() == second.to_json()

    @given(_seed)
    @settings(max_examples=10, deadline=None)
    def test_class_streams_independent(self, seed):
        full = generate_corpus(seed, 1, self._CLASSES)
        solo = generate_corpus(seed, 1, ["multi-fault"])
        assert [s.to_dict() for s in full.scenarios if s.scenario_class == "multi-fault"] == [
            s.to_dict() for s in solo.scenarios
        ]

    @given(_seed)
    @settings(max_examples=10, deadline=None)
    def test_manifest_json_round_trip(self, seed):
        manifest = generate_corpus(seed, 1, self._CLASSES)
        assert CorpusManifest.from_json(manifest.to_json()).to_json() == manifest.to_json()

    def test_full_corpus_same_seed_byte_identical(self):
        # All six classes, including the engine-verified intermittent one.
        first = generate_corpus(23, 1)
        second = generate_corpus(23, 1)
        assert first.to_json() == second.to_json()
