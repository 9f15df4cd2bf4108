import json
import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groverwild.boolexpr import Const, TruthTable, truth_table
from groverwild.errors import InputError
from groverwild.simulator import (
    _MAX_GROVER_UPDATES,
    MAX_QUBITS,
    Histogram,
    NoiseModel,
    Statevector,
    apply_diagonal_oracle,
    apply_gate,
    circuit_unitary,
    complexes_to_json_text,
    floats_to_json_text,
    grover_state,
    init_state,
    measure,
    probabilities,
    run_noisy,
    simulate,
    statevector_to_json_list,
)
from groverwild.synthesis import (
    Circuit,
    Gate,
    build_grover_circuit,
    iteration_count,
    synthesize_phase_oracle,
)


def marked_table(n: int, marked: set[int]) -> TruthTable:
    rows = np.zeros(1 << n, dtype=np.uint8)
    for x in marked:
        rows[x] = 1
    return TruthTable(n, rows)


def grover_mass(n: int, m: int, k: int) -> float:
    return math.sin((2 * k + 1) * math.asin(math.sqrt(m / (1 << n)))) ** 2


class TestInitAndGates:
    def test_init_one_qubit(self):
        state = init_state(1)
        assert np.allclose(state.amplitudes, [1, 0])

    def test_init_three_qubits(self):
        state = init_state(3)
        assert state.amplitudes[0] == 1
        assert np.count_nonzero(state.amplitudes) == 1

    def test_init_out_of_range(self):
        with pytest.raises(InputError):
            init_state(0)
        with pytest.raises(InputError):
            init_state(MAX_QUBITS + 1)

    def test_cap_covers_twenty_qubits(self):
        assert MAX_QUBITS >= 20
        state = init_state(20)
        assert state.amplitudes.size == 1 << 20
        assert state.amplitudes[0] == 1

    def test_hadamard_on_zero(self):
        state = apply_gate(init_state(1), Gate.h(0))
        assert np.allclose(state.amplitudes, [1 / math.sqrt(2)] * 2)

    def test_hadamard_layer_uniform(self):
        circuit = Circuit(3, tuple(Gate.h(q) for q in range(3)))
        state = simulate(circuit)
        assert np.allclose(state.amplitudes, 1 / math.sqrt(8))

    def test_x_flips_most_significant_for_qubit0(self):
        state = apply_gate(init_state(2), Gate.x(0))
        assert state.amplitudes[0b10] == 1  # x0 is the MSB

    def test_z_phases_one_subspace(self):
        state = apply_gate(init_state(1), Gate.x(0))
        state = apply_gate(state, Gate.z(0))
        assert state.amplitudes[1] == -1

    def test_mcz_on_all_ones(self):
        state = init_state(2)
        state = apply_gate(state, Gate.x(0))
        state = apply_gate(state, Gate.x(1))
        state = apply_gate(state, Gate.mcz([0, 1]))
        assert state.amplitudes[0b11] == -1

    def test_gphase_negates_everything(self):
        state = apply_gate(init_state(2), Gate.gphase())
        assert state.amplitudes[0] == -1

    def test_gate_index_out_of_range(self):
        with pytest.raises(InputError):
            apply_gate(init_state(2), Gate.z(2))

    def test_amplitudes_read_only(self):
        state = init_state(2)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0


class TestDiagonalOracle:
    def test_identity_for_all_zero_table(self):
        state = simulate(Circuit(3, tuple(Gate.h(q) for q in range(3))))
        out = apply_diagonal_oracle(state, truth_table(Const(0), 3))
        assert np.array_equal(out.amplitudes, state.amplitudes)

    def test_two_marked_flip(self):
        state = simulate(Circuit(3, tuple(Gate.h(q) for q in range(3))))
        out = apply_diagonal_oracle(state, marked_table(3, {2, 3}))
        amp = 1 / math.sqrt(8)
        expected = np.full(8, amp)
        expected[2] = expected[3] = -amp
        assert np.allclose(out.amplitudes, expected)

    def test_all_ones_global_flip(self):
        state = init_state(2)
        out = apply_diagonal_oracle(state, truth_table(Const(1), 2))
        assert np.allclose(out.amplitudes, -state.amplitudes)

    def test_size_mismatch(self):
        with pytest.raises(InputError):
            apply_diagonal_oracle(init_state(2), truth_table(Const(0), 3))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_agrees_with_synthesized_circuit(self, n):
        rng = random.Random(40 + n)
        for _ in range(20):
            rows = np.array([rng.randint(0, 1) for _ in range(1 << n)], dtype=np.uint8)
            table = TruthTable(n, rows)
            state = simulate(Circuit(n, tuple(Gate.h(q) for q in range(n))))
            fast = apply_diagonal_oracle(state, table)
            via_circuit = simulate(synthesize_phase_oracle(table), initial=state)
            assert np.max(np.abs(fast.amplitudes - via_circuit.amplitudes)) <= 1e-10


class TestProbabilities:
    def test_uniform(self):
        state = simulate(Circuit(3, tuple(Gate.h(q) for q in range(3))))
        assert np.allclose(probabilities(state), 0.125)

    def test_two_match_grover_output(self):
        oracle = synthesize_phase_oracle(marked_table(3, {2, 3}))
        probs = probabilities(simulate(build_grover_circuit(oracle, 1)))
        assert abs(probs[2] - 0.5) <= 1e-9
        assert abs(probs[3] - 0.5) <= 1e-9
        assert max(probs[i] for i in (0, 1, 4, 5, 6, 7)) <= 1e-18

    def test_one_match_grover_output(self):
        oracle = synthesize_phase_oracle(marked_table(3, {0}))
        probs = probabilities(simulate(build_grover_circuit(oracle, 2)))
        assert abs(probs[0] - grover_mass(3, 1, 2)) <= 1e-9
        assert abs(probs[0] - 0.9453) <= 1e-4

    def test_sum_is_one(self):
        rng = random.Random(3)
        rows = np.array([rng.randint(0, 1) for _ in range(16)], dtype=np.uint8)
        oracle = synthesize_phase_oracle(TruthTable(4, rows))
        probs = probabilities(simulate(build_grover_circuit(oracle, 3)))
        assert abs(probs.sum() - 1.0) <= 1e-10


class TestGroverAnalyticLaw:
    def test_mass_matches_formula(self):
        from groverwild.synthesis import build_diffusion

        rng = random.Random(77)
        for n in range(1, 7):
            dim = 1 << n
            diffusion = build_diffusion(n)
            for m in sorted({1, 2, dim // 2, dim - 1} & set(range(1, dim + 1))):
                marked = set(rng.sample(range(dim), m))
                oracle = synthesize_phase_oracle(marked_table(n, marked))
                state = simulate(Circuit(n, tuple(Gate.h(q) for q in range(n))))
                for k in range(5):
                    probs = probabilities(state)
                    mass = float(sum(probs[x] for x in marked))
                    assert abs(mass - grover_mass(n, m, k)) <= 1e-9
                    state = simulate(diffusion, initial=simulate(oracle, initial=state))

    def test_zero_marked_stays_uniform(self):
        for n in (1, 2, 4):
            oracle = synthesize_phase_oracle(truth_table(Const(0), n))
            for k in (0, 1, 3):
                state = simulate(build_grover_circuit(oracle, k))
                assert np.max(np.abs(state.amplitudes - 1 / math.sqrt(1 << n))) <= 1e-12


class TestNormPreservation:
    def test_norm_after_every_gate(self):
        rng = random.Random(55)
        for n in (1, 3, 5):
            rows = np.array([rng.randint(0, 1) for _ in range(1 << n)], dtype=np.uint8)
            oracle = synthesize_phase_oracle(TruthTable(n, rows))
            circuit = build_grover_circuit(oracle, 2)
            state = init_state(n)
            for gate in circuit.gates:
                state = apply_gate(state, gate)
                assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= 1e-12


class TestMeasure:
    def test_deterministic_state(self):
        state = apply_gate(apply_gate(init_state(3), Gate.x(1)), Gate.gphase())
        hist = measure(state, 100, seed=1)
        assert hist.counts == {"010": 100}

    def test_same_seed_same_histogram(self):
        state = simulate(Circuit(3, tuple(Gate.h(q) for q in range(3))))
        assert measure(state, 500, seed=42) == measure(state, 500, seed=42)

    def test_shots_must_be_positive(self):
        with pytest.raises(InputError):
            measure(init_state(1), 0, seed=0)

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_uniform_counts_within_five_sigma(self, seed):
        state = simulate(Circuit(3, tuple(Gate.h(q) for q in range(3))))
        shots = 8000
        hist = measure(state, shots, seed=seed)
        expected = shots / 8
        sigma = math.sqrt(shots * (1 / 8) * (7 / 8))
        for bits in (format(x, "03b") for x in range(8)):
            assert abs(hist.counts.get(bits, 0) - expected) <= 5 * sigma


class TestHistogram:
    def test_counts_must_sum_to_shots(self):
        with pytest.raises(InputError):
            Histogram(10, {"0": 4, "1": 5})

    def test_keys_must_share_length(self):
        with pytest.raises(InputError):
            Histogram(2, {"0": 1, "00": 1})

    def test_json_roundtrip(self):
        hist = Histogram(5, {"01": 3, "10": 2})
        assert Histogram.from_json_dict(hist.to_json_dict()) == hist


class TestNoise:
    def test_noise_probabilities_validated(self):
        with pytest.raises(InputError):
            NoiseModel(p1=1.5)
        with pytest.raises(InputError):
            NoiseModel(readout=-0.1)

    def test_zero_noise_bit_exact_with_measure(self):
        oracle = synthesize_phase_oracle(marked_table(3, {2, 3}))
        circuit = build_grover_circuit(oracle, 1)
        ideal = measure(simulate(circuit), 256, seed=9)
        noisy = run_noisy(circuit, NoiseModel.ideal(), 256, seed=9)
        assert noisy == ideal

    def test_seeded_determinism(self):
        oracle = synthesize_phase_oracle(marked_table(3, {2, 3}))
        circuit = build_grover_circuit(oracle, 1)
        noise = NoiseModel(p1=0.01, p2=0.05, readout=0.05)
        a = run_noisy(circuit, noise, 200, seed=31)
        b = run_noisy(circuit, noise, 200, seed=31)
        assert a == b
        assert run_noisy(circuit, noise, 200, seed=32) != a

    def test_two_match_noisy_top_two(self):
        oracle = synthesize_phase_oracle(marked_table(3, {2, 3}))
        circuit = build_grover_circuit(oracle, 1)
        noise = NoiseModel(p1=0.001, p2=0.01, readout=0.02)
        hist = run_noisy(circuit, noise, 1024, seed=7)
        ranked = sorted(hist.counts.items(), key=lambda kv: (-kv[1], kv[0]))
        assert {ranked[0][0], ranked[1][0]} == {"010", "011"}

    def test_control_noisy_stays_flat(self):
        oracle = synthesize_phase_oracle(truth_table(Const(0), 3))
        circuit = build_grover_circuit(oracle, 1)
        noise = NoiseModel(p1=0.001, p2=0.01, readout=0.02)
        hist = run_noisy(circuit, noise, 1024, seed=7)
        assert max(hist.counts.values()) / 1024 < 0.25

    def test_readout_only_noise_flips_bits(self):
        circuit = Circuit(1, (Gate.x(0),))
        hist = run_noisy(circuit, NoiseModel(readout=1.0), 50, seed=0)
        assert hist.counts == {"0": 50}


class TestStatevectorValue:
    def test_norm_validated(self):
        with pytest.raises(InputError):
            Statevector(1, np.array([1.0, 1.0], dtype=complex))

    def test_json_dump_pairs(self):
        state = apply_gate(init_state(1), Gate.h(0))
        pairs = statevector_to_json_list(state)
        assert pairs == [[pytest.approx(1 / math.sqrt(2)), 0.0]] * 2

    def test_circuit_unitary_identity(self):
        u = circuit_unitary(Circuit(2))
        assert np.array_equal(u, np.eye(4))


class TestQubitCap:
    """Circuits above MAX_QUBITS are refused before any 2^n allocation."""

    CIRCUIT = Circuit(40, (Gate.h(39),))

    def test_simulate_refuses(self):
        with pytest.raises(InputError, match="at most"):
            simulate(self.CIRCUIT)

    @pytest.mark.parametrize("noise", [NoiseModel.ideal(), NoiseModel(p1=0.1)])
    def test_run_noisy_refuses(self, noise):
        with pytest.raises(InputError, match="at most"):
            run_noisy(self.CIRCUIT, noise, 10, seed=0)

    def test_circuit_unitary_refuses(self):
        with pytest.raises(InputError, match="at most"):
            circuit_unitary(self.CIRCUIT)

    def test_circuit_unitary_refuses_above_twelve_qubits(self):
        # 13 qubits would need 1 GiB of complex128 for the dense 4^n matrix
        with pytest.raises(InputError, match="at most"):
            circuit_unitary(Circuit(13))


@st.composite
def random_circuits(draw):
    """Circuits on 1..5 qubits drawing from all five gate kinds (MCZ needs n >= 2)."""
    n = draw(st.integers(1, 5))
    kinds = ["h", "x", "z", "gphase"] + (["mcz"] if n > 1 else [])
    gates = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=40)):
        if kind == "gphase":
            gates.append(Gate.gphase())
        elif kind == "mcz":
            gates.append(Gate.mcz(draw(
                st.lists(st.integers(0, n - 1), min_size=2, max_size=n, unique=True)
            )))
        else:
            gates.append(Gate(kind, (draw(st.integers(0, n - 1)),)))
    return Circuit(n, tuple(gates))


class TestEntryPointsAgree:
    """simulate, circuit_unitary and apply_gate run one engine: exact agreement."""

    @settings(max_examples=200, deadline=None)
    @given(random_circuits())
    def test_simulate_unitary_column_and_gate_chain(self, circuit):
        amps = simulate(circuit).amplitudes
        assert np.array_equal(amps, circuit_unitary(circuit)[:, 0])
        state = init_state(circuit.qubit_count)
        for gate in circuit.gates:
            state = apply_gate(state, gate)
        assert np.array_equal(amps, state.amplitudes)


@st.composite
def grover_tables(draw):
    """Tables on 1..8 variables: no row marked, every row marked, or drawn rows."""
    n = draw(st.integers(1, 8))
    fill = draw(st.sampled_from(["none", "all", "drawn"]))
    if fill == "drawn":
        rows = draw(st.lists(st.integers(0, 1), min_size=1 << n, max_size=1 << n))
    else:
        rows = [int(fill == "all")] * (1 << n)
    return TruthTable(n, np.array(rows, dtype=np.uint8))


class TestGroverState:
    """The diagonal path equals the unrolled gate engine and follows the law."""

    @settings(max_examples=200, deadline=None)
    @given(grover_tables(), st.integers(0, 6))
    def test_matches_gate_engine(self, table, k):
        want = simulate(build_grover_circuit(synthesize_phase_oracle(table), k)).amplitudes
        got = grover_state(table, k).amplitudes
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("marked_all", [False, True])
    def test_matches_gate_engine_at_m_zero_and_full(self, marked_all):
        for n in range(1, 9):
            table = marked_table(n, set(range(1 << n)) if marked_all else set())
            oracle = synthesize_phase_oracle(table)
            for k in range(7):
                want = simulate(build_grover_circuit(oracle, k)).amplitudes
                assert np.max(np.abs(grover_state(table, k).amplitudes - want)) <= 1e-12

    @pytest.mark.parametrize("n", [12, 13, 14])
    def test_law_per_state(self, n):
        rng = random.Random(500 + n)
        dim = 1 << n
        for m in (1, 3, 37, dim // 5):
            marked = set(rng.sample(range(dim), m))
            table = marked_table(n, marked)
            for k in {0, 1, iteration_count(n, m)}:
                probs = probabilities(grover_state(table, k))
                mass = grover_mass(n, m, k)
                want = np.full(dim, (1.0 - mass) / (dim - m))
                want[sorted(marked)] = mass / m
                assert np.max(np.abs(probs - want)) <= 1e-12

    def test_refuses_above_max_qubits_before_allocating(self):
        # TruthTable itself stops at 24 variables; a stand-in without rows
        # shows that the refusal comes before the table is read.
        class WideTable:
            var_count = MAX_QUBITS + 1

        with pytest.raises(InputError, match="at most"):
            grover_state(WideTable(), 1)

    def test_refuses_negative_iterations(self):
        with pytest.raises(InputError, match=">= 0"):
            grover_state(marked_table(2, {1}), -1)


class TestGroverStateBudget:
    """``grover_state`` bounds its own work, not only through the CLI."""

    def test_refuses_too_many_updates_before_allocating(self):
        table = marked_table(20, {5})
        start = time.perf_counter()
        for k in (1 << 17, (_MAX_GROVER_UPDATES >> 20) + 1):
            with pytest.raises(InputError, match="amplitude updates"):
                grover_state(table, k)
        assert time.perf_counter() - start < 1.0

    def test_budget_admits_the_default_round_count_at_max_qubits(self):
        # checked without running: 3216 rounds on 2^24 amplitudes
        assert iteration_count(MAX_QUBITS, 1) << MAX_QUBITS <= _MAX_GROVER_UPDATES


# Finite float64 values, with the edge cases drawn often: signed zeros, the
# smallest subnormal, 1.0 and values near the top of the range.
_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                1e-310, 1.0, -1.0, 0.5, 1e308, -1.7976931348623157e308])
_FLOATS = st.one_of(_EDGE_FLOATS, st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def float_arrays(draw):
    """Float64 arrays, half of them drawn from a small pool so values repeat."""
    values = _FLOATS
    if draw(st.booleans()):
        values = st.sampled_from(draw(st.lists(_FLOATS, min_size=1, max_size=6)))
    return np.array(draw(st.lists(values, max_size=40)), dtype=np.float64)


class TestJsonText:
    """The direct formatters write exactly the bytes ``json.dumps`` writes."""

    @settings(max_examples=300, deadline=None)
    @given(float_arrays())
    def test_floats_match_json_dumps(self, values):
        want = json.dumps([float(v) for v in values], sort_keys=True, indent=2) + "\n"
        assert floats_to_json_text(values) == want

    @settings(max_examples=300, deadline=None)
    @given(float_arrays(), float_arrays())
    def test_complexes_match_json_dumps(self, re, im):
        size = min(len(re), len(im))
        values = np.empty(size, dtype=np.complex128)
        values.real, values.imag = re[:size], im[:size]
        want = json.dumps([[float(v.real), float(v.imag)] for v in values],
                          sort_keys=True, indent=2) + "\n"
        assert complexes_to_json_text(values) == want

    @settings(max_examples=100, deadline=None)
    @given(grover_tables(), st.integers(0, 6))
    def test_grover_states_match_the_json_list(self, table, k):
        state = grover_state(table, k)
        probs = probabilities(state)
        assert complexes_to_json_text(state.amplitudes) == (
            json.dumps(statevector_to_json_list(state), sort_keys=True, indent=2) + "\n"
        )
        assert floats_to_json_text(probs) == (
            json.dumps([float(p) for p in probs], sort_keys=True, indent=2) + "\n"
        )

    def test_signed_zeros_stay_distinct(self):
        text = complexes_to_json_text(np.array([complex(0.0, -0.0), complex(-0.0, 0.0)]))
        assert text == "[\n  [\n    0.0,\n    -0.0\n  ],\n  [\n    -0.0,\n    0.0\n  ]\n]\n"
        assert floats_to_json_text(np.array([-0.0, 0.0])) == "[\n  -0.0,\n  0.0\n]\n"
