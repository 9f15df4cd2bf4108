import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groverwild.boolexpr import And, Not, Or, TruthTable, Var, anf, truth_table
from groverwild.errors import InputError
from groverwild.simulator import circuit_unitary
from groverwild.synthesis import (
    Circuit,
    Gate,
    build_diffusion,
    build_grover_circuit,
    circuit_from_json_dict,
    circuit_to_json_dict,
    circuit_to_json_text,
    check_grover_size,
    circuit_to_qasm,
    gate_stats,
    iteration_count,
    oracle_gate_count,
    synthesize_phase_oracle,
)


def oracle_diagonal(table: TruthTable) -> np.ndarray:
    return np.diag(1.0 - 2.0 * table.rows.astype(np.float64))


def random_table(rng: random.Random, n: int) -> TruthTable:
    rows = np.array([rng.randint(0, 1) for _ in range(1 << n)], dtype=np.uint8)
    return TruthTable(n, rows)


class TestGate:
    def test_constructors(self):
        assert Gate.h(2) == Gate("h", (2,))
        assert Gate.mcz([2, 0, 1]).qubits == (0, 1, 2)
        assert Gate.gphase().qubits == ()

    def test_mcz_needs_two_distinct_qubits(self):
        with pytest.raises(InputError):
            Gate.mcz([1])
        with pytest.raises(InputError):
            Gate.mcz([1, 1])

    def test_single_qubit_arity(self):
        with pytest.raises(InputError):
            Gate("h", (0, 1))

    def test_unknown_kind(self):
        with pytest.raises(InputError):
            Gate("cnot", (0, 1))

    def test_circuit_rejects_out_of_range(self):
        with pytest.raises(InputError):
            Circuit(2, (Gate.z(2),))


class TestSynthesizeOracle:
    def test_and_single_monomial(self):
        circuit = synthesize_phase_oracle(truth_table(And((Var(0), Var(1))), 2))
        assert circuit.gates == (Gate.mcz([0, 1]),)

    def test_or_three_gates(self):
        circuit = synthesize_phase_oracle(truth_table(Or((Var(0), Var(1))), 2))
        assert circuit.gates == (Gate.z(0), Gate.z(1), Gate.mcz([0, 1]))

    def test_not_x0_has_global_flip_first(self):
        circuit = synthesize_phase_oracle(truth_table(Not(Var(0)), 1))
        assert circuit.gates == (Gate.gphase(), Gate.z(0))

    def test_empty_table_is_empty_circuit(self):
        from groverwild.boolexpr import Const

        circuit = synthesize_phase_oracle(truth_table(Const(0), 3))
        assert circuit.gates == ()

    @pytest.mark.parametrize("n", range(1, 7))
    def test_diagonal_exactness_random_tables(self, n):
        rng = random.Random(100 + n)
        for _ in range(30):
            table = random_table(rng, n)
            got = circuit_unitary(synthesize_phase_oracle(table))
            assert np.max(np.abs(got - oracle_diagonal(table))) <= 1e-10


class TestDiffusion:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matrix_equals_reflection(self, n):
        dim = 1 << n
        expected = 2.0 / dim * np.ones((dim, dim)) - np.eye(dim)
        got = circuit_unitary(build_diffusion(n))
        assert np.max(np.abs(got - expected)) <= 1e-12

    def test_diagonal_entries_n3(self):
        got = circuit_unitary(build_diffusion(3))
        assert np.allclose(np.diag(got), -0.75, atol=1e-12)

    def test_preserves_uniform_state(self):
        n = 2
        uniform = np.full(1 << n, 0.5, dtype=complex)
        out = circuit_unitary(build_diffusion(n)) @ uniform
        assert np.max(np.abs(out - uniform)) <= 1e-12

    def test_n1_is_pauli_x(self):
        got = circuit_unitary(build_diffusion(1))
        assert np.max(np.abs(got - np.array([[0, 1], [1, 0]]))) <= 1e-12


class TestIterationCount:
    @pytest.mark.parametrize(
        "n,m,expected",
        [(3, 1, 2), (3, 2, 1), (3, 0, 1), (2, 3, 1), (8, 1, 12), (1, 1, 1)],
    )
    def test_values(self, n, m, expected):
        assert iteration_count(n, m) == expected

    def test_marked_count_out_of_range(self):
        with pytest.raises(InputError):
            iteration_count(3, 9)
        with pytest.raises(InputError):
            iteration_count(3, -1)


class TestGroverAssembly:
    def test_zero_iterations_is_hadamard_layer(self):
        oracle = Circuit(3, (Gate.z(0),))
        circuit = build_grover_circuit(oracle, 0)
        assert circuit.gates == (Gate.h(0), Gate.h(1), Gate.h(2))

    def test_structure_one_iteration(self):
        oracle = Circuit(2, (Gate.mcz([0, 1]),))
        circuit = build_grover_circuit(oracle, 1)
        diffusion = build_diffusion(2)
        assert circuit.gates == (Gate.h(0), Gate.h(1)) + oracle.gates + diffusion.gates

    def test_negative_iterations_rejected(self):
        with pytest.raises(InputError):
            build_grover_circuit(Circuit(2), -1)

    def test_gate_count_cap_refused_before_assembly(self):
        oracle = synthesize_phase_oracle(random_table(random.Random(4), 3))
        with pytest.raises(InputError, match="at most"):
            build_grover_circuit(oracle, 10**12)
        # an empty 20-qubit oracle unrolls 82 gates per round: 2^25 / 82 ~ 409 k rounds
        with pytest.raises(InputError, match="at most"):
            build_grover_circuit(Circuit(20), 410_000)

    def test_unitarity_of_random_grover_circuits(self):
        rng = random.Random(7)
        for n in (1, 2, 3, 4):
            table = random_table(rng, n)
            circuit = build_grover_circuit(synthesize_phase_oracle(table), 2)
            u = circuit_unitary(circuit)
            norms = np.linalg.norm(u, axis=0)
            assert np.max(np.abs(norms - 1.0)) <= 1e-10


class TestGateStats:
    def test_disjoint_qubits_share_a_layer(self):
        stats = gate_stats(Circuit(2, (Gate.z(0), Gate.z(1))))
        assert stats.depth == 1

    def test_shared_qubit_stacks(self):
        stats = gate_stats(Circuit(2, (Gate.z(0), Gate.mcz([0, 1]))))
        assert stats.depth == 2

    def test_diffusion_counts(self):
        stats = gate_stats(build_diffusion(3))
        assert stats.counts["h"] == 6
        assert stats.counts["x"] == 6
        assert stats.counts["mcz"] == 1
        assert stats.mcz_arities == {3: 1}

    def test_gphase_adds_no_depth(self):
        base = Circuit(2, (Gate.h(0), Gate.h(1)))
        with_flip = Circuit(2, base.gates + (Gate.gphase(),))
        assert gate_stats(base).depth == gate_stats(with_flip).depth


class TestSerialization:
    def test_json_roundtrip(self):
        circuit = build_grover_circuit(
            synthesize_phase_oracle(truth_table(Or((Var(0), Var(1))), 2)), 1
        )
        data = circuit_to_json_dict(circuit)
        assert circuit_from_json_dict(json.loads(json.dumps(data))) == circuit

    def test_json_shape(self):
        circuit = Circuit(3, (Gate.h(0), Gate.mcz([0, 1, 2]), Gate.gphase()))
        data = circuit_to_json_dict(circuit)
        assert data == {
            "qubits": 3,
            "gates": [
                {"g": "h", "q": [0]},
                {"g": "mcz", "q": [0, 1, 2]},
                {"g": "gphase"},
            ],
        }

    def test_from_json_rejects_garbage(self):
        with pytest.raises(InputError):
            circuit_from_json_dict({"qubits": 2})
        with pytest.raises(InputError):
            circuit_from_json_dict({"qubits": 2, "gates": [{"q": [0]}]})

    def test_qasm_export(self):
        circuit = Circuit(
            3, (Gate.h(0), Gate.x(1), Gate.z(2), Gate.mcz([0, 1]), Gate.mcz([0, 1, 2]), Gate.gphase())
        )
        text = circuit_to_qasm(circuit)
        assert "OPENQASM 2.0;" in text
        assert "qreg q[3];" in text
        assert "cz q[0],q[1];" in text
        assert "opaque mcz3 q0,q1,q2;" in text
        assert "mcz3 q[0],q[1],q[2];" in text
        assert "// global phase flip" in text


@st.composite
def serializable_circuits(draw):
    """Circuits on 1..14 qubits (two-digit indices included) over all five kinds."""
    n = draw(st.integers(1, 14))
    kinds = ["h", "x", "z", "gphase"] + (["mcz"] if n > 1 else [])
    gates = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=30)):
        if kind == "gphase":
            gates.append(Gate.gphase())
        elif kind == "mcz":
            gates.append(Gate.mcz(draw(
                st.lists(st.integers(0, n - 1), min_size=2, max_size=n, unique=True)
            )))
        else:
            gates.append(Gate(kind, (draw(st.integers(0, n - 1)),)))
    return Circuit(n, tuple(gates))


class TestJsonText:
    """circuit_to_json_text writes exactly the bytes of the dict route."""

    @staticmethod
    def via_dict(circuit: Circuit) -> str:
        return json.dumps(circuit_to_json_dict(circuit), sort_keys=True, indent=2) + "\n"

    @settings(max_examples=300, deadline=None)
    @given(serializable_circuits())
    def test_equals_dict_route(self, circuit):
        assert circuit_to_json_text(circuit) == self.via_dict(circuit)

    @pytest.mark.parametrize(
        "circuit",
        [
            Circuit(1),
            Circuit(3, (Gate.gphase(),)),
            Circuit(12, (Gate.mcz(range(12)), Gate.h(11), Gate.gphase(), Gate.h(11))),
        ],
    )
    def test_zero_gates_gphase_and_repeats(self, circuit):
        assert circuit_to_json_text(circuit) == self.via_dict(circuit)

    def test_grover_circuit(self):
        oracle = synthesize_phase_oracle(random_table(random.Random(9), 5))
        circuit = build_grover_circuit(oracle, 3)
        text = circuit_to_json_text(circuit)
        assert text == self.via_dict(circuit)
        assert circuit_from_json_dict(json.loads(text)) == circuit


@st.composite
def sized_tables(draw):
    """Tables on 1..10 variables, from nearly empty to nearly full."""
    n = draw(st.integers(1, 10))
    density = draw(st.sampled_from([0.0, 0.01, 0.3, 0.5, 0.9, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return TruthTable(n, (rng.random(1 << n) < density).astype(np.uint8))


class TestOracleGateCount:
    """The Mobius weight is the oracle's size, without building the oracle."""

    @settings(max_examples=200, deadline=None)
    @given(sized_tables())
    def test_equals_monomials_and_gates(self, table):
        count = oracle_gate_count(table)
        assert count == len(anf(table).monomials)
        assert count == len(synthesize_phase_oracle(table).gates)

    def test_size_check_formula(self):
        # n + k·(M + 4n + 2) gates: 3 + 1·(2 + 14) = 19 for this oracle
        oracle = Circuit(3, (Gate.z(0), Gate.mcz([1, 2])))
        assert len(build_grover_circuit(oracle, 1).gates) == 19
        check_grover_size(20, 0, (1 << 25) // 82)  # 20 + k·82 <= 2^25
        message = "^409201 iterations would unroll 33554502 gates; at most 33554432 are supported$"
        with pytest.raises(InputError, match=message):
            check_grover_size(20, 0, (1 << 25) // 82 + 1)
