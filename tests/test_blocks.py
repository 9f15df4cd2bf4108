"""The block form of a circuit against its unrolled gate list.

``grover_blocks`` holds the Grover circuit as an H layer and the oracle and
diffusion blocks repeated k times; ``build_grover_circuit`` unrolls the same
gates and is the reference. Every emitter and the noisy simulator must give
exactly the same result from either form.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groverwild.boolexpr import TruthTable
from groverwild.errors import InputError
from groverwild.simulator import NoiseModel, run_noisy, simulate
from groverwild.synthesis import (
    BlockCircuit,
    Circuit,
    Gate,
    build_diffusion,
    build_grover_circuit,
    circuit_to_json_dict,
    circuit_to_json_text,
    circuit_to_qasm,
    gate_stats,
    grover_blocks,
    synthesize_phase_oracle,
)


@st.composite
def oracles(draw, max_n=8):
    """Phase oracles on 1..max_n variables: no row marked, every row marked, or drawn rows."""
    n = draw(st.integers(1, max_n))
    fill = draw(st.sampled_from(["none", "all", "drawn"]))
    if fill == "drawn":
        rows = draw(st.lists(st.integers(0, 1), min_size=1 << n, max_size=1 << n))
    else:
        rows = [int(fill == "all")] * (1 << n)
    return synthesize_phase_oracle(TruthTable(n, np.array(rows, dtype=np.uint8)))


@st.composite
def block_circuits(draw):
    """Random blocks on 1..6 qubits, some empty, repeated in a random order."""
    n = draw(st.integers(1, 6))
    kinds = ["h", "x", "z", "gphase"] + (["mcz"] if n > 1 else [])
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        gates = []
        for kind in draw(st.lists(st.sampled_from(kinds), max_size=12)):
            if kind == "gphase":
                gates.append(Gate.gphase())
            elif kind == "mcz":
                gates.append(Gate.mcz(draw(
                    st.lists(st.integers(0, n - 1), min_size=2, max_size=n, unique=True)
                )))
            else:
                gates.append(Gate(kind, (draw(st.integers(0, n - 1)),)))
        blocks.append(Circuit(n, tuple(gates)))
    order = draw(st.lists(st.sampled_from(blocks), max_size=10))
    return BlockCircuit(n, tuple(order))


class TestGroverBlocks:
    @settings(max_examples=200, deadline=None)
    @given(oracles(), st.integers(0, 4))
    def test_gate_stats(self, oracle, k):
        stats = gate_stats(grover_blocks(oracle, k))
        assert stats == gate_stats(build_grover_circuit(oracle, k))
        # The diffusion's all-qubit MCZ (Z for n = 1) levels every qubit, so
        # each round adds the depth of one round started from equal levels.
        diffusion = build_diffusion(oracle.qubit_count)
        round_depth = gate_stats(BlockCircuit(oracle.qubit_count, (oracle, diffusion))).depth
        assert stats.depth == 1 + k * round_depth

    @settings(max_examples=200, deadline=None)
    @given(oracles(), st.integers(0, 4))
    def test_gates_json_and_qasm_bytes(self, oracle, k):
        blocks, unrolled = grover_blocks(oracle, k), build_grover_circuit(oracle, k)
        assert len(blocks.blocks) == 1 + 2 * k
        assert blocks.gates == unrolled.gates
        text = circuit_to_json_text(blocks)
        assert text == circuit_to_json_text(unrolled)
        assert text == json.dumps(circuit_to_json_dict(blocks), sort_keys=True, indent=2) + "\n"
        assert circuit_to_qasm(blocks) == circuit_to_qasm(unrolled)

    @settings(max_examples=60, deadline=None)
    @given(
        oracles(max_n=6),
        st.integers(0, 4),
        st.sampled_from([
            NoiseModel(p1=0.001, p2=0.01, readout=0.02),
            NoiseModel(p1=0.05, p2=0.1, readout=0.05),
            NoiseModel(p2=0.3),
            NoiseModel.ideal(),
        ]),
        st.integers(0, 2**32 - 1),
    )
    def test_noisy_histograms(self, oracle, k, noise, seed):
        blocks, unrolled = grover_blocks(oracle, k), build_grover_circuit(oracle, k)
        a = run_noisy(blocks, noise, 48, seed=seed)
        b = run_noisy(unrolled, noise, 48, seed=seed)
        assert a == b
        n = oracle.qubit_count
        counts = [[h.counts.get(format(i, f"0{n}b"), 0) for i in range(1 << n)] for h in (a, b)]
        assert np.array_equal(*counts)

    def test_refused_like_the_unrolled_circuit(self):
        oracle = Circuit(2, (Gate.z(0),))
        for k in (-1, 1 << 24):
            with pytest.raises(InputError) as blocks_error:
                grover_blocks(oracle, k)
            with pytest.raises(InputError) as unrolled_error:
                build_grover_circuit(oracle, k)
            assert str(blocks_error.value) == str(unrolled_error.value)


class TestAnyBlocks:
    """Blocks entered at unequal levels, empty blocks and arbitrary repeats."""

    @settings(max_examples=300, deadline=None)
    @given(block_circuits())
    def test_emitters_equal_unrolled(self, blocks):
        unrolled = Circuit(blocks.qubit_count, blocks.gates)
        assert gate_stats(blocks) == gate_stats(unrolled)
        assert circuit_to_json_text(blocks) == circuit_to_json_text(unrolled)
        assert circuit_to_qasm(blocks) == circuit_to_qasm(unrolled)
        assert np.array_equal(simulate(blocks).amplitudes, simulate(unrolled).amplitudes)

    def test_a_plain_circuit_is_one_block(self):
        circuit = build_diffusion(3)
        assert circuit.blocks == (circuit,)
        assert gate_stats(circuit) == gate_stats(BlockCircuit(3, (circuit,)))

    def test_rejects_mixed_qubit_counts_and_non_circuits(self):
        with pytest.raises(InputError, match="block on 2 qubits"):
            BlockCircuit(3, (Circuit(3), Circuit(2)))
        with pytest.raises(InputError, match="not a Circuit"):
            BlockCircuit(1, (Gate.h(0),))
        with pytest.raises(InputError, match="qubit count"):
            BlockCircuit(0)
