"""Batched noisy trajectories against an exact density-matrix evolution.

The reference evolves rho under the same channels as ``run_noisy``: each gate
as a unitary, then per touched qubit the depolarizing channel
rho -> (1 - p) rho + p/3 (X rho X + Y rho Y + Z rho Z), and finally
independent readout flips on the diagonal. It is dense in 4^n, so n <= 5.
"""

import random

import numpy as np
import pytest

from groverwild import simulator
from groverwild.boolexpr import TruthTable
from groverwild.cli import DEFAULT_NOISE, compile_pipeline
from groverwild.scenarios import bundled_scenarios
from groverwild.simulator import NoiseModel, circuit_unitary, run_noisy
from groverwild.synthesis import (
    Circuit,
    Gate,
    build_grover_circuit,
    iteration_count,
    synthesize_phase_oracle,
)


def exact_distribution(circuit: Circuit, noise: NoiseModel) -> np.ndarray:
    """Outcome probabilities of ``circuit`` under ``noise``, from the density matrix."""
    n = circuit.qubit_count
    assert n <= 5
    dim = 1 << n

    def unitary(*gates):
        return circuit_unitary(Circuit(n, gates))

    # Y = i X Z, so conjugating by X Z (Z first, then X) is the Y channel term.
    paulis = [
        [unitary(Gate.x(q)), unitary(Gate.z(q), Gate.x(q)), unitary(Gate.z(q))]
        for q in range(n)
    ]
    rho = np.zeros((dim, dim), dtype=np.complex128)
    rho[0, 0] = 1.0
    for gate in circuit.gates:
        u = unitary(gate)
        rho = u @ rho @ u.conj().T
        p = noise.p1 if gate.kind in ("h", "x", "z") else noise.p2 if gate.kind == "mcz" else 0.0
        for q in gate.qubits:
            mixed = sum(P @ rho @ P.conj().T for P in paulis[q])
            rho = (1.0 - p) * rho + (p / 3.0) * mixed
    probs = rho.diagonal().real.copy()
    r = noise.readout
    for b in range(n):
        probs = (1.0 - r) * probs + r * probs[np.arange(dim) ^ (1 << (n - 1 - b))]
    return probs


def total_variation(hist, probs: np.ndarray) -> float:
    n = hist.bit_length
    observed = np.zeros(1 << n)
    for bits, count in hist.counts.items():
        observed[int(bits, 2)] = count / hist.shots
    return 0.5 * float(np.abs(observed - probs).sum())


def bundled_circuit(name: str) -> Circuit:
    scenario = next(s for s in bundled_scenarios() if s.name == name)
    pipeline = compile_pipeline(scenario.dataset, scenario.terms())
    return build_grover_circuit(pipeline.oracle, pipeline.iterations)


def random_oracle_circuit(n: int, marked: int, seed: int) -> Circuit:
    rows = np.zeros(1 << n, dtype=np.uint8)
    rows[random.Random(seed).sample(range(1 << n), marked)] = 1
    oracle = synthesize_phase_oracle(TruthTable(n, rows))
    return build_grover_circuit(oracle, iteration_count(n, marked))


class TestReferenceItself:
    def test_noiseless_reference_matches_statevector(self):
        circuit = bundled_circuit("one-match")
        probs = np.abs(simulator.simulate(circuit).amplitudes) ** 2
        assert np.allclose(exact_distribution(circuit, NoiseModel.ideal()), probs)

    def test_certain_readout_flip_inverts_every_bit(self):
        probs = exact_distribution(Circuit(2, (Gate.x(0),)), NoiseModel(readout=1.0))
        assert np.allclose(probs, [0, 1, 0, 0])

    def test_full_depolarizing_mixes_one_qubit(self):
        # p = 3/4 on one qubit is the completely depolarizing channel.
        probs = exact_distribution(Circuit(1, (Gate.x(0),)), NoiseModel(p1=0.75))
        assert np.allclose(probs, [0.5, 0.5])


class TestTrajectoriesMatchExact:
    @pytest.mark.parametrize("name", ["no-match", "one-match", "two-match"])
    def test_bundled_scenarios_default_noise(self, name):
        circuit = bundled_circuit(name)
        hist = run_noisy(circuit, DEFAULT_NOISE, 200_000, seed=2024)
        assert total_variation(hist, exact_distribution(circuit, DEFAULT_NOISE)) <= 0.01

    def test_random_five_qubit_oracle_heavy_noise(self):
        circuit = random_oracle_circuit(5, 3, seed=11)
        noise = NoiseModel(p1=0.02, p2=0.05, readout=0.05)
        hist = run_noisy(circuit, noise, 100_000, seed=5)
        assert total_variation(hist, exact_distribution(circuit, noise)) <= 0.02

    def test_many_chunks(self, monkeypatch):
        # 2^16 amplitudes hold 8192 trajectories at n = 3: 13 chunks, the last
        # one partial.
        monkeypatch.setattr(simulator, "_AMP_BUDGET", 1 << 16)
        circuit = bundled_circuit("one-match")
        shots = 100_000
        assert shots > simulator._AMP_BUDGET >> circuit.qubit_count
        a = run_noisy(circuit, DEFAULT_NOISE, shots, seed=3)
        assert run_noisy(circuit, DEFAULT_NOISE, shots, seed=3) == a
        assert total_variation(a, exact_distribution(circuit, DEFAULT_NOISE)) <= 0.01

    def test_one_trajectory_per_chunk(self, monkeypatch):
        monkeypatch.setattr(simulator, "_AMP_BUDGET", 1)
        circuit = bundled_circuit("two-match")
        noise = NoiseModel(p1=0.02, p2=0.05, readout=0.05)
        a = run_noisy(circuit, noise, 300, seed=8)
        assert a.shots == 300
        assert run_noisy(circuit, noise, 300, seed=8) == a
