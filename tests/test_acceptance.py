"""Acceptance suite: one test per shipping criterion, run with -v -s for a
one-line PASS report each. Tolerances and runtime budgets are fixed here and
must not be loosened.
"""

import json
import math
import random
import time

import numpy as np

from conftest import classical_marked_bits, explicit_codec, oracle_marked_bits, random_instance
from groverwild.boolexpr import Or, TruthTable
from groverwild.cli import RunConfig, compile_pipeline, main, run_scenario
from groverwild.encoding import (
    decode_entity,
    encode_string,
    encode_substring,
    parse_term,
)
from groverwild.scenarios import DEMO_DATASET, bundled_scenarios
from groverwild.simulator import (
    apply_gate,
    circuit_unitary,
    init_state,
    probabilities,
    simulate,
)
from groverwild.synthesis import (
    Circuit,
    Gate,
    build_diffusion,
    build_grover_circuit,
    synthesize_phase_oracle,
)
from groverwild.analysis import Verdict


def _report(criterion: str) -> None:
    print(f"[acceptance] {criterion}: PASS")


def random_table(rng: random.Random, n: int) -> TruthTable:
    rows = np.array([rng.randint(0, 1) for _ in range(1 << n)], dtype=np.uint8)
    return TruthTable(n, rows)


def test_c01_oracle_equals_diagonal():
    """Synthesized oracle == diag((-1)^f(x)), 200 random functions per n in 1..6."""
    start = time.perf_counter()
    rng = random.Random(2024)
    for n in range(1, 7):
        for _ in range(200):
            table = random_table(rng, n)
            unitary = circuit_unitary(synthesize_phase_oracle(table))
            expected = np.diag(1.0 - 2.0 * table.rows.astype(np.float64))
            assert np.max(np.abs(unitary - expected)) <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"criterion 1 took {elapsed:.1f}s (budget 30s)"
    _report("criterion 1 (oracle-diagonal equivalence, 1200 random functions)")


def test_c02_grover_analytic_law():
    """Marked mass == sin^2((2k+1) asin(sqrt(m/2^n))) for n<=8, k in 0..6."""
    start = time.perf_counter()
    rng = random.Random(4096)
    for n in range(1, 9):
        dim = 1 << n
        diffusion = build_diffusion(n)
        m_values = sorted({1, 2, dim // 2, dim - 1} & set(range(1, dim + 1)))
        for m in m_values:
            marked = rng.sample(range(dim), m)
            rows = np.zeros(dim, dtype=np.uint8)
            rows[marked] = 1
            oracle = synthesize_phase_oracle(TruthTable(n, rows))
            state = simulate(Circuit(n, tuple(Gate.h(q) for q in range(n))))
            theta = math.asin(math.sqrt(m / dim))
            for k in range(7):
                mass = float(probabilities(state)[marked].sum())
                assert abs(mass - math.sin((2 * k + 1) * theta) ** 2) <= 1e-9, (
                    f"n={n} m={m} k={k}"
                )
                state = simulate(diffusion, initial=simulate(oracle, initial=state))
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 2 took {elapsed:.1f}s (budget 60s)"
    _report("criterion 2 (Grover analytic law, n<=8)")


def test_c03_demo_scenarios_ideal():
    """The 3-qubit demo dataset: two-match, corrected one-match, control."""
    dataset = list(DEMO_DATASET)

    two = compile_pipeline(dataset, [parse_term("01*")])
    assert (two.marked_count, two.iterations) == (2, 1)
    probs = probabilities(simulate(build_grover_circuit(two.oracle, two.iterations)))
    assert abs(probs[0b010] - 0.5) <= 1e-9
    assert abs(probs[0b011] - 0.5) <= 1e-9
    others = [probs[x] for x in range(8) if x not in (0b010, 0b011)]
    assert max(others) <= 1e-18

    one = compile_pipeline(dataset, [parse_term("00*")])
    assert (one.marked_count, one.iterations) == (1, 2)
    probs = probabilities(simulate(build_grover_circuit(one.oracle, one.iterations)))
    assert abs(probs[0b000] - 0.9453) <= 1e-4
    assert abs(probs[0b000] - math.sin(5 * math.asin(math.sqrt(1 / 8))) ** 2) <= 1e-9

    control = compile_pipeline(dataset, [parse_term("10*")])
    assert (control.marked_count, control.iterations) == (0, 1)
    probs = probabilities(simulate(build_grover_circuit(control.oracle, control.iterations)))
    assert np.max(np.abs(probs - 0.125)) <= 1e-12

    _report("criterion 3 (3-qubit scenario probabilities: 0.5/0.5, 0.9453, uniform)")


def test_c04_oracle_matches_classical_matcher():
    """1000 randomized instances: marked basis states == encoded classical matches."""
    start = time.perf_counter()
    rng = random.Random(31337)
    for _ in range(1000):
        dataset, terms, codec = random_instance(rng, max_chars=5)
        assert oracle_marked_bits(dataset, terms, codec) == classical_marked_bits(
            dataset, terms, codec
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 4 took {elapsed:.1f}s (budget 60s)"
    _report("criterion 4 (classical-matcher equivalence, 1000 instances)")


def test_c05_substring_placement_count():
    """Placements == entity_chars - term_chars + 1, 1000 randomized cases."""
    rng = random.Random(777)
    for _ in range(1000):
        alphabet = list("abcd"[: rng.randint(2, 4)])
        codec = explicit_codec(alphabet)
        term_chars = rng.randint(1, 6)
        entity_chars = term_chars + rng.randint(0, 6)
        term = "".join(rng.choice(alphabet) for _ in range(term_chars))
        expr = encode_substring(codec, term, entity_chars)
        placements = len(expr.children) if isinstance(expr, Or) else 1
        assert placements == entity_chars - term_chars + 1
    _report("criterion 5 (substring placement count, 1000 cases)")


def test_c06_encode_decode_round_trip():
    """decode(encode(s)) == s for 1000 random strings."""
    rng = random.Random(90210)
    for _ in range(1000):
        alphabet = list("abcd"[: rng.randint(2, 4)])
        codec = explicit_codec(alphabet)
        s = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
        assert decode_entity(codec, encode_string(codec, s)) == s
    _report("criterion 6 (encoding round trip, 1000 strings)")


def test_c07_norm_preserved_by_every_gate():
    """Norm stays within 1e-12 of 1 after each noiseless gate application."""
    rng = random.Random(424242)
    for n in (1, 2, 4, 6, 8):
        oracle = synthesize_phase_oracle(random_table(rng, n))
        circuit = build_grover_circuit(oracle, 3)
        state = init_state(n)
        for gate in circuit.gates:
            state = apply_gate(state, gate)
            assert abs(float(np.linalg.norm(state.amplitudes)) - 1.0) <= 1e-12
    _report("criterion 7 (norm preservation per gate, <=1e-12)")


def test_c08_noisy_trials_consistency():
    """Six noisy trials at seed 7, 1024 shots, default noise model."""
    start = time.perf_counter()
    config = RunConfig(reverse=False)  # raw bit order; defaults otherwise
    results = {}
    for si, scenario in enumerate(bundled_scenarios()):
        results[scenario.name] = run_scenario(
            scenario, config, scenario_index=si, noisy=True
        )

    two = results["two-match"]
    assert two.report.consistent
    assert set(two.report.states) == {"010", "011"}
    assert two.verdict is Verdict.PASS

    one = results["one-match"]
    assert one.report.consistent
    assert set(one.report.states) == {"000"}
    assert one.verdict is Verdict.PASS

    control = results["no-match"]
    assert not control.report.consistent
    assert control.verdict is Verdict.CONTROL_PASS

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"criterion 8 took {elapsed:.1f}s (budget 30s)"
    _report("criterion 8 (noisy trial consistency at seed 7)")


def test_c09_byte_identical_artifacts(tmp_path):
    """Repeating any command with identical config gives byte-identical files."""
    data_file = tmp_path / "data.txt"
    data_file.write_text("".join(s + "\n" for s in DEMO_DATASET), encoding="utf-8")
    dirs = [tmp_path / "run1", tmp_path / "run2"]
    for d in dirs:
        assert main(["experiment", "--out", str(d)]) == 0
        assert main(["search", "--data", str(data_file), "--term", "01*",
                     "--out", str(d)]) == 0
        assert main(["compile", "--data", str(data_file), "--term", "*1*",
                     "--emit-qasm", "--out", str(d)]) == 0
        assert main(["encode", "--data", str(data_file), "--out", str(d)]) == 0
    files = sorted(p.name for p in dirs[0].iterdir())
    assert files == sorted(p.name for p in dirs[1].iterdir())
    for name in files:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name
    # and the experiment verdicts themselves are the documented ones
    report = json.loads((dirs[0] / "experiment.json").read_text())
    assert report["scenarios"]["two-match"]["verdict_vs_classical"] == "PASS"
    assert report["scenarios"]["no-match"]["verdict_vs_classical"] == "CONTROL_PASS"
    _report("criterion 9 (byte-identical artifacts per config)")
