"""Command line interface: encode, compile, search, verify, experiment.

Exit codes: 0 success, 1 verification failure, 2 input or usage error.
Identical configuration (including the seed) produces byte-identical
artifacts. Per-trial randomness derives from the entropy triple
(seed, scenario index, trial index).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

from .analysis import (
    EXPERIMENT_CSV_HEADER,
    TrialReport,
    Verdict,
    consistency,
    decode_results,
    experiment_csv_rows,
    report_to_json_dict,
    reverse_histogram,
    verify_against_classical,
)
from .boolexpr import TruthTable, render, truth_table
from .encoding import (
    AlphabetCodec,
    OracleBuild,
    WildcardTerm,
    build_codec,
    classical_match,
    compile_oracle,
    encode_dataset,
    parse_term,
)
from .errors import InputError
from .scenarios import Scenario, bundled_scenarios
from .simulator import (
    NoiseModel,
    complexes_to_json_text,
    floats_to_json_text,
    grover_state,
    measure,
    probabilities,
    run_noisy,
    simulate,  # noqa: F401  (unused here; bench/worker.py traces cli.simulate)
)
from .synthesis import (
    Circuit,
    build_grover_circuit,  # noqa: F401  (unused here; bench/worker.py traces it)
    check_grover_size,
    circuit_to_json_chunks,
    circuit_to_json_dict,  # noqa: F401  (unused here; bench/worker.py traces it)
    circuit_to_qasm,  # noqa: F401  (unused here; bench/worker.py traces it)
    circuit_to_qasm_chunks,
    gate_stats,
    grover_blocks,
    iteration_count,
    oracle_gate_count,
    synthesize_phase_oracle,
)

__all__ = [
    "DEFAULT_NOISE",
    "DEFAULT_SHOTS",
    "DEFAULT_TRIALS",
    "DEFAULT_SEED",
    "RunConfig",
    "CompiledPipeline",
    "ScenarioResult",
    "compile_pipeline",
    "run_scenario",
    "main",
]

DEFAULT_NOISE = NoiseModel(p1=0.001, p2=0.01, readout=0.02)
DEFAULT_SHOTS = 1024
DEFAULT_TRIALS = 6
DEFAULT_SEED = 7
# Amplitude updates one noisy scenario may take (trials × shots × 2^n × gates),
# the budget ``grover_state`` has: it admits every bundled scenario and a
# 10-qubit search of about 2.6e10 updates.
_MAX_NOISY_UPDATES = 1 << 36


@dataclass
class RunConfig:
    """One fully-resolved command invocation."""

    data: Path | None = None
    terms: tuple[str, ...] = ()
    codec: Path | None = None
    shots: int = DEFAULT_SHOTS
    trials: int = DEFAULT_TRIALS
    seed: int = DEFAULT_SEED
    noise: NoiseModel = DEFAULT_NOISE
    iterations: int | None = None
    reverse: bool = True
    emit_qasm: bool = False
    out: Path = field(default_factory=lambda: Path("gw-out"))
    corrupt_oracle: bool = False

    def __post_init__(self):
        if self.shots < 1:
            raise InputError(f"shots must be >= 1, got {self.shots}")
        if self.trials < 1:
            raise InputError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise InputError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class CompiledPipeline:
    """Oracle expression, truth table and Grover sizes for one scenario.

    The phase oracle is built on first access to ``oracle``, for the paths
    that need gates (artifacts, noise), which run it as the blocks of
    ``grover_blocks``; the noiseless paths run ``grover_state`` on ``table``
    and ``iterations`` instead. ``gate_count`` is the unrolled Grover
    circuit's gate count.
    """

    build: OracleBuild
    table: TruthTable
    marked_count: int
    iterations: int
    gate_count: int

    @cached_property
    def oracle(self) -> Circuit:
        return synthesize_phase_oracle(self.table)


def compile_pipeline(
    dataset: Sequence[str],
    terms: Sequence[WildcardTerm],
    codec: AlphabetCodec | None = None,
    iterations_override: int | None = None,
    corrupt_oracle: bool = False,
) -> CompiledPipeline:
    """Dataset + terms -> oracle expression -> truth table; gates come later.

    The round count is checked against the unrolled-size cap here, from the
    oracle's gate count (its ANF monomial count), so every path refuses it
    before any work, whether or not it builds the gates.

    ``corrupt_oracle`` flips one truth-table row before synthesis; it exists
    so the verification failure path can be exercised end to end.
    """
    build = compile_oracle(dataset, terms, codec)
    table = truth_table(build.expression, build.var_count)
    if corrupt_oracle:
        rows = table.rows.copy()
        rows[0] ^= 1
        table = TruthTable(build.var_count, rows)
    m = table.marked_count
    iters = (
        iterations_override
        if iterations_override is not None
        else iteration_count(build.var_count, m)
    )
    gates = check_grover_size(build.var_count, oracle_gate_count(table), iters)
    return CompiledPipeline(build, table, m, iters, gates)


@dataclass(frozen=True)
class ScenarioResult:
    name: str
    expected: tuple[str, ...]
    marked_count: int
    iterations: int
    report: TrialReport
    verdict: Verdict
    decoded: tuple[str, ...]
    codec: AlphabetCodec


def run_scenario(
    scenario: Scenario,
    config: RunConfig,
    scenario_index: int = 0,
    noisy: bool = True,
    codec: AlphabetCodec | None = None,
) -> ScenarioResult:
    """Run all trials of one scenario and judge them against the classical matcher.

    A noisy run is refused before any gate is built when its trials × shots ×
    2^n × gates amplitude updates exceed 2^36.
    """
    terms = scenario.terms()
    pipeline = compile_pipeline(
        scenario.dataset, terms, codec, config.iterations, config.corrupt_oracle
    )
    expected = classical_match(scenario.dataset, terms)
    k = max(1, len(expected))
    if noisy:
        n = pipeline.build.var_count
        updates = config.trials * config.shots * (pipeline.gate_count << n)
        if updates > _MAX_NOISY_UPDATES:
            raise InputError(
                f"{config.trials} noisy trials of {config.shots} shots over {pipeline.gate_count}"
                f" gates on {n} qubits would take {updates} amplitude updates;"
                f" at most {_MAX_NOISY_UPDATES} are supported"
            )
        circuit = grover_blocks(pipeline.oracle, pipeline.iterations)
        hists = [
            run_noisy(circuit, config.noise, config.shots, seed=[config.seed, scenario_index, t])
            for t in range(config.trials)
        ]
    else:
        state = grover_state(pipeline.table, pipeline.iterations)
        hists = [
            measure(state, config.shots, seed=[config.seed, scenario_index, t])
            for t in range(config.trials)
        ]
    if config.reverse:
        hists = [reverse_histogram(h) for h in hists]
    report = consistency(hists, k)
    codec = pipeline.build.codec
    decoded: tuple[str, ...] = ()
    try:
        if report.consistent:
            decoded = tuple(decode_results(report.states, codec, config.reverse))
    except InputError:
        verdict = Verdict.FAIL  # undecodable agreed states
    else:
        verdict = verify_against_classical(report, expected, codec, decoded=decoded)
    return ScenarioResult(
        scenario.name, tuple(sorted(expected)), pipeline.marked_count,
        pipeline.iterations, report, verdict, decoded, codec,
    )


# --- file helpers ---------------------------------------------------------------

def _load_dataset(path: Path | None) -> list[str]:
    if path is None:
        raise InputError("--data is required for this command")
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read dataset file: {exc}") from None
    strings = [line for line in text.splitlines() if line.strip()]
    if not strings:
        raise InputError(f"dataset file {path} has no entries")
    return strings


def _load_codec(path: Path, dataset: Sequence[str]) -> AlphabetCodec:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read codec file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"codec file is not valid JSON: {exc}") from None
    codec = AlphabetCodec.from_json_dict(data)
    missing = sorted({ch for s in dataset for ch in s} - set(codec.symbols))
    if missing:
        raise InputError(f"dataset characters missing from codec file: {missing}")
    return codec


def _resolve_codec(config: RunConfig, dataset: Sequence[str]) -> AlphabetCodec:
    if config.codec is not None:
        return _load_codec(config.codec, dataset)
    return build_codec(dataset)


def _write_chunks(path: Path, chunks: Iterable[str]) -> None:
    """Write ``chunks`` in order, verbatim (no newline translation), replacing
    ``path`` atomically; the whole text is never joined."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="") as f:
        f.writelines(chunks)
    os.replace(tmp, path)


def _write_text(path: Path, text: str) -> None:
    _write_chunks(path, (text,))


def _write_json(path: Path, obj) -> None:
    _write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _write_csv(path: Path, rows: list[list[str]]) -> None:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    _write_text(path, buf.getvalue())


def _parse_terms(config: RunConfig) -> tuple[WildcardTerm, ...]:
    if not config.terms:
        raise InputError("at least one --term is required for this command")
    return tuple(parse_term(t) for t in config.terms)


def _custom_scenario(config: RunConfig) -> Scenario:
    dataset = _load_dataset(config.data)
    if not config.terms:
        raise InputError("at least one --term is required for this command")
    return Scenario("custom", tuple(dataset), tuple(config.terms))


# --- commands -------------------------------------------------------------------

def cmd_encode(config: RunConfig) -> int:
    dataset = _load_dataset(config.data)
    codec = _resolve_codec(config, dataset)
    entity_set = encode_dataset(codec, dataset)
    print(f"codec width: {codec.width}")
    for ch in codec.symbols:
        print(f"  {ch!r} -> {codec.code[ch]}")
    print(f"entities ({len(entity_set.entities)}, {entity_set.entity_bit_length} bits each):")
    for e in entity_set.entities:
        print(f"  {e.bits}")
    if entity_set.duplicates_dropped:
        print("note: duplicate dataset strings were dropped")
    _write_json(config.out / "codec.json", codec.to_json_dict())
    _write_text(
        config.out / "entities.txt",
        "".join(e.bits + "\n" for e in entity_set.entities),
    )
    return 0


def cmd_compile(config: RunConfig) -> int:
    dataset = _load_dataset(config.data)
    codec = _resolve_codec(config, dataset)
    pipeline = compile_pipeline(
        dataset, _parse_terms(config), codec, config.iterations, config.corrupt_oracle
    )
    circuit = grover_blocks(pipeline.oracle, pipeline.iterations)
    stats = gate_stats(circuit)
    print(f"qubits: {pipeline.build.var_count}")
    print(f"marked states (m): {pipeline.marked_count}")
    print(f"iterations: {pipeline.iterations}")
    print(f"gates: {sum(stats.counts.values())} (depth {stats.depth})")
    if pipeline.marked_count == 0:
        print(
            "warning: no loaded string matches the search terms;"
            " the output distribution stays uniform (control run)"
        )
    _write_text(config.out / "oracle_expression.txt", render(pipeline.build.expression) + "\n")
    _write_json(
        config.out / "summary.json",
        {
            "qubits": pipeline.build.var_count,
            "marked_count": pipeline.marked_count,
            "iterations": pipeline.iterations,
            "control": pipeline.marked_count == 0,
        },
    )
    _write_chunks(config.out / "circuit.json", circuit_to_json_chunks(circuit))
    _write_json(
        config.out / "gate_stats.json",
        {
            "counts": stats.counts,
            "mcz_arities": {str(k): v for k, v in sorted(stats.mcz_arities.items())},
            "depth": stats.depth,
        },
    )
    if config.emit_qasm:
        _write_chunks(config.out / "circuit.qasm", circuit_to_qasm_chunks(circuit))
    return 0


def cmd_search(config: RunConfig) -> int:
    dataset = _load_dataset(config.data)
    codec = _resolve_codec(config, dataset)
    pipeline = compile_pipeline(
        dataset, _parse_terms(config), codec, config.iterations, config.corrupt_oracle
    )
    state = grover_state(pipeline.table, pipeline.iterations)
    probs = probabilities(state)
    n = pipeline.build.var_count
    matches = []
    for idx in pipeline.table.marked_states():
        bits = format(idx, f"0{n}b")
        matches.append(
            {
                "bits": bits,
                "string": decode_results([bits], codec)[0],
                "probability": float(probs[idx]),
            }
        )
    matches.sort(key=lambda m: (-m["probability"], m["bits"]))
    if matches:
        print(f"matches ({len(matches)}):")
        for m in matches:
            print(f"  {m['string']}  p={m['probability']:.6f}")
    else:
        print(
            "no matches; the output distribution is uniform"
            f" (each state p={1 / (1 << n):.6f})"
        )
    _write_json(
        config.out / "search_result.json",
        {
            "qubits": n,
            "marked_count": pipeline.marked_count,
            "iterations": pipeline.iterations,
            "matches": matches,
            "uniform": not matches,
        },
    )
    _write_text(config.out / "statevector.json", complexes_to_json_text(state.amplitudes))
    _write_text(config.out / "probabilities.json", floats_to_json_text(probs))
    return 0


def _scenarios_and_codec(
    config: RunConfig, include_substring_demo: bool
) -> tuple[list[Scenario], AlphabetCodec | None]:
    """The custom scenario and its codec, or the bundled scenarios and None."""
    if config.data is None:
        return list(bundled_scenarios(include_substring_demo)), None
    scenario = _custom_scenario(config)
    return [scenario], _resolve_codec(config, scenario.dataset)


def cmd_verify(config: RunConfig) -> int:
    scenarios, codec = _scenarios_and_codec(config, include_substring_demo=True)
    ok = True
    for si, sc in enumerate(scenarios):
        result = run_scenario(sc, config, scenario_index=si, noisy=False, codec=codec)
        ok = ok and result.verdict in (Verdict.PASS, Verdict.CONTROL_PASS)
        found = ", ".join(result.decoded) if result.decoded else "-"
        print(
            f"{result.name}: {result.verdict.value}"
            f" (expected: {', '.join(result.expected) or '-'}; found: {found})"
        )
    print("all scenarios passed" if ok else "at least one scenario FAILED")
    return 0 if ok else 1


def cmd_experiment(config: RunConfig) -> int:
    if config.trials < 2:
        raise InputError("consistency analysis needs at least 2 trials")
    scenarios, codec = _scenarios_and_codec(config, include_substring_demo=False)
    rows: list[list[str]] = [list(EXPERIMENT_CSV_HEADER)]
    scenario_reports: dict[str, dict] = {}
    ok = True
    for si, sc in enumerate(scenarios):
        result = run_scenario(sc, config, scenario_index=si, noisy=True, codec=codec)
        ok = ok and result.verdict in (Verdict.PASS, Verdict.CONTROL_PASS)
        rows.extend(experiment_csv_rows(sc.name, result.report))
        scenario_reports[sc.name] = {
            "expected": list(result.expected),
            "marked_count": result.marked_count,
            "iterations": result.iterations,
            "verdict_vs_classical": result.verdict.value,
            # run_scenario already decoded the agreed states once; reuse them
            "report": {
                **report_to_json_dict(result.report),
                "decoded": list(result.decoded),
            },
        }
        state = (
            "consistent: " + ", ".join(result.report.states)
            if result.report.consistent
            else "inconsistent"
        )
        print(f"scenario {sc.name}: {state}; verdict {result.verdict.value}")
    _write_csv(config.out / "experiment.csv", rows)
    _write_json(
        config.out / "experiment.json",
        {
            "config": {
                "shots": config.shots,
                "trials": config.trials,
                "seed": config.seed,
                "noise": {
                    "p1": config.noise.p1,
                    "p2": config.noise.p2,
                    "readout": config.noise.readout,
                },
                "reversed_bit_order": config.reverse,
            },
            "scenarios": scenario_reports,
        },
    )
    return 0 if ok else 1


# --- argument parsing -------------------------------------------------------------

def _default_seed() -> int:
    raw = os.environ.get("GW_SEED")
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"GW_SEED must be an integer, got {raw!r}") from None


def _parse_noise(text: str) -> NoiseModel:
    parts = text.split(",")
    if len(parts) != 3:
        raise InputError(f"--noise expects 'p1,p2,readout', got {text!r}")
    try:
        p1, p2, readout = (float(p) for p in parts)
    except ValueError:
        raise InputError(f"--noise expects three floats, got {text!r}") from None
    return NoiseModel(p1=p1, p2=p2, readout=readout)


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ``InputError``, so they exit 2 with one ``error:``
    line like any other bad input; subparsers inherit the class."""

    def error(self, message: str):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="groverwild",
        description=(
            "Compile wildcard string searches into Grover phase-oracle circuits,"
            " simulate them, and verify the outcomes classically."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "encode": (cmd_encode, "print the codec and encoded entities for a dataset"),
        "compile": (cmd_compile, "emit the oracle expression, circuit JSON and gate stats"),
        "search": (cmd_search, "run the full noiseless pipeline and report matches"),
        "verify": (cmd_verify, "compare the quantum pipeline against the classical matcher"),
        "experiment": (cmd_experiment, "run multi-trial noisy experiments with consistency analysis"),
    }
    for name, (func, help_text) in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--data", type=Path, help="dataset file, one string per line")
        p.add_argument(
            "--term",
            action="append",
            default=[],
            metavar="TERM",
            help="search term: 'ab*' prefix, '*ab' suffix, '*ab*' substring, 'ab' exact (repeatable)",
        )
        p.add_argument("--codec", type=Path, help="codec JSON file")
        p.add_argument("--shots", type=int, default=DEFAULT_SHOTS)
        p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
        p.add_argument("--seed", type=int, default=None, help=f"default {DEFAULT_SEED}, or env GW_SEED")
        p.add_argument("--noise", default=None, metavar="P1,P2,READOUT",
                       help=f"default {DEFAULT_NOISE.p1},{DEFAULT_NOISE.p2},{DEFAULT_NOISE.readout}")
        p.add_argument("--iterations", type=int, default=None, help="override the Grover round count")
        p.add_argument("--no-reverse", action="store_true",
                       help="report bit strings in encoding order instead of reversed")
        p.add_argument("--emit-qasm", action="store_true")
        p.add_argument("--out", type=Path, default=Path("gw-out"), help="artifact directory")
        p.add_argument("--corrupt-oracle", action="store_true", help=argparse.SUPPRESS)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        data=args.data,
        terms=tuple(args.term),
        codec=args.codec,
        shots=args.shots,
        trials=args.trials,
        seed=args.seed if args.seed is not None else _default_seed(),
        noise=_parse_noise(args.noise) if args.noise is not None else DEFAULT_NOISE,
        iterations=args.iterations,
        reverse=not args.no_reverse,
        emit_qasm=args.emit_qasm,
        out=args.out,
        corrupt_oracle=args.corrupt_oracle,
    )


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(_config_from_args(args))
    except SystemExit as exc:  # --help, after printing its text
        return int(exc.code) if exc.code is not None else 0
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
