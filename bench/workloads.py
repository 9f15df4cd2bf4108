"""Seeded inputs for the four workloads, and the check of every op's outputs.

``plan(name, seed, workdir)`` writes every dataset and codec file the
workload needs before anything is timed, and returns the ops as CLI argument
lists together with what each op must produce. The expectations come from
``reference`` alone; no stored copy of the program's output is used.

A round is the block of ops a run repeats whole: the runner only stops at a
round boundary, so every run attempts the same mix of ops and the share of
known-fault ops in ``verify`` is the same in every run.
"""

from __future__ import annotations

import csv
import json
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import reference as ref

# The noiseless verify and the experiment use the program's default sampling.
SHOTS = 1024
TRIALS = 6


@dataclass(frozen=True)
class Profile:
    """Input sizes. FULL is what the benchmark measures; TINY is for the self-test."""

    # search / compile: 4 letters, search_chars characters (n = 2 * search_chars).
    search_chars: int = 7
    search_strings: tuple[int, int] = (100, 200)
    search_matched: int = 3
    # Matched queries are redrawn until the predicted Grover gate count and
    # round count land in these bands, so that every seed gives ops of about
    # the same cost and the run-to-run spread measures the program, not the
    # draw. Gates set the per-gate overhead, rounds the share of the costly
    # full-width H and X layers of the diffusion.
    gate_band: tuple[int, int] = (50_000, 58_000)
    round_band: tuple[int, int] = (20, 40)
    experiment_shots: int = SHOTS
    verify_instances: int = 300


FULL = Profile()
TINY = Profile(
    search_chars=4, search_strings=(20, 40), search_matched=2,
    gate_band=(1, 10**9), round_band=(1, 100), experiment_shots=256, verify_instances=24,
)

SEARCH_LETTERS = "abcd"
# No-match control queries per search/compile round, after the matched ones.
SEARCH_CONTROLS = 1

# experiment: the paper's three bundled scenarios, restated here so the check
# does not read them from the program.
EXPERIMENT_DATASET = ("000", "010", "011", "111")
EXPERIMENT_SCENARIOS = {"no-match": "10*", "one-match": "00*", "two-match": "01*"}
EXPERIMENT_POOL = 64

# verify: 2-4 letters, 2-5 characters (n <= 10), 1-3 terms.
VERIFY_LETTERS = (2, 3, 4)
VERIFY_CHARS = (2, 3, 4, 5)
# A seeded instance is kept only when the law puts the verdict beyond doubt
# at SHOTS x TRIALS samples: marked mass at least this far above the
# 2m/2^n consistency bar, and each marked state this many standard
# deviations above an unmarked one.
VERIFY_MASS_MARGIN = 0.05
VERIFY_SEPARATION_SIGMAS = 6.0
# Instances whose marked mass cannot clear the 2m/2^n bar: every noiseless
# verify of them ends FAIL (exit 1). They do not depend on the seed and run
# in every round, so they are the only failed ops and a fixed share of them.
# The first is the example in ROADMAP item 4; the last has m < 2^n/2.
KNOWN_FAULTS = (
    (("0", "1"), ("0*",), {"0": "0", "1": "1"}),
    (("aa", "ab", "ba", "bb"), ("a*",), {"a": "0", "b": "1"}),
    (("ab", "ba"), ("ab", "ba"), {"a": "0", "b": "1"}),
    (("aa", "ab", "ba"), ("*a*",), {"a": "0", "b": "1"}),
    (("aab", "aba", "abb", "baa", "bab", "bba", "bbb"), ("*b*",), {"a": "0", "b": "1"}),
    (("aa", "ab", "ac", "ad", "ba", "bb", "bc"), ("*a*", "b*"),
     {"a": "00", "b": "01", "c": "10", "d": "11"}),
)

_VERIFY_LINE = re.compile(r"^custom: (\w+) \(expected: (.*); found: (.*)\)$", re.M)


@dataclass
class Op:
    argv: list[str]
    expect: dict


@dataclass
class Plan:
    ops: list[Op]
    round_size: int
    inputs: list[str] = field(default_factory=list)
    sizes: dict = field(default_factory=dict)


class CheckFailed(Exception):
    """An op's outputs disagree with the reference."""


def plan(
    name: str, seed: int, workdir: Path, profile: Profile = FULL, corrupt: bool = False
) -> Plan:
    """Write the workload's input files under ``workdir`` and return its ops.

    ``corrupt`` adds the program's hidden ``--corrupt-oracle`` flag to every
    op, so the self-test can show that the checks catch a wrong oracle.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    p = _PLANNERS[name](seed, workdir, profile)
    for op in p.ops:
        op.argv += ["--out", str(workdir / "out")]
        if corrupt:
            op.argv.append("--corrupt-oracle")
    return p


def check(name: str, op: Op, rc: int, stdout: str, out: Path) -> str:
    """Return "ok" or "known_fault"; raise CheckFailed on any other outcome."""
    try:
        return _CHECKS[name](op.expect, rc, stdout, out)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise CheckFailed(f"malformed output: {exc!r}") from None


# --- shared input helpers ---------------------------------------------------------

def _code(rng: random.Random, letters: str) -> dict[str, str]:
    width = max(1, (len(letters) - 1).bit_length())
    codes = rng.sample(range(1 << width), len(letters))
    return {ch: format(c, f"0{width}b") for ch, c in zip(letters, codes)}


def _write_query(workdir: Path, tag: str, strings, code) -> tuple[str, str]:
    data = workdir / f"{tag}.txt"
    data.write_text("".join(s + "\n" for s in strings), encoding="utf-8")
    codec = workdir / f"{tag}.codec.json"
    codec.write_text(json.dumps({"width": len(next(iter(code.values()))), "code": code}))
    return str(data), str(codec)


def _random_term(rng: random.Random, letters: str, chars: int, strings) -> str:
    kind = rng.choice(("prefix", "suffix", "substring", "exact"))
    if kind == "exact":
        if rng.random() < 0.5:
            return rng.choice(strings)
        return "".join(rng.choice(letters) for _ in range(chars))
    text = "".join(rng.choice(letters) for _ in range(rng.randint(1, chars)))
    return {"prefix": text + "*", "suffix": "*" + text, "substring": "*" + text + "*"}[kind]


def _expectation(strings, terms, code) -> dict:
    n = len(strings[0]) * len(next(iter(code.values())))
    matched = ref.match(strings, terms)
    m = len(matched)
    k = ref.grover_rounds(n, m)
    mono = ref.anf_monomials(ref.truth_rows(code, matched, n), n)
    return {
        "n": n, "m": m, "k": k, "matched": sorted(matched), "code": code,
        "monomials": sorted(sorted(x) for x in mono),
        "gates": ref.grover_gate_count(n, k, len(mono)),
    }


# --- search and compile -------------------------------------------------------------

def _plan_pool(command: list[str], seed: int, workdir: Path, profile: Profile) -> Plan:
    """The query pool search and compile share: in-band matched queries, then controls.

    The pool depends on the seed only, so both workloads see the same inputs.
    """
    rng = random.Random(f"search-pool:{seed}")
    letters, chars = SEARCH_LETTERS, profile.search_chars
    n = 2 * chars  # four letters, two bits each
    ops, inputs, drawn = [], [], 0
    while len(ops) < profile.search_matched + SEARCH_CONTROLS:
        want_match = len(ops) < profile.search_matched
        code = _code(rng, letters)
        target = rng.randint(*profile.search_strings)
        strings = set()
        while len(strings) < target:
            strings.add("".join(rng.choice(letters) for _ in range(chars)))
        strings = sorted(strings)
        terms = [
            _random_term(rng, letters, chars, strings)
            for _ in range(rng.randint(1, 3))
        ]
        drawn += 1
        m = len(ref.match(strings, terms))
        if want_match:
            k = ref.grover_rounds(n, m) if m else 0
            if not profile.round_band[0] <= k <= profile.round_band[1]:
                continue
        elif m:
            continue
        e = _expectation(strings, terms, code)
        if want_match and not profile.gate_band[0] <= e["gates"] <= profile.gate_band[1]:
            continue
        data, codec = _write_query(workdir, f"q{len(ops)}", strings, code)
        inputs += [data, codec]
        argv = command + ["--data", data, "--codec", codec] + [f"--term={t}" for t in terms]
        ops.append(Op(argv, e))
    sizes = {
        "qubits": n,
        "m": [op.expect["m"] for op in ops],
        "iterations": [op.expect["k"] for op in ops],
        "gates": [op.expect["gates"] for op in ops],
        "queries_drawn": drawn,
    }
    return Plan(ops, len(ops), inputs, sizes)


def _read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"cannot read {path.name}: {exc}") from None


def _expect_equal(what: str, got, want) -> None:
    if got != want:
        raise CheckFailed(f"{what}: got {got!r}, expected {want!r}")


def _check_exit(rc: int) -> None:
    if rc != 0:
        raise CheckFailed(f"exit code {rc}")


def _check_search(e: dict, rc: int, stdout: str, out: Path) -> str:
    _check_exit(rc)
    result = _read_json(out / "search_result.json")
    n, m = e["n"], e["m"]
    _expect_equal("qubits", result["qubits"], n)
    _expect_equal("marked_count", result["marked_count"], m)
    _expect_equal("iterations", result["iterations"], e["k"])
    matches = result["matches"]
    _expect_equal("match set", sorted(x["string"] for x in matches), e["matched"])
    for x in matches:
        _expect_equal(f"bits of {x['string']}", x["bits"], ref.encode(e["code"], x["string"]))
    if m:
        each = ref.grover_law(n, m) / m
        worst = max(abs(x["probability"] - each) for x in matches)
        if worst > 1e-9:
            raise CheckFailed(f"match probability off the law by {worst:.3g}")
    else:
        _expect_equal("uniform flag", result["uniform"], True)
        probs = _read_json(out / "probabilities.json")
        _expect_equal("probability count", len(probs), 1 << n)
        worst = max(abs(p - 1.0 / (1 << n)) for p in probs)
        if worst > 1e-9:
            raise CheckFailed(f"control is not uniform: off by {worst:.3g}")
    return "ok"


def _check_compile(e: dict, rc: int, stdout: str, out: Path) -> str:
    _check_exit(rc)
    n = e["n"]
    summary = _read_json(out / "summary.json")
    _expect_equal("summary", summary, {
        "qubits": n, "marked_count": e["m"], "iterations": e["k"], "control": e["m"] == 0,
    })
    circuit = _read_json(out / "circuit.json")
    gates = circuit["gates"]
    _expect_equal("circuit qubits", circuit["qubits"], n)
    _expect_equal("gate count", len(gates), e["gates"])
    _expect_equal("H layer", gates[:n], [{"g": "h", "q": [q]} for q in range(n)])
    block = gates[n : n + len(e["monomials"])]
    _expect_equal(
        "oracle monomials",
        sorted(sorted(g.get("q", [])) for g in block),
        e["monomials"],
    )
    stats = _read_json(out / "gate_stats.json")
    _expect_equal("gate_stats counts", stats["counts"], dict(Counter(g["g"] for g in gates)))
    arities = Counter(len(g["q"]) for g in gates if g["g"] == "mcz")
    _expect_equal("gate_stats mcz_arities", stats["mcz_arities"],
                  {str(a): c for a, c in sorted(arities.items())})
    _expect_equal("gate_stats depth", stats["depth"], ref.greedy_depth(gates))
    try:
        qasm = (out / "circuit.qasm").read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise CheckFailed(f"cannot read circuit.qasm: {exc}") from None
    _expect_equal("QASM header", qasm[0], "OPENQASM 2.0;")
    _expect_equal("QASM gate lines", len(qasm) - qasm.index(f"qreg q[{n}];") - 1, len(gates))
    return "ok"


# --- experiment ---------------------------------------------------------------------

def _plan_experiment(seed: int, workdir: Path, profile: Profile) -> Plan:
    rng = random.Random(f"experiment:{seed}")
    expect = {
        name: sorted(ref.match(EXPERIMENT_DATASET, (term,)))
        for name, term in EXPERIMENT_SCENARIOS.items()
    }
    ops = []
    for _ in range(EXPERIMENT_POOL):
        op_seed = rng.randrange(1 << 31)
        ops.append(Op(
            ["experiment", "--seed", str(op_seed), "--shots", str(profile.experiment_shots)],
            {"seed": op_seed, "shots": profile.experiment_shots, "sets": expect},
        ))
    sizes = {
        "qubits": len(EXPERIMENT_DATASET[0]),
        "m": [len(v) for v in expect.values()],
        "shots": profile.experiment_shots,
        "trials": TRIALS,
        "trajectories_per_op": profile.experiment_shots * TRIALS * len(expect),
    }
    return Plan(ops, 1, [], sizes)


def _check_experiment(e: dict, rc: int, stdout: str, out: Path) -> str:
    _check_exit(rc)
    result = _read_json(out / "experiment.json")
    _expect_equal("seed", result["config"]["seed"], e["seed"])
    _expect_equal("shots", result["config"]["shots"], e["shots"])
    _expect_equal("trials", result["config"]["trials"], TRIALS)
    _expect_equal("scenarios", sorted(result["scenarios"]), sorted(e["sets"]))
    for name, want in e["sets"].items():
        sc = result["scenarios"][name]
        _expect_equal(f"{name} expected", sc["expected"], want)
        verdict = "PASS" if want else "CONTROL_PASS"
        _expect_equal(f"{name} verdict", sc["verdict_vs_classical"], verdict)
        if want:
            _expect_equal(f"{name} decoded", sorted(sc["report"]["decoded"]), want)
    try:
        with open(out / "experiment.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise CheckFailed(f"cannot read experiment.csv: {exc}") from None
    _expect_equal("CSV rows", len(rows) - 1, len(e["sets"]) * TRIALS)
    return "ok"


# --- verify -------------------------------------------------------------------------

def _verify_outcome(n: int, m: int) -> str:
    """"pass", "fail" or "doubtful" for a noiseless verify, judged by the law alone."""
    if m == 0:
        return "pass"
    dim = 1 << n
    mass = ref.grover_law(n, m)
    bar = 2.0 * m / dim
    if mass <= bar - VERIFY_MASS_MARGIN:
        return "fail"
    if mass < bar + VERIFY_MASS_MARGIN:
        return "doubtful"
    hit = SHOTS * mass / m
    miss = SHOTS * (1.0 - mass) / (dim - m) if dim > m else 0.0
    if hit - miss < VERIFY_SEPARATION_SIGMAS * (hit + miss) ** 0.5:
        return "doubtful"
    return "pass"


def _plan_verify(seed: int, workdir: Path, profile: Profile) -> Plan:
    rng = random.Random(f"verify:{seed}")
    instances, excluded = [], Counter()
    # Every (alphabet size, length) class gets the same number of instances,
    # so the mix of small and large n, and with it the op cost, is the same
    # in every seed.
    classes = [(a, c) for a in VERIFY_LETTERS for c in VERIFY_CHARS]
    per_class = profile.verify_instances // len(classes)
    while len(instances) < per_class * len(classes):
        letters_count, chars = classes[len(instances) // per_class]
        letters = "abcd"[:letters_count]
        strings = sorted({
            "".join(rng.choice(letters) for _ in range(chars))
            for _ in range(rng.randint(1, min(8, len(letters) ** chars)))
        })
        terms = [_random_term(rng, letters, chars, strings) for _ in range(rng.randint(1, 3))]
        code = _code(rng, letters)
        n = chars * len(next(iter(code.values())))
        outcome = _verify_outcome(n, len(ref.match(strings, terms)))
        if outcome != "pass":
            excluded[outcome] += 1
            continue
        instances.append((strings, terms, code, False))
    instances += [(list(s), list(t), c, True) for s, t, c in KNOWN_FAULTS]
    ops, inputs = [], []
    for i, (strings, terms, code, fault) in enumerate(instances):
        data, codec = _write_query(workdir, f"v{i}", strings, code)
        inputs += [data, codec]
        argv = ["verify", "--data", data, "--codec", codec, "--seed", str(seed % (1 << 31))]
        argv += [f"--term={t}" for t in terms]
        ops.append(Op(argv, {"matched": sorted(ref.match(strings, terms)), "known_fault": fault}))
    sizes = {
        "instances": len(instances),
        "known_faults": len(KNOWN_FAULTS),
        "excluded_fail": excluded["fail"],
        "excluded_doubtful": excluded["doubtful"],
        "shots": SHOTS,
    }
    return Plan(ops, len(ops), inputs, sizes)


def _check_verify(e: dict, rc: int, stdout: str, out: Path) -> str:
    if e["known_fault"] and rc == 1:
        return "known_fault"
    _check_exit(rc)
    line = _VERIFY_LINE.search(stdout)
    if line is None:
        raise CheckFailed(f"no verdict line in output: {stdout!r}")
    found = [] if line.group(3) == "-" else line.group(3).split(", ")
    _expect_equal("found set", sorted(found), e["matched"])
    return "ok"


_PLANNERS = {
    "search": partial(_plan_pool, ["search"]),
    "experiment": _plan_experiment,
    "compile": partial(_plan_pool, ["compile", "--emit-qasm"]),
    "verify": _plan_verify,
}
_CHECKS = {
    "search": _check_search,
    "experiment": _check_experiment,
    "compile": _check_compile,
    "verify": _check_verify,
}
NAMES = tuple(_PLANNERS)
