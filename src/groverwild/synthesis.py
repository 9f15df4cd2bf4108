"""Gate-level circuits: phase oracles from truth tables, diffusion, Grover assembly.

The gate basis is {H, X, Z, multi-controlled Z, global phase flip}. MCZ stays
abstract (the simulator applies it natively) and the global phase flip is
tracked explicitly so oracle and diffusion constructions are exact matrix
identities, not identities up to phase.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Mapping

import numpy as np

from .boolexpr import TruthTable, anf, anf_coefficients
from .errors import InputError

__all__ = [
    "Gate",
    "Circuit",
    "BlockCircuit",
    "GateStats",
    "synthesize_phase_oracle",
    "oracle_gate_count",
    "build_diffusion",
    "iteration_count",
    "check_grover_size",
    "grover_blocks",
    "build_grover_circuit",
    "gate_stats",
    "circuit_to_json_dict",
    "circuit_to_json_chunks",
    "circuit_to_json_text",
    "circuit_from_json_dict",
    "circuit_to_qasm_chunks",
    "circuit_to_qasm",
]

GATE_KINDS = ("h", "x", "z", "mcz", "gphase")
_SINGLE_QUBIT = ("h", "x", "z")
# Largest unrolled Grover circuit a pipeline may describe, checked by
# ``check_grover_size`` before any gate is built or any round is simulated:
# 2^25 gates, above the ~15.8 M of a 20-qubit search.
_MAX_GROVER_GATES = 1 << 25


@dataclass(frozen=True)
class Gate:
    """One gate: kind plus the qubits it acts on (sorted, duplicate-free)."""

    kind: str
    qubits: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise InputError(f"unknown gate kind {self.kind!r}")
        qubits = tuple(int(q) for q in self.qubits)
        if any(q < 0 for q in qubits):
            raise InputError(f"negative qubit index in {self.kind} gate: {qubits}")
        if self.kind in _SINGLE_QUBIT and len(qubits) != 1:
            raise InputError(f"{self.kind} acts on exactly one qubit, got {qubits}")
        if self.kind == "mcz":
            if len(qubits) < 2:
                raise InputError(f"mcz needs at least 2 qubits, got {qubits}")
            if len(set(qubits)) != len(qubits):
                raise InputError(f"mcz qubits must be distinct, got {qubits}")
            qubits = tuple(sorted(qubits))
        if self.kind == "gphase" and qubits:
            raise InputError("gphase acts on no qubits")
        object.__setattr__(self, "qubits", qubits)

    @staticmethod
    def h(q: int) -> "Gate":
        return Gate("h", (q,))

    @staticmethod
    def x(q: int) -> "Gate":
        return Gate("x", (q,))

    @staticmethod
    def z(q: int) -> "Gate":
        return Gate("z", (q,))

    @staticmethod
    def mcz(qubits: Iterable[int]) -> "Gate":
        return Gate("mcz", tuple(qubits))

    @staticmethod
    def gphase() -> "Gate":
        return Gate("gphase")


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over a fixed qubit count."""

    qubit_count: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        if self.qubit_count < 1:
            raise InputError(f"qubit count must be >= 1, got {self.qubit_count}")
        gates = tuple(self.gates)
        for g in gates:
            if not isinstance(g, Gate):
                raise InputError(f"not a Gate: {g!r}")
            if g.qubits and max(g.qubits) >= self.qubit_count:
                raise InputError(
                    f"gate {g.kind} on {g.qubits} exceeds qubit count {self.qubit_count}"
                )
        object.__setattr__(self, "gates", gates)

    @property
    def blocks(self) -> tuple["Circuit"]:
        """The circuit as a one-block ``BlockCircuit`` sees it."""
        return (self,)


@dataclass(frozen=True)
class BlockCircuit:
    """A circuit as an ordered sequence of ``Circuit`` blocks on one qubit count.

    A repeated block is the same object, so the emitters and the simulator
    format, count or validate it once however often it runs; Grover's k
    rounds are one oracle block and one diffusion block repeated k times.
    Its gates are the blocks' gates in order.
    """

    qubit_count: int
    blocks: tuple[Circuit, ...] = ()

    def __post_init__(self):
        if self.qubit_count < 1:
            raise InputError(f"qubit count must be >= 1, got {self.qubit_count}")
        blocks = tuple(self.blocks)
        for b in blocks:
            if not isinstance(b, Circuit):
                raise InputError(f"not a Circuit: {b!r}")
            if b.qubit_count != self.qubit_count:
                raise InputError(
                    f"block on {b.qubit_count} qubits in a circuit on {self.qubit_count}"
                )
        object.__setattr__(self, "blocks", blocks)

    @property
    def gates(self) -> tuple[Gate, ...]:
        """The unrolled gate list, built on each access; no gate is copied."""
        return tuple(chain.from_iterable(b.gates for b in self.blocks))


def synthesize_phase_oracle(table: TruthTable) -> Circuit:
    """Phase-polynomial circuit acting as |x> -> (-1)^f(x) |x>, exactly.

    Each monomial of the positive-polarity normal form contributes one gate:
    the empty monomial a global phase flip, a singleton a Z, larger sets an
    MCZ. Gate order is deterministic (monomial size, then indices).
    """
    gates: list[Gate] = []
    for mono in sorted(anf(table).monomials, key=lambda m: (len(m), tuple(sorted(m)))):
        if not mono:
            gates.append(Gate.gphase())
        elif len(mono) == 1:
            gates.append(Gate.z(next(iter(mono))))
        else:
            gates.append(Gate.mcz(sorted(mono)))
    return Circuit(table.var_count, tuple(gates))


def oracle_gate_count(table: TruthTable) -> int:
    """``len(synthesize_phase_oracle(table).gates)`` without building a gate:
    one gate per ANF monomial, the Hamming weight of the Mobius transform."""
    return int(np.count_nonzero(anf_coefficients(table)))


def build_diffusion(qubit_count: int) -> Circuit:
    """The reflection 2|s><s| - I as gates, exact including global phase."""
    n = qubit_count
    if n < 1:
        raise InputError(f"qubit count must be >= 1, got {n}")
    gates: list[Gate] = [Gate.h(q) for q in range(n)]
    gates += [Gate.x(q) for q in range(n)]
    gates.append(Gate.z(0) if n == 1 else Gate.mcz(range(n)))
    gates += [Gate.x(q) for q in range(n)]
    gates += [Gate.h(q) for q in range(n)]
    gates.append(Gate.gphase())
    return Circuit(n, tuple(gates))


def iteration_count(qubit_count: int, marked_count: int) -> int:
    """Grover rounds: max(1, floor((pi/4) * sqrt(2^n / m))); m = 0 runs 1 round.

    A zero-marked (control) circuit still runs one round so its output stays
    uniform rather than skipping the pipeline.
    """
    if qubit_count < 1:
        raise InputError(f"qubit count must be >= 1, got {qubit_count}")
    dim = 1 << qubit_count
    if not 0 <= marked_count <= dim:
        raise InputError(f"marked count {marked_count} outside 0..{dim}")
    if marked_count == 0:
        return 1
    return max(1, math.floor((math.pi / 4) * math.sqrt(dim / marked_count)))


def check_grover_size(qubits: int, oracle_gates: int, iterations: int) -> int:
    """The gate count of the unrolled Grover circuit, ``n + k·(M + 4n + 2)``
    for n ``qubits``, M ``oracle_gates`` and k ``iterations``. A negative
    round count, or a total above 2^25 gates, is refused."""
    if iterations < 0:
        raise InputError(f"iteration count must be >= 0, got {iterations}")
    total = qubits + iterations * (oracle_gates + 4 * qubits + 2)
    if total > _MAX_GROVER_GATES:
        raise InputError(
            f"{iterations} iterations would unroll {total} gates; at most {_MAX_GROVER_GATES}"
            " are supported"
        )
    return total


def grover_blocks(oracle: Circuit, iterations: int) -> BlockCircuit:
    """The Grover circuit as blocks: an H layer, then the oracle and diffusion
    blocks repeated ``iterations`` times. Its gates are those of
    ``build_grover_circuit``; nothing is unrolled.

    Refused with ``InputError`` by ``check_grover_size`` before assembly.
    """
    check_grover_size(oracle.qubit_count, len(oracle.gates), iterations)
    n = oracle.qubit_count
    h_layer = Circuit(n, tuple(Gate.h(q) for q in range(n)))
    return BlockCircuit(n, (h_layer,) + (oracle, build_diffusion(n)) * iterations)


def build_grover_circuit(oracle: Circuit, iterations: int) -> Circuit:
    """H layer, then ``iterations`` repetitions of (oracle, diffusion), unrolled:
    the reference the block form of ``grover_blocks`` is tested against.

    Refused with ``InputError`` by ``check_grover_size`` before assembly.
    """
    check_grover_size(oracle.qubit_count, len(oracle.gates), iterations)
    n = oracle.qubit_count
    gates: list[Gate] = [Gate.h(q) for q in range(n)]
    diffusion = build_diffusion(n)
    for _ in range(iterations):
        gates.extend(oracle.gates)
        gates.extend(diffusion.gates)
    return Circuit(n, tuple(gates))


@dataclass(frozen=True)
class GateStats:
    counts: Mapping[str, int]
    mcz_arities: Mapping[int, int]
    depth: int


def _distinct_blocks(circuit: Circuit | BlockCircuit) -> list[Circuit]:
    """Each block once, in order of first appearance."""
    return list({id(b): b for b in circuit.blocks}.values())


def _layer(gates: Iterable[Gate], level: list[int]) -> list[int]:
    """Advance per-qubit ``level`` through ``gates`` by greedy layering, in place."""
    for g in gates:
        if g.qubits:  # the global phase flip occupies no qubits
            layer = 1 + max(level[q] for q in g.qubits)
            for q in g.qubits:
                level[q] = layer
    return level


def gate_stats(circuit: Circuit | BlockCircuit) -> GateStats:
    """Per-kind counts, MCZ arity histogram, and greedy-layered depth.

    A gate's layer is one past the deepest layer currently touching any of
    its qubits; the global phase flip occupies no qubits and adds no depth.
    Each distinct block is counted once, times its repeats. Layering
    commutes with adding one constant to every qubit's level, so a block's
    exit levels depend only on its entry levels less their minimum: a block
    is walked gate by gate once per such entry profile, and looked up after.
    """
    repeats = Counter(map(id, circuit.blocks))
    counts: Counter[str] = Counter()
    arities: Counter[int] = Counter()
    for block in _distinct_blocks(circuit):
        times = repeats[id(block)]
        for g in block.gates:
            counts[g.kind] += times
            if g.kind == "mcz":
                arities[len(g.qubits)] += times
    level = [0] * circuit.qubit_count
    exits: dict[tuple[int, tuple[int, ...]], list[int]] = {}
    for block in circuit.blocks:
        base = min(level)
        key = (id(block), tuple(lv - base for lv in level))
        exit_levels = exits.get(key)
        if exit_levels is None:
            exit_levels = exits[key] = _layer(block.gates, list(key[1]))
        level = [base + lv for lv in exit_levels]
    return GateStats(dict(counts), dict(arities), max(level))


# --- serialization -------------------------------------------------------------

def circuit_to_json_dict(circuit: Circuit | BlockCircuit) -> dict:
    gates = []
    for g in circuit.gates:
        if g.kind == "gphase":
            gates.append({"g": "gphase"})
        else:
            gates.append({"g": g.kind, "q": list(g.qubits)})
    return {"qubits": circuit.qubit_count, "gates": gates}


def _gate_json_text(gate: Gate) -> str:
    """One gate entry of ``circuit_to_json_text``, at its nesting depth."""
    if gate.kind == "gphase":
        return '    {\n      "g": "gphase"\n    }'
    qubits = ",\n".join(f"        {q}" for q in gate.qubits)
    return f'    {{\n      "g": "{gate.kind}",\n      "q": [\n{qubits}\n      ]\n    }}'


def _block_json_text(block: Circuit) -> str:
    texts = {g: _gate_json_text(g) for g in set(block.gates)}
    return ",\n".join([texts[g] for g in block.gates])


def circuit_to_json_chunks(circuit: Circuit | BlockCircuit) -> list[str]:
    """``circuit_to_json_text`` as a list of chunks to write in order.

    Each distinct non-empty block is formatted once (one text per distinct
    gate) and its repeats share that string, so the whole text is never
    held at once.
    """
    head = '{\n  "gates": '
    tail = f',\n  "qubits": {circuit.qubit_count}\n}}\n'
    texts = {id(b): _block_json_text(b) for b in _distinct_blocks(circuit) if b.gates}
    parts = [texts[id(b)] for b in circuit.blocks if b.gates]
    if not parts:
        return [head + "[]" + tail]
    chunks = [head + "[\n", parts[0]]
    for part in parts[1:]:
        chunks += (",\n", part)
    chunks.append("\n  ]" + tail)
    return chunks


def circuit_to_json_text(circuit: Circuit | BlockCircuit) -> str:
    """``json.dumps(circuit_to_json_dict(circuit), sort_keys=True, indent=2) + "\\n"``,
    formatted directly from the chunks of ``circuit_to_json_chunks``."""
    return "".join(circuit_to_json_chunks(circuit))


def circuit_from_json_dict(data: Mapping) -> Circuit:
    try:
        qubits = int(data["qubits"])
        raw_gates = list(data["gates"])
    except (KeyError, TypeError):
        raise InputError('circuit JSON must have "qubits" and "gates"') from None
    gates = []
    for entry in raw_gates:
        try:
            kind = entry["g"]
        except (KeyError, TypeError):
            raise InputError(f"bad gate entry {entry!r}") from None
        gates.append(Gate(kind, tuple(entry.get("q", ()))))
    return Circuit(qubits, tuple(gates))


def _qasm_line(g: Gate) -> str:
    if g.kind in _SINGLE_QUBIT:
        return f"{g.kind} q[{g.qubits[0]}];\n"
    if g.kind == "mcz" and len(g.qubits) == 2:
        return f"cz q[{g.qubits[0]}],q[{g.qubits[1]}];\n"
    if g.kind == "mcz":
        args = ",".join(f"q[{q}]" for q in g.qubits)
        return f"mcz{len(g.qubits)} {args};\n"
    return "// global phase flip (-1), not expressible in OPENQASM 2.0\n"


def circuit_to_qasm_chunks(circuit: Circuit | BlockCircuit) -> list[str]:
    """``circuit_to_qasm`` as a list of chunks: the header, then one text per
    block, each distinct block formatted once and shared by its repeats."""
    distinct = _distinct_blocks(circuit)
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";']
    arities = sorted(
        {len(g.qubits) for b in distinct for g in b.gates if g.kind == "mcz" and len(g.qubits) > 2}
    )
    for a in arities:
        params = ",".join(f"q{i}" for i in range(a))
        lines.append(f"// mcz{a}: phase flip on the all-ones subspace of {a} qubits")
        lines.append(f"opaque mcz{a} {params};")
    lines.append(f"qreg q[{circuit.qubit_count}];")
    texts = {id(b): "".join([_qasm_line(g) for g in b.gates]) for b in distinct}
    return ["\n".join(lines) + "\n"] + [texts[id(b)] for b in circuit.blocks]


def circuit_to_qasm(circuit: Circuit | BlockCircuit) -> str:
    """OpenQASM 2.0 text; h/x/z/cz are native.

    MCZ of arity >= 3 has no QASM 2.0 primitive and is declared ``opaque``
    (a bodyless ``gate`` is not legal), and a global phase flip is not
    expressible at all; both carry explanatory comments.
    """
    return "".join(circuit_to_qasm_chunks(circuit))
