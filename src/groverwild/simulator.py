"""Dense statevector engine with seeded sampling and trajectory noise.

One gate engine, ``_evolve``, serves ``simulate``, ``run_noisy``,
``circuit_unitary`` and ``apply_gate``: a state, a batch of trajectories and
the basis columns of a unitary are all arrays whose first axis has length 2^n.
Each takes a ``Circuit`` or a ``BlockCircuit`` and walks its blocks in order,
so a Grover circuit is run from its oracle and diffusion blocks, never from
an unrolled gate list.
Noiseless Grover search skips the gates: ``grover_state`` applies the
oracle as its truth-table sign vector and the diffusion as the reflection
about the mean, the two matrices the gate lists are proven to equal.

Basis convention: amplitude index x carries qubit 0 (``x0``) in its most
significant bit, matching truth-table row order, so the bit string for index
x is simply its n-digit binary form. Measured bit strings are therefore in
encoding order; any hardware-style bit reversal is applied downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .boolexpr import TruthTable
from .errors import InputError
from .synthesis import BlockCircuit, Circuit, Gate

__all__ = [
    "MAX_QUBITS",
    "Statevector",
    "NoiseModel",
    "Histogram",
    "init_state",
    "apply_gate",
    "simulate",
    "grover_state",
    "apply_diagonal_oracle",
    "probabilities",
    "measure",
    "run_noisy",
    "circuit_unitary",
    "statevector_to_json_list",
    "floats_to_json_text",
    "complexes_to_json_text",
]

MAX_QUBITS = 24
# Amplitudes held at once by ``run_noisy``: 2^20 complex128 values (16 MiB),
# so a chunk holds 2^20 / 2^n trajectories (at least one).
_AMP_BUDGET = 1 << 20
# ``grover_state`` runs at most 2^36 amplitude updates (rounds × 2^n), which
# admits the default round count at every n up to ``MAX_QUBITS``.
_MAX_GROVER_UPDATES = 1 << 36
# ``circuit_unitary`` holds 4^n complex128 values: 256 MiB at 12 qubits.
_MAX_UNITARY_QUBITS = 12
_SQRT_HALF = 1.0 / math.sqrt(2.0)

Seed = int | Sequence[int] | np.random.SeedSequence


@dataclass(frozen=True, eq=False)
class Statevector:
    """2^n complex amplitudes with unit L2 norm (within 1e-10)."""

    qubit_count: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if not 1 <= self.qubit_count <= MAX_QUBITS:
            raise InputError(
                f"qubit count must be in 1..{MAX_QUBITS}, got {self.qubit_count}"
            )
        amps = np.array(self.amplitudes, dtype=np.complex128, copy=True)
        if amps.shape != (1 << self.qubit_count,):
            raise InputError(
                f"expected {1 << self.qubit_count} amplitudes, got shape {amps.shape}"
            )
        # einsum, not np.linalg.norm: a threaded BLAS dot leaves its helper
        # threads spinning after it returns, taking a core from what runs next.
        re, im = amps.real, amps.imag
        norm = math.sqrt(np.einsum("i,i->", re, re) + np.einsum("i,i->", im, im))
        if abs(norm - 1.0) > 1e-10:
            raise InputError(f"statevector norm {norm} deviates from 1 by more than 1e-10")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)


@dataclass(frozen=True)
class NoiseModel:
    """Depolarizing probabilities per gate plus classical readout flips.

    ``p1`` applies per qubit after each single-qubit gate, ``p2`` per qubit
    after each multi-qubit gate; a suffering qubit gets X, Y or Z with equal
    probability p/3. ``readout`` independently flips each measured bit.
    """

    p1: float = 0.0
    p2: float = 0.0
    readout: float = 0.0

    def __post_init__(self):
        for name in ("p1", "p2", "readout"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise InputError(f"noise probability {name}={v} outside [0, 1]")

    @classmethod
    def ideal(cls) -> "NoiseModel":
        return cls(0.0, 0.0, 0.0)

    @property
    def is_ideal(self) -> bool:
        return self.p1 == 0.0 and self.p2 == 0.0 and self.readout == 0.0


@dataclass(frozen=True)
class Histogram:
    """Shot counts keyed by measured bit string."""

    shots: int
    counts: Mapping[str, int]

    def __post_init__(self):
        if self.shots < 1:
            raise InputError(f"shots must be >= 1, got {self.shots}")
        counts = dict(self.counts)
        if not counts:
            raise InputError("histogram must contain at least one outcome")
        lengths = {len(k) for k in counts}
        if len(lengths) != 1:
            raise InputError(f"bit strings must share one length, got {sorted(lengths)}")
        for bits, c in counts.items():
            if not bits or any(b not in "01" for b in bits):
                raise InputError(f"bad bit string key {bits!r}")
            if not isinstance(c, int) or c < 1:
                raise InputError(f"count for {bits!r} must be a positive int, got {c!r}")
        if sum(counts.values()) != self.shots:
            raise InputError("histogram counts must sum to the shot count")
        object.__setattr__(self, "counts", counts)

    @property
    def bit_length(self) -> int:
        return len(next(iter(self.counts)))

    def to_json_dict(self) -> dict:
        return {"shots": self.shots, "counts": dict(sorted(self.counts.items()))}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "Histogram":
        try:
            return cls(int(data["shots"]), {str(k): int(v) for k, v in data["counts"].items()})
        except (KeyError, TypeError, AttributeError):
            raise InputError('histogram JSON must be {"shots": int, "counts": {...}}') from None


# --- gate kernels (in place, on arrays whose first axis has length 2^n) ----------
#
# Qubit q splits the first axis as (2^q, 2, 2^(n-q-1)); the q=0 and q=1 halves
# are views along the middle axis. Trailing axes (trajectories, unitary
# columns) ride along. Only the first axis is split, so the reshape is a view
# whatever the strides: the Pauli kernels get column subsets in Fortran order.

def _halves(a: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    t = a.reshape((1 << q, 2, -1) + a.shape[1:])
    return t[:, 0], t[:, 1]


def _apply_h(a: np.ndarray, n: int, qubits: tuple[int, ...]) -> None:
    lo, hi = _halves(a, qubits[0])
    new_lo = (lo + hi) * _SQRT_HALF
    hi[...] = (lo - hi) * _SQRT_HALF
    lo[...] = new_lo


def _apply_x(a: np.ndarray, n: int, qubits: tuple[int, ...]) -> None:
    lo, hi = _halves(a, qubits[0])
    old_lo = lo.copy()
    lo[...] = hi
    hi[...] = old_lo


def _apply_y(a: np.ndarray, n: int, qubits: tuple[int, ...]) -> None:
    lo, hi = _halves(a, qubits[0])
    old_lo = lo.copy()
    lo[...] = -1j * hi
    hi[...] = 1j * old_lo


def _apply_phase(a: np.ndarray, n: int, qubits: tuple[int, ...]) -> None:
    """Negate where every bit in ``qubits`` (ascending) is 1: Z, MCZ, or gphase (none).

    The first axis splits as (2^gap, 2, 2^gap, 2, ..., 2^rest)."""
    shape, prev = [], -1
    for q in qubits:
        shape += [1 << (q - prev - 1), 2]
        prev = q
    t = a.reshape((*shape, 1 << (n - 1 - prev), *a.shape[1:]))
    t[(slice(None), 1) * len(qubits)] *= -1.0


_KERNELS = {"h": _apply_h, "x": _apply_x, "z": _apply_phase, "mcz": _apply_phase,
            "gphase": _apply_phase}
_PAULI_KERNELS = (_apply_x, _apply_y, _apply_phase)


def _evolve(amps: np.ndarray, n: int, blocks: Sequence[Circuit],
            noise: NoiseModel | None = None, rng: np.random.Generator | None = None) -> None:
    """Apply the gates of ``blocks``, in order, in place to ``amps``, whose
    first axis has length 2^n.

    With ``noise``, each column is a trajectory and each gate is followed by
    the Paulis ``run_noisy`` describes: per touched qubit, ``rng`` draws one
    uniform per column, then one Pauli kind per hit column.
    """
    for block in blocks:
        for gate in block.gates:
            _KERNELS[gate.kind](amps, n, gate.qubits)
            if noise is None:
                continue
            p = noise.p1 if len(gate.qubits) == 1 else noise.p2
            if p:
                for q in gate.qubits:
                    hits = np.flatnonzero(rng.random(amps.shape[1]) < p)
                    if hits.size:
                        _apply_paulis(amps, n, q, hits, rng.integers(3, size=hits.size))


def _apply_paulis(amps: np.ndarray, n: int, q: int, cols: np.ndarray, kinds: np.ndarray) -> None:
    """On qubit q, apply X, Y or Z (``kinds`` 0, 1, 2) to trajectory columns ``cols``."""
    for kind, kernel in enumerate(_PAULI_KERNELS):
        picked = cols[kinds == kind]
        if picked.size:
            sub = amps[:, picked]
            kernel(sub, n, (q,))
            amps[:, picked] = sub


# --- public operations ----------------------------------------------------------

def _checked_qubits(circuit: Circuit | BlockCircuit, limit: int = MAX_QUBITS) -> int:
    """The circuit's qubit count, refused above ``limit`` before any allocation."""
    n = circuit.qubit_count
    if n > limit:
        raise InputError(f"circuit has {n} qubits; at most {limit} are supported")
    return n


def init_state(qubit_count: int) -> Statevector:
    """|0...0> on ``qubit_count`` qubits."""
    if not 1 <= qubit_count <= MAX_QUBITS:
        raise InputError(f"qubit count must be in 1..{MAX_QUBITS}, got {qubit_count}")
    amps = np.zeros(1 << qubit_count, dtype=np.complex128)
    amps[0] = 1.0
    return Statevector(qubit_count, amps)


def apply_gate(state: Statevector, gate: Gate) -> Statevector:
    """Apply one gate, returning a new statevector."""
    return simulate(Circuit(state.qubit_count, (gate,)), initial=state)


def simulate(circuit: Circuit | BlockCircuit, initial: Statevector | None = None) -> Statevector:
    """Run all gates noiselessly from |0..0> (or from ``initial``)."""
    n = _checked_qubits(circuit)
    if initial is None:
        amps = np.zeros(1 << n, dtype=np.complex128)
        amps[0] = 1.0
    elif initial.qubit_count != n:
        raise InputError(f"initial state has {initial.qubit_count} qubits, circuit has {n}")
    else:
        amps = initial.amplitudes.copy()
    _evolve(amps, n, circuit.blocks)
    return Statevector(n, amps)


def grover_state(table: TruthTable, iterations: int) -> Statevector:
    """The Grover state after ``iterations`` rounds, without a gate list.

    Equal to ``simulate(build_grover_circuit(synthesize_phase_oracle(table),
    iterations))``: the H layer gives the uniform vector, the phase oracle
    is diag((-1)^f) and the diffusion is 2|s><s| - I, i.e. ``a -> 2·mean(a) - a``.
    Every amplitude stays real, so rounds run in float64. Refused before
    allocating when ``iterations · 2^n`` exceeds 2^36 amplitude updates.
    """
    n = table.var_count
    if n > MAX_QUBITS:
        raise InputError(f"table has {n} variables; at most {MAX_QUBITS} qubits are supported")
    if iterations < 0:
        raise InputError(f"iteration count must be >= 0, got {iterations}")
    updates = int(iterations) << n
    if updates > _MAX_GROVER_UPDATES:
        raise InputError(
            f"{iterations} iterations on {n} qubits would take {updates} amplitude updates;"
            f" at most {_MAX_GROVER_UPDATES} are supported"
        )
    signs = 1.0 - 2.0 * table.rows
    amps = np.full(1 << n, 2.0 ** (-n / 2))
    for _ in range(iterations):
        amps *= signs
        np.subtract(2.0 * amps.mean(), amps, out=amps)
    return Statevector(n, amps.astype(np.complex128))


def apply_diagonal_oracle(state: Statevector, table: TruthTable) -> Statevector:
    """Multiply amplitude x by (-1)^f(x); the fast path matching the circuit."""
    if table.var_count != state.qubit_count:
        raise InputError(
            f"table has {table.var_count} variables, state has {state.qubit_count} qubits"
        )
    signs = 1.0 - 2.0 * table.rows.astype(np.float64)
    return Statevector(state.qubit_count, state.amplitudes * signs)


def probabilities(state: Statevector) -> np.ndarray:
    """Born-rule probabilities per basis state."""
    p = np.abs(state.amplitudes) ** 2
    p.flags.writeable = False
    return p


def measure(state: Statevector, shots: int, seed: Seed) -> Histogram:
    """Multinomial sampling; identical seeds give bit-identical histograms."""
    if shots < 1:
        raise InputError(f"shots must be >= 1, got {shots}")
    rng = np.random.default_rng(seed)
    p = np.abs(state.amplitudes) ** 2
    draws = rng.multinomial(shots, p / p.sum())
    n = state.qubit_count
    counts = {format(i, f"0{n}b"): int(c) for i, c in enumerate(draws) if c}
    return Histogram(shots, counts)


def run_noisy(circuit: Circuit | BlockCircuit, noise: NoiseModel, shots: int,
              seed: Seed) -> Histogram:
    """Monte Carlo trajectories, batched: one pass per chunk of shots.

    Each column of a ``(2^n, chunk)`` amplitude array is one trajectory, and
    every gate is applied once to all columns. After each gate, every touched
    qubit of every trajectory independently suffers X, Y or Z (probability
    p/3 each; p is ``p1`` after a one-qubit gate, ``p2`` after MCZ; the
    global phase flip touches nothing). Each trajectory's outcome is sampled
    from its own Born distribution, then each bit is flipped with probability
    ``readout``. Shots are chunked so that ``2^n * chunk`` stays within
    ``_AMP_BUDGET`` amplitudes. All draws come from one generator seeded
    with ``seed``, so results are deterministic per seed. An all-zero model
    short-circuits to the noiseless path and is bit-exact with ``measure``
    at the same seed.
    """
    if shots < 1:
        raise InputError(f"shots must be >= 1, got {shots}")
    n = _checked_qubits(circuit)
    if noise.is_ideal:
        return measure(simulate(circuit), shots, seed)
    dim = 1 << n
    rng = np.random.default_rng(seed)
    bit_weights = 1 << np.arange(n - 1, -1, -1)
    counts = np.zeros(dim, dtype=np.int64)
    chunk_max = max(1, _AMP_BUDGET >> n)
    for start in range(0, shots, chunk_max):
        chunk = min(chunk_max, shots - start)
        amps = np.zeros((dim, chunk), dtype=np.complex128)
        amps[0] = 1.0
        _evolve(amps, n, circuit.blocks, noise, rng)
        cdf = np.cumsum(np.abs(amps) ** 2, axis=0)
        u = rng.random(chunk) * cdf[-1]
        outcomes = np.minimum((cdf < u).sum(axis=0), dim - 1)
        if noise.readout:
            flips = rng.random((chunk, n)) < noise.readout
            outcomes ^= flips @ bit_weights
        counts += np.bincount(outcomes, minlength=dim)
    return Histogram(
        shots, {format(i, f"0{n}b"): int(c) for i, c in enumerate(counts) if c}
    )


def circuit_unitary(circuit: Circuit | BlockCircuit) -> np.ndarray:
    """Full 2^n x 2^n matrix, built by evolving all basis columns at once.

    Dense in both dimensions, so it is refused above 12 qubits (256 MiB)
    before allocating; intended for verification at small n.
    """
    n = _checked_qubits(circuit, _MAX_UNITARY_QUBITS)
    mat = np.eye(1 << n, dtype=np.complex128)
    _evolve(mat, n, circuit.blocks)
    return mat


def statevector_to_json_list(state: Statevector) -> list[list[float]]:
    """Amplitudes as [re, im] pairs, basis order."""
    return [[float(a.real), float(a.imag)] for a in state.amplitudes]


def _distinct_texts(values: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The JSON text of each distinct finite float64 value and, per value, its index.

    Values are keyed by bit pattern, so ``-0.0`` and ``0.0`` stay distinct, and
    each distinct one is formatted once by ``repr``, as ``json`` formats it.
    """
    keys, inverse = np.unique(
        np.ascontiguousarray(values, dtype=np.float64).view(np.uint64), return_inverse=True
    )
    return [repr(x) for x in keys.view(np.float64).tolist()], inverse


def floats_to_json_text(values: np.ndarray) -> str:
    """``json.dumps([float(v) for v in values], indent=2) + "\\n"`` for finite
    values, formatted directly: one text per distinct value and a single join."""
    if not len(values):
        return "[]\n"
    texts, inverse = _distinct_texts(values)
    return "[\n  " + ",\n  ".join([texts[i] for i in inverse.tolist()]) + "\n]\n"


def complexes_to_json_text(values: np.ndarray) -> str:
    """``json.dumps([[v.real, v.imag] for v in values], indent=2) + "\\n"`` (the
    layout of ``statevector_to_json_list``) for finite values, formatted
    directly: one text per distinct ``[re, im]`` pair and a single join."""
    if not len(values):
        return "[]\n"
    values = np.asarray(values, dtype=np.complex128)
    texts, inverse = _distinct_texts(np.concatenate([values.real, values.imag]))
    # One integer key per pair: (re index, im index) in base len(texts).
    base = len(texts)
    pairs, pair_inverse = np.unique(inverse[: len(values)] * base + inverse[len(values):],
                                    return_inverse=True)
    pair_texts = [
        f"  [\n    {texts[p // base]},\n    {texts[p % base]}\n  ]" for p in pairs.tolist()
    ]
    return "[\n" + ",\n".join([pair_texts[i] for i in pair_inverse.tolist()]) + "\n]\n"
