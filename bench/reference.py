"""Independent reference computations that every workload's check rests on.

Nothing here imports groverwild: the matcher, the encoding, the truth table,
the GF(2) normal form and the Grover success law are written out again from
their definitions, so a fault in the program cannot hide in its own check.

Conventions shared with the program's documented interface: a string's bits
are its characters' codes concatenated left to right, and bit j of that
string is variable x{j}, the most significant bit of the row index.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

import numpy as np


def match(strings: Iterable[str], terms: Sequence[str]) -> set[str]:
    """Strings that satisfy at least one surface term (``ab*``, ``*ab``, ``*ab*``, ``ab``)."""
    out = set()
    for s in strings:
        for t in terms:
            head, tail = t.startswith("*"), len(t) > 1 and t.endswith("*")
            core = t.strip("*")
            if head and tail:
                hit = core in s
            elif head:
                hit = s.endswith(core)
            elif tail:
                hit = s.startswith(core)
            else:
                hit = s == core
            if hit:
                out.add(s)
                break
    return out


def encode(code: Mapping[str, str], s: str) -> str:
    """The bit string of ``s`` under a character-to-bits code."""
    return "".join(code[ch] for ch in s)


def truth_rows(code: Mapping[str, str], matched: Iterable[str], n: int) -> np.ndarray:
    """Truth table of the oracle: row ``int(bits, 2)`` is 1 exactly for matched strings."""
    rows = np.zeros(1 << n, dtype=np.uint8)
    for s in matched:
        rows[int(encode(code, s), 2)] = 1
    return rows


def anf_monomials(rows: np.ndarray, n: int) -> set[frozenset[int]]:
    """Möbius transform over GF(2); each surviving coefficient is one monomial."""
    coeff = rows.copy()
    for i in range(n):
        step = 1 << (n - 1 - i)
        view = coeff.reshape(-1, 2, step)
        view[:, 1, :] ^= view[:, 0, :]
    return {
        frozenset(i for i in range(n) if (int(x) >> (n - 1 - i)) & 1)
        for x in np.flatnonzero(coeff)
    }


def grover_rounds(n: int, m: int) -> int:
    """k = max(1, floor(pi/4 * sqrt(2^n / m))); a control (m = 0) runs one round."""
    if m == 0:
        return 1
    return max(1, math.floor(math.pi / 4 * math.sqrt((1 << n) / m)))


def grover_law(n: int, m: int) -> float:
    """Total probability on the m marked states after k rounds: sin^2((2k+1) asin(sqrt(m/2^n)))."""
    if m == 0:
        return 0.0
    theta = math.asin(math.sqrt(m / (1 << n)))
    return math.sin((2 * grover_rounds(n, m) + 1) * theta) ** 2


def grover_gate_count(n: int, k: int, monomials: int) -> int:
    """H layer, then k rounds of the oracle (one gate per monomial) and a 4n+2-gate diffusion."""
    return n + k * (monomials + 4 * n + 2)


def greedy_depth(gates: Sequence[Mapping]) -> int:
    """Layer of a gate = 1 + deepest layer on its qubits; a global phase adds no depth."""
    level: dict[int, int] = {}
    depth = 0
    for g in gates:
        qubits = g.get("q", ())
        if not qubits:
            continue
        layer = 1 + max(level.get(q, 0) for q in qubits)
        for q in qubits:
            level[q] = layer
        depth = max(depth, layer)
    return depth
