"""String datasets and wildcard terms, encoded as bits and oracle expressions.

Every character maps to a fixed-width bit code (a segment); a whole string is
the left-to-right concatenation of its segments (an entity). A dataset becomes
an XOR-join of exact-match conjunctions, a search term list becomes an OR-join
of per-term expressions, and the oracle expression is their AND. The bit at
string position j is variable ``x{j}``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, Sequence

from .boolexpr import And, BoolExpr, Const, Not, Var, conj, disj, xorj
from .errors import InputError

__all__ = [
    "AlphabetCodec",
    "BinaryEntity",
    "BinaryEntitySet",
    "TermKind",
    "WildcardTerm",
    "parse_term",
    "build_codec",
    "encode_string",
    "decode_entity",
    "decode_bits",
    "encode_dataset",
    "entity_expression",
    "encode_prefix",
    "encode_suffix",
    "encode_substring",
    "term_to_expression",
    "build_oracle_expression",
    "classical_match",
    "OracleBuild",
    "compile_oracle",
]


class TermKind(enum.Enum):
    PREFIX = "prefix"
    SUFFIX = "suffix"
    SUBSTRING = "substring"
    EXACT = "exact"


@dataclass(frozen=True)
class WildcardTerm:
    """One search term; ``text`` is the literal part without any ``*``."""

    kind: TermKind
    text: str

    def __post_init__(self):
        if not isinstance(self.kind, TermKind):
            raise InputError(f"bad term kind: {self.kind!r}")
        if not self.text:
            raise InputError("search term text must be non-empty")
        if "*" in self.text:
            raise InputError("search term text may not contain '*'")


def parse_term(surface: str) -> WildcardTerm:
    """Surface syntax: ``ab*`` prefix, ``*ab`` suffix, ``*ab*`` substring, ``ab`` exact.

    A ``*`` anywhere other than the ends is an error.
    """
    if not surface:
        raise InputError("empty search term")
    leading = surface.startswith("*")
    trailing = len(surface) > 1 and surface.endswith("*")
    core = surface[1 if leading else 0 : len(surface) - 1 if trailing else len(surface)]
    if not core:
        raise InputError(f"search term {surface!r} has no literal text")
    if "*" in core:
        raise InputError(f"'*' is only allowed at the ends of a term: {surface!r}")
    if leading and trailing:
        kind = TermKind.SUBSTRING
    elif leading:
        kind = TermKind.SUFFIX
    elif trailing:
        kind = TermKind.PREFIX
    else:
        kind = TermKind.EXACT
    return WildcardTerm(kind, core)


@dataclass(frozen=True)
class AlphabetCodec:
    """Bijective fixed-width character code over a known alphabet."""

    symbols: tuple[str, ...]
    width: int
    code: Mapping[str, str]

    def __post_init__(self):
        if self.width < 1:
            raise InputError(f"codec width must be >= 1, got {self.width}")
        symbols = tuple(self.symbols)
        if len(set(symbols)) != len(symbols):
            raise InputError("codec symbols must be distinct")
        code = dict(self.code)
        if set(code) != set(symbols):
            raise InputError("code map keys must match the symbol list")
        for ch, bits in code.items():
            if len(ch) != 1:
                raise InputError(f"codec symbols must be single characters, got {ch!r}")
            if len(bits) != self.width or any(b not in "01" for b in bits):
                raise InputError(
                    f"code for {ch!r} must be {self.width} binary digits, got {bits!r}"
                )
        if len(set(code.values())) != len(code):
            raise InputError("duplicate bit codes: the code map must be injective")
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "code", code)
        object.__setattr__(self, "_by_bits", {bits: ch for ch, bits in code.items()})

    def encode_char(self, ch: str) -> str:
        try:
            return self.code[ch]
        except KeyError:
            raise InputError(f"character {ch!r} is not in the codec alphabet") from None

    def decode_segment(self, bits: str) -> str:
        try:
            return self._by_bits[bits]
        except KeyError:
            raise InputError(f"bit segment {bits!r} is not assigned to any character") from None

    def to_json_dict(self) -> dict:
        return {"width": self.width, "code": dict(sorted(self.code.items()))}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "AlphabetCodec":
        try:
            width = int(data["width"])
            code = {str(k): str(v) for k, v in data["code"].items()}
        except (KeyError, TypeError, AttributeError, ValueError, OverflowError):
            raise InputError(
                'codec JSON must be {"width": int, "code": {"<char>": "<bits>"}}'
            ) from None
        return cls(tuple(sorted(code)), width, code)


@dataclass(frozen=True)
class BinaryEntity:
    """One encoded string: concatenated fixed-width segments."""

    bits: str
    segment_width: int

    def __post_init__(self):
        if self.segment_width < 1:
            raise InputError(f"segment width must be >= 1, got {self.segment_width}")
        if not self.bits:
            raise InputError("a binary entity must have at least one segment")
        if any(b not in "01" for b in self.bits):
            raise InputError(f"entity bits must be binary, got {self.bits!r}")
        if len(self.bits) % self.segment_width != 0:
            raise InputError(
                f"entity length {len(self.bits)} is not a multiple of"
                f" segment width {self.segment_width}"
            )

    @property
    def char_count(self) -> int:
        return len(self.bits) // self.segment_width


@dataclass(frozen=True)
class BinaryEntitySet:
    """Distinct same-length entities for one loaded dataset."""

    entities: tuple[BinaryEntity, ...]
    entity_bit_length: int
    duplicates_dropped: bool = False

    def __post_init__(self):
        entities = tuple(self.entities)
        if not entities:
            raise InputError("an entity set must contain at least one entity")
        seen = set()
        for e in entities:
            if len(e.bits) != self.entity_bit_length:
                raise InputError(
                    f"entity {e.bits!r} does not have the declared bit length"
                    f" {self.entity_bit_length}"
                )
            if e.bits in seen:
                raise InputError(f"duplicate entity {e.bits!r} in entity set")
            seen.add(e.bits)
        object.__setattr__(self, "entities", entities)

    @property
    def char_count(self) -> int:
        return self.entities[0].char_count


def build_codec(
    dataset: Sequence[str], explicit: Mapping[str, str] | None = None
) -> AlphabetCodec:
    """Derive a codec from the dataset alphabet, or validate an explicit map.

    Auto mode assigns codes 0, 1, 2, ... in sorted-character order at width
    max(1, ceil(log2(alphabet size))).
    """
    if not dataset:
        raise InputError("dataset must be non-empty")
    alphabet = sorted({ch for s in dataset for ch in s})
    if not alphabet:
        raise InputError("dataset strings are all empty")
    if explicit is not None:
        widths = {len(bits) for bits in explicit.values()}
        if len(widths) != 1:
            raise InputError(
                f"explicit codes must all share one width, got widths {sorted(widths)}"
            )
        missing = [ch for ch in alphabet if ch not in explicit]
        if missing:
            raise InputError(
                f"dataset characters missing from the explicit code map: {missing}"
            )
        return AlphabetCodec(tuple(sorted(explicit)), widths.pop(), dict(explicit))
    width = max(1, (len(alphabet) - 1).bit_length())
    code = {ch: format(i, f"0{width}b") for i, ch in enumerate(alphabet)}
    return AlphabetCodec(tuple(alphabet), width, code)


def encode_string(codec: AlphabetCodec, s: str) -> BinaryEntity:
    """Concatenate the character codes of ``s``, left to right."""
    if not s:
        raise InputError("cannot encode an empty string")
    bits = "".join(codec.encode_char(ch) for ch in s)
    return BinaryEntity(bits, codec.width)


def decode_entity(codec: AlphabetCodec, entity: BinaryEntity) -> str:
    """Inverse of ``encode_string``; fails on any unassigned segment."""
    if entity.segment_width != codec.width:
        raise InputError(
            f"entity segment width {entity.segment_width} does not match"
            f" codec width {codec.width}"
        )
    w = codec.width
    return "".join(
        codec.decode_segment(entity.bits[i : i + w]) for i in range(0, len(entity.bits), w)
    )


def decode_bits(codec: AlphabetCodec, bits: str) -> str:
    """Decode a raw bit string (must be a whole number of segments)."""
    return decode_entity(codec, BinaryEntity(bits, codec.width))


def encode_dataset(codec: AlphabetCodec, strings: Sequence[str]) -> BinaryEntitySet:
    """Encode all strings; duplicates are dropped (flagged), order is kept."""
    if not strings:
        raise InputError("dataset must be non-empty")
    lengths = {len(s) for s in strings}
    if len(lengths) != 1:
        raise InputError(
            f"dataset strings must share one character length, got lengths {sorted(lengths)}"
        )
    entities: list[BinaryEntity] = []
    seen: set[str] = set()
    dropped = False
    for s in strings:
        e = encode_string(codec, s)
        if e.bits in seen:
            dropped = True
            continue
        seen.add(e.bits)
        entities.append(e)
    return BinaryEntitySet(tuple(entities), len(entities[0].bits), dropped)


def _bit_literal(var_index: int, bit: str) -> BoolExpr:
    return Var(var_index) if bit == "1" else Not(Var(var_index))


def _pattern_at(bits: str, offset: int) -> BoolExpr:
    return conj(_bit_literal(offset + j, b) for j, b in enumerate(bits))


def entity_expression(entity: BinaryEntity) -> BoolExpr:
    """Exact-match conjunction over every bit of the entity."""
    return _pattern_at(entity.bits, 0)


def _check_term_fits(term: str, entity_chars: int) -> None:
    if len(term) > entity_chars:
        raise InputError(
            f"term {term!r} is longer than the entity ({len(term)} chars vs {entity_chars})"
        )


def encode_prefix(codec: AlphabetCodec, term: str, entity_chars: int) -> BoolExpr:
    """Pin the first len(term) characters: one literal per encoded bit."""
    _check_term_fits(term, entity_chars)
    return _pattern_at(encode_string(codec, term).bits, 0)


def encode_suffix(codec: AlphabetCodec, term: str, entity_chars: int) -> BoolExpr:
    """Pin the last len(term) characters of the entity."""
    _check_term_fits(term, entity_chars)
    bits = encode_string(codec, term).bits
    return _pattern_at(bits, (entity_chars - len(term)) * codec.width)


def encode_substring(codec: AlphabetCodec, term: str, entity_chars: int) -> BoolExpr:
    """OR over every character-aligned placement of the term.

    The shift stride is one segment (codec.width bits), so there are exactly
    entity_chars - len(term) + 1 placements.
    """
    _check_term_fits(term, entity_chars)
    bits = encode_string(codec, term).bits
    placements = entity_chars - len(term) + 1
    return disj(_pattern_at(bits, p * codec.width) for p in range(placements))


def term_to_expression(
    codec: AlphabetCodec, term: WildcardTerm, entity_chars: int
) -> BoolExpr:
    """Encode one wildcard term against entities of ``entity_chars`` characters.

    An exact term is a full-length literal; exact text shorter than the entity
    can never match a fixed-length string and yields constant false.
    """
    if term.kind is TermKind.PREFIX:
        return encode_prefix(codec, term.text, entity_chars)
    if term.kind is TermKind.SUFFIX:
        return encode_suffix(codec, term.text, entity_chars)
    if term.kind is TermKind.SUBSTRING:
        return encode_substring(codec, term.text, entity_chars)
    _check_term_fits(term.text, entity_chars)
    if len(term.text) < entity_chars:
        return Const(0)
    return encode_prefix(codec, term.text, entity_chars)


def build_oracle_expression(
    data: Sequence[BoolExpr], searches: Sequence[BoolExpr]
) -> BoolExpr:
    """(d1 ^ d2 ^ ... ^ dk) & (s1 | s2 | ... | sj).

    Data conjunctions are XOR-joined; since each entity conjunction is
    satisfied by exactly one assignment and entities are distinct, the XOR
    join marks exactly the loaded entities.
    """
    if not data:
        raise InputError("no data expressions to load")
    if not searches:
        raise InputError("no search expressions")
    return And((xorj(data), disj(searches)))


def classical_match(dataset: Sequence[str], terms: Sequence[WildcardTerm]) -> set[str]:
    """Plain string matching; union over terms. The ground truth everywhere."""
    out: set[str] = set()
    for s in dataset:
        for t in terms:
            if t.kind is TermKind.PREFIX:
                hit = s.startswith(t.text)
            elif t.kind is TermKind.SUFFIX:
                hit = s.endswith(t.text)
            elif t.kind is TermKind.SUBSTRING:
                hit = t.text in s
            else:
                hit = s == t.text
            if hit:
                out.add(s)
                break
    return out


@dataclass(frozen=True)
class OracleBuild:
    """Everything derived from one (dataset, terms) pair short of gates."""

    codec: AlphabetCodec
    entity_set: BinaryEntitySet
    expression: BoolExpr
    var_count: int

    @property
    def entity_chars(self) -> int:
        return self.entity_set.char_count


def compile_oracle(
    dataset: Sequence[str],
    terms: Sequence[WildcardTerm],
    codec: AlphabetCodec | None = None,
) -> OracleBuild:
    """Encode a dataset plus terms into the combined oracle expression."""
    if not terms:
        raise InputError("at least one search term is required")
    codec = codec if codec is not None else build_codec(dataset)
    entity_set = encode_dataset(codec, dataset)
    chars = entity_set.char_count
    data_exprs = [entity_expression(e) for e in entity_set.entities]
    search_exprs = [term_to_expression(codec, t, chars) for t in terms]
    expression = build_oracle_expression(data_exprs, search_exprs)
    return OracleBuild(codec, entity_set, expression, entity_set.entity_bit_length)
