"""CLI fuzzing over small dataset, codec and term text.

Whatever the input, a command ends with exit 0, 1 (verification failure,
from ``verify`` only) or 2 (one ``error:`` line on stderr), and never with an
exception. Inputs stay within 12 qubits: at most 4 characters per string and
codec widths of at most 3 bits.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from groverwild.cli import main

POOL = "ab01*é -"

_JSON_LEAVES = (
    st.none() | st.booleans() | st.integers(-3, 5) | st.text(alphabet="01ab", max_size=3)
    | st.sampled_from([2.5, 1e300, math.inf, math.nan])
)


def dataset_bytes(draw, alphabet: list[str]) -> bytes:
    kind = draw(st.sampled_from(["equal"] * 5 + ["free", "blank", "bad_utf8"]))
    if kind == "blank":
        return draw(st.sampled_from([b"", b"\n", b"  \n\t\n"]))
    if kind == "bad_utf8":
        return b"ab\n\xff\xfe\n"
    if kind == "equal":
        length = draw(st.integers(1, 4))
        sizes = {"min_size": length, "max_size": length}
    else:
        sizes = {"max_size": 4}
    strings = draw(st.lists(st.text(alphabet=alphabet, **sizes), min_size=1, max_size=6))
    return "".join(s + "\n" for s in strings).encode("utf-8")


def codec_bytes(draw, alphabet: list[str]) -> bytes | None:
    kind = draw(st.sampled_from(
        ["none", "none", "none", "valid", "valid", "mangled", "json", "text", "bad_utf8"]
    ))
    if kind == "none":
        return None
    if kind == "bad_utf8":
        return b'{"width": 1, "code": {"\xff": "0"}}'
    if kind == "text":
        return draw(st.text(max_size=20)).encode("utf-8")
    if kind == "json":
        value = draw(
            st.recursive(
                _JSON_LEAVES,
                lambda inner: st.lists(inner, max_size=3)
                | st.dictionaries(st.sampled_from(["width", "code", "a", "ab"]), inner,
                                  max_size=3),
                max_leaves=8,
            )
        )
        return json.dumps(value).encode("utf-8")
    extra = draw(st.lists(st.sampled_from("cd"), max_size=min(2, 8 - len(alphabet)), unique=True))
    symbols = sorted(alphabet + extra)  # at most 8: width <= 3
    if kind == "valid":
        width = draw(st.integers(max(1, (len(symbols) - 1).bit_length()), 3))
        codes = draw(st.permutations(range(1 << width)))
        code = {ch: format(c, f"0{width}b") for ch, c in zip(symbols, codes)}
    else:  # codec-shaped, with a bad width or bad codes
        width = draw(st.one_of(st.integers(0, 3), _JSON_LEAVES))
        code = {ch: draw(st.text(alphabet="012", max_size=3)) for ch in symbols}
    return json.dumps({"width": width, "code": code}).encode("utf-8")


def term_texts(draw, alphabet: list[str]) -> list[str]:
    """Mostly well-formed wildcard terms over the alphabet, sometimes raw text or none."""
    core = st.text(alphabet=alphabet, min_size=1, max_size=2)
    wildcard = st.tuples(st.sampled_from(["", "*"]), core, st.sampled_from(["", "*"])).map(
        "".join
    )
    raw = st.text(alphabet=POOL + "c", max_size=5)
    count = draw(st.sampled_from([1, 1, 1, 2, 3, 0]))
    return draw(st.lists(st.one_of(wildcard, wildcard, wildcard, raw),
                         min_size=count, max_size=count))


@st.composite
def cli_cases(draw):
    """(command, dataset bytes, codec bytes or None, term texts) over one alphabet."""
    alphabet = draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=8, unique=True))
    return (
        draw(st.sampled_from(["encode", "compile", "search", "verify"])),
        dataset_bytes(draw, alphabet),
        codec_bytes(draw, alphabet),
        term_texts(draw, alphabet),
    )


@settings(max_examples=300, deadline=None)
@given(cli_cases())
def test_exit_codes_and_error_lines(case):
    command, data, codec, terms = case
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "data.txt").write_bytes(data)
        argv = [command, "--data", str(root / "data.txt"), "--out", str(root / "out")]
        if codec is not None:
            (root / "codec.json").write_bytes(codec)
            argv += ["--codec", str(root / "codec.json")]
        # --term=TEXT, so a term that starts with '-' is not read as an option
        argv += [f"--term={t}" for t in terms]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    stderr = err.getvalue()
    assert "Traceback" not in stderr
    if rc == 2:
        assert stderr.startswith("error: ") and stderr.count("\n") == 1 and stderr.endswith("\n")
    else:
        assert rc == 0 or (rc == 1 and command == "verify")
        assert stderr == ""
