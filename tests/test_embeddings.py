from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdecomp import embeddings
from qdecomp.embeddings import (
    embed_blocks,
    load_vector_table,
    make_vector_table,
    save_vector_table,
    vector_file_dim,
)

from oracles import embed_sum_oracle, load_vector_table_oracle


def embed_one(tokens, table):
    """The embed_blocks sum of a single token list."""
    [(start, sums)] = embed_blocks([tokens], table)
    assert start == 0 and sums.shape == (1, table.dim)
    return sums[0]


def test_embed_blocks_adds_known_words(tiny_table):
    vector = embed_one(["who", "wrote", "hamlet"], tiny_table)
    assert vector.any()
    np.testing.assert_allclose(vector, [2.0, 1.0, 1.0, 0.0])
    assert vector.dtype == np.float64


def test_embed_blocks_skips_unknown_words(tiny_table):
    a = embed_one(["who", "zzz"], tiny_table)
    b = embed_one(["who"], tiny_table)
    np.testing.assert_array_equal(a, b)


def test_embed_blocks_all_unknown_is_zero(tiny_table):
    assert not embed_one(["zzz", "yyy"], tiny_table).any()


def test_vector_table_file_round_trip(tmp_path):
    table = make_vector_table({"a": [1.0, 2.0], "b": [-0.5, 0.25]})
    p = tmp_path / "t.vec"
    save_vector_table(table, p)
    back = load_vector_table(p)
    assert back.dim == 2
    assert back.vocab == table.vocab == {"a": 0, "b": 1}
    np.testing.assert_array_equal(back.matrix, table.matrix)


def test_vector_table_headerless_file(tmp_path):
    p = tmp_path / "t.vec"
    p.write_text("a 1.0 0.0\nb 0.0 1.0\n")
    table = load_vector_table(p)
    assert table.dim == 2
    assert set(table.vocab) == {"a", "b"}


def test_vector_table_dim_mismatch_line_number(tmp_path):
    p = tmp_path / "t.vec"
    p.write_text("a 1.0 0.0\nb 0.0\n")
    with pytest.raises(ValueError, match=r":2:"):
        load_vector_table(p)


def test_vector_table_rejects_nonfinite(tmp_path):
    p = tmp_path / "t.vec"
    p.write_text("a 1.0 nan\n")
    with pytest.raises(ValueError, match=r":1:"):
        load_vector_table(p)



def test_repeated_word_keeps_its_last_vector(tmp_path):
    p = tmp_path / "t.vec"
    p.write_text("a 1.0 0.0\nb 0.0 1.0\na 3.0 4.0\nc 1.0 1.0\n")
    table = load_vector_table(p)
    assert len(table) == 3 and table.matrix.shape == (3, 2)
    assert list(table.vocab) == ["a", "b", "c"]  # first positions, in order
    np.testing.assert_array_equal(table.matrix[table.vocab["a"]], [3.0, 4.0])
    np.testing.assert_array_equal(embed_one(["a", "a"], table), [6.0, 8.0])


def test_header_line_is_skipped_only_on_the_first_line(tmp_path):
    p = tmp_path / "t.vec"
    p.write_text("\n2 3\na 1.0 2.0 3.0\nb 4.0 5.0 6.0\n")
    table = load_vector_table(p)
    assert list(table.vocab) == ["a", "b"] and table.dim == 3
    assert vector_file_dim(p) == 3
    p.write_text("a 1.0 2.0 3.0\n2 3\n")
    with pytest.raises(ValueError, match=r":2: expected 3 components, got 1"):
        load_vector_table(p)


@pytest.mark.parametrize("text, error", [
    ("a 1.0 0.0\nb 0.0\n", r":2: expected 2 components"),
    ("a 1.0 0.0\nb 0.0 x\n", r":2: non-numeric"),
    ("a 1.0 0.0\nb\n", r":2: row has no vector components"),
    ("a 1.0 0.0\nb 0.0 inf\n", r":2: non-finite"),
    ("a 1.0 0.0\nb 1e39 0.0\n", r":2: non-finite"),  # float32 overflow
    ("a 1.0 nan\nb 0.0\n", r":1: non-finite"),  # the first error wins
    ("\n\n", r"no vector rows"),
], ids=["ragged", "non-numeric", "no-components", "inf", "overflow",
        "nan-before-ragged", "empty"])
@pytest.mark.filterwarnings("ignore:overflow encountered in cast")
def test_vector_file_errors_name_the_line(tmp_path, text, error):
    p = tmp_path / "t.vec"
    p.write_text(text)
    with pytest.raises(ValueError, match=error):
        load_vector_table(p)


WORDS = ("a", "b", "c", "d", "e")


@st.composite
def token_lists(draw):
    """Integer-valued rows (so opposite words cancel to exactly zero) or
    wide-range float rows, token lists of ragged lengths with repeated and
    out-of-vocabulary tokens, and a block size that splits them."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dim = draw(st.integers(1, 6))
    if draw(st.booleans()):
        half = rng.integers(-3, 4, size=(2, dim))
        rows = np.vstack([half, -half, rng.integers(-3, 4, size=(1, dim))])
    else:
        rows = rng.normal(size=(5, dim)) * 10.0 ** rng.integers(-6, 7, (5, 1))
    vocab = st.sampled_from(WORDS + ("oov", "zz"))
    lists = draw(st.lists(st.lists(vocab, max_size=9), max_size=25))
    return dict(zip(WORDS, rows.astype(np.float32))), lists, draw(
        st.integers(1, 8))


@settings(max_examples=300, deadline=None)
@given(token_lists())
def test_embed_blocks_equal_a_plain_token_loop(case):
    vectors, lists, block = case
    table = make_vector_table(vectors)
    with mock.patch.object(embeddings, "EMBED_BLOCK", block):
        got = list(embed_blocks(lists, table))
    assert [start for start, _ in got] == list(range(0, len(lists), block))
    sums = np.vstack([s for _, s in got]) if got else np.zeros((0, table.dim))
    assert sums.shape == (len(lists), table.dim) and sums.dtype == np.float64
    for tokens, row in zip(lists, sums):
        assert (row == embed_sum_oracle(tokens, vectors, table.dim)).all()


def assert_parses_as_oracle(path):
    """load_vector_table gives the oracle's vocab and matrix bit for bit,
    or raises the oracle's exception type with its message."""
    try:
        vocab, matrix = load_vector_table_oracle(path)
    except (ValueError, UnicodeDecodeError) as exc:
        with pytest.raises(type(exc)) as got:
            load_vector_table(path)
        assert str(got.value) == str(exc)
        return
    table = load_vector_table(path)
    assert list(table.vocab.items()) == list(vocab.items())
    assert table.matrix.dtype == np.float32
    assert table.matrix.shape == matrix.shape
    assert (table.matrix.view(np.uint32) == matrix.view(np.uint32)).all()


_ROW = "w -0.30000001192092896 0.5 1.0000000116860974e-07 -12.75\n"
_HEAD = "3 4\n"
VEC_CASES = {
    "header": _HEAD + _ROW + _ROW.replace("w", "x") + _ROW.replace("w", "y"),
    "no-header": _ROW + _ROW.replace("w", "x"),
    "header-only": "3 4\n",
    "header-then-blank": "\n3 4\n" + _ROW,
    "blank-lines": _ROW + "\n\n" + _ROW.replace("w", "x"),
    "blank-last": _ROW + "\n",
    "no-final-newline": _ROW + _ROW.replace("w", "x").rstrip("\n"),
    "crlf": (_HEAD + _ROW + _ROW.replace("w", "x")).replace("\n", "\r\n"),
    "lone-cr": _ROW.replace("0.5 ", "0.5\r") + _ROW,
    "cr-in-header": "3 4\r" + _ROW,
    "cr-then-space": "a 1.0\r 2.0\nb 3.0 4.0\n",
    "tab": _ROW.replace(" 0.5 ", " 0.5\t") + _ROW.replace("w", "x"),
    "tab-in-word": "a\tb 1.0 2.0\nc 3.0 4.0\n",
    "nbsp": _ROW.replace(" 0.5 ", " 0.5\xa0") + _ROW.replace("w", "x"),
    "nbsp-in-word": "a\xa0b 1.0\nc 2.0\n",
    "nbsp-after-word": "a\xa0 1.0\nc 2.0\n",
    "x1c-after-word": "a\x1c 1.0\nc 2.0\n",
    "x1c": _ROW.replace(" 0.5 ", " 0.5\x1c") + _ROW.replace("w", "x"),
    "x1c-end": "a 1.0 2.0\x1c\nb 3.0 4.0\n",
    "double-space": _ROW.replace(" 0.5 ", " 0.5  "),
    "trailing-space": _ROW.replace("\n", " \n") + _ROW,
    "trailing-spaces": (_HEAD + _ROW + _ROW.replace("w", "x")).replace(
        "\n", " \n"),
    "two-trailing-spaces": _ROW.replace("\n", "  \n") + _ROW,
    "space-line": _ROW + " \n" + _ROW.replace("w", "x"),
    "space-line-first": " \n" + _HEAD + _ROW,
    "many-blank-lines": "\n" * 5 + _HEAD + "\n" * 7 + _ROW + "\n" * 3
                        + _ROW.replace("w", "x") + "\n" * 2,
    "blank-block-then-header": "\n" * 40 + "2 1\nw 1.5\nx 2.5\n",
    "leading-space": " " + _ROW + _ROW.replace("w", "x"),
    "forms": "a -0.0 .5 5. 007 +1 1_0 -.5 -0 0.000 1e-05 1E+2\n",
    "arabic-digit": "a 1.0 \u0663\n",
    "nan": "a 1.0 nan\n",
    "inf": "a inf 1.0\n",
    "infinity": "a 1.0 -Infinity\n",
    "overflow": "a 1.0 1e39\n",
    "overflow-decimal": "a 1.0 " + "9" * 39 + "\n",
    "float32-max": "a 3.4028234663852886e+38 -340282346638528859811704183484516925440.0\n",
    "subnormal": "a 1e-40 1.401298464324817e-45 -7e-46 "
                 "0.00000000000000000000000000000000000000000001\n",
    "digits-18": "a 123456789012345678 0.123456789012345678 "
                 "-99999999999999999.9\n",
    "digits-19": "a 1234567890123456789 0.1234567890123456789 "
                 "-9999999999999999999\n",
    "digits-20": "a 12345678901234567890 -0.12345678901234567890 "
                 "99999999999999999999.5\n",
    "digits-25": "a 1234567890123456789012345 0.1234567890123456789012345 "
                 "-0000000000000000000000001.5\n",
    "ragged-pair": "a " + " ".join(["1.5"] * 300) + "\n"
                   "b " + " ".join(["1.5"] * 301) + "\n"
                   "c " + " ".join(["1.5"] * 299) + "\n",
    "ragged": _ROW + "x 1.0 2.0\n",
    "no-components": _ROW + "x\n",
    "non-numeric": "a 1.0 2.0\nb 1.0 x\n",
    "bad-dash": "a 1-2 3\n",
    "lone-dash": "a - 3\n",
    "two-points": "a 1.2.3 3\n",
    "repeated": "a 1 2\nb 3 4\na 5 6\nc 7 8\nb 9 10\n",
    "word-like-number": "1.5 2.5 3.5\n-7 1 2\n",
    "header-like-row": "1 2\n3 4\n",
    "header-dim-above": "5 300\na 1.0 2.0\nb 3.0 4.0\n",
    "header-dim-below": "3 2\n" + _ROW,
    "header-dim-zero": "1 0\na 1.0\n",
    "header-dim-negative": "1 -2\na 1.0 2.0\n",
    "header-dim-zero-after-blanks": "\n \n0 0\n",
    "header-dim-trailing-spaces": "2 3 \na 1.0 2.0 \nb 3.0 4.0 \n",
    "header-dim-later-block": "2 3\n" + "\n" * 40 + "a 1.0 2.0\nb 3.0 4.0\n",
    "two-int-rows": "1 2 3\n4 5 6\n",
    "unicode-words": "caf\u00e9 1.0\n\u0391\u03a3 2.0\n\ud55c 3.0\n",
    "empty": "",
    "only-blank": "\n\n",
}


# Cases the bulk path must read on its own: blank lines and a space ending
# each row (fastText's .vec files end every row with one) are dropped there.
BULK_CASES = {
    "header", "no-header", "header-then-blank", "blank-lines", "blank-last",
    "trailing-space", "trailing-spaces", "space-line", "space-line-first",
    "many-blank-lines", "blank-block-then-header", "repeated", "unicode-words",
}


@pytest.mark.parametrize("block", [1 << 21, 16])
@pytest.mark.parametrize("name", sorted(VEC_CASES))
@pytest.mark.filterwarnings("ignore:overflow encountered in cast")
def test_vec_parse_equals_row_by_row_oracle(tmp_path, name, block):
    p = tmp_path / "t.vec"
    p.write_bytes(VEC_CASES[name].encode("utf-8"))
    text_rows = embeddings._text_rows
    if name in BULK_CASES:
        text_rows = mock.Mock(side_effect=AssertionError("row-by-row parse"))
    with mock.patch.object(embeddings, "_VEC_BLOCK", block), \
            mock.patch.object(embeddings, "_text_rows", text_rows):
        assert_parses_as_oracle(p)


@pytest.mark.parametrize("name, lineno, dim", [
    ("header-dim-zero", 1, 0), ("header-dim-negative", 1, -2),
    ("header-dim-zero-after-blanks", 3, 0)])
def test_header_dim_below_one_names_the_header_line(tmp_path, name, lineno,
                                                     dim):
    p = tmp_path / "t.vec"
    p.write_text(VEC_CASES[name], encoding="utf-8")
    message = f"{p}:{lineno}: header dim must be at least 1, got {dim}"
    for load in (load_vector_table, vector_file_dim):
        with pytest.raises(ValueError) as got:
            load(p)
        assert str(got.value) == message


@pytest.mark.parametrize("data", [
    b"a 1.0 2.0\nb\xff 3.0 4.0\n",      # in a word
    b"a 1.0 2.0\nb 3.0 \xc3\x28\n",     # in a component
    b"\xff\xfe 2\na 1.0 2.0\n",          # in the header line
    b"a 1.0\n" * 5000 + b"b \xe2\x82\n",  # past the first decoded chunk
], ids=["word", "component", "header", "late"])
def test_vec_parse_bad_utf8_raises_as_row_by_row(tmp_path, data):
    p = tmp_path / "t.vec"
    p.write_bytes(data)
    assert_parses_as_oracle(p)


def test_repr_written_file_takes_the_bulk_path(tmp_path):
    """A save_vector_table file, exponents and all, never reaches the
    row-by-row parser."""
    rng = np.random.default_rng(7)
    rows = rng.normal(size=(600, 40)) * 10.0 ** rng.integers(-9, 9, (600, 40))
    rows[0, :6] = [0.0, -0.0, 1.0, 3.0e38, -1e-38, 2.0 ** -149]
    table = make_vector_table({f"w{i}": r for i, r in enumerate(
        rows.astype(np.float32))})
    p = tmp_path / "t.vec"
    save_vector_table(table, p)
    fail = mock.Mock(side_effect=AssertionError("row-by-row parse"))
    with mock.patch.object(embeddings, "_text_rows", fail), \
            mock.patch.object(embeddings, "_VEC_BLOCK", 4096):
        assert_parses_as_oracle(p)
    fail.assert_not_called()


def _midpoint_strings(value):
    """Decimal strings at the float32 rounding midpoint above value: the
    midpoint double and its two neighbours, each as repr, %.17g and %.18g
    (a decimal float() must round)."""
    above = float(np.nextafter(np.float32(value), np.float32(np.inf)))
    mid = (float(np.float32(value)) + above) / 2
    near = (np.nextafter(mid, -np.inf), mid, np.nextafter(mid, np.inf))
    return [text for v in map(float, near)
            for text in (repr(v), "%.17g" % v, "%.18g" % v)]


def test_vec_parse_resolves_float32_midpoints_as_float_does(tmp_path):
    """Decimal strings at and one double ulp either side of float32
    rounding midpoints, where float32(float(token)) rounds the decimal
    twice: every one the bulk path accepts must match."""
    rng = np.random.default_rng(11)
    values = (rng.uniform(1.0, 10.0, 4000)
              * 10.0 ** rng.integers(-4, 7, 4000)).astype(np.float32)
    texts = [t for v in values.tolist() for t in _midpoint_strings(v)]
    rows = np.array(texts).reshape(-1, 12)
    p = tmp_path / "t.vec"
    p.write_text("".join(f"w{i} " + " ".join(r) + "\n"
                         for i, r in enumerate(rows)))
    fail = mock.Mock(side_effect=AssertionError("row-by-row parse"))
    with mock.patch.object(embeddings, "_text_rows", fail):
        assert_parses_as_oracle(p)


FLOAT32 = st.floats(width=32, allow_nan=False, allow_infinity=False)


@st.composite
def vec_texts(draw):
    """Rows of float32 values, each written as repr, %.9g, %.6e or %.17g
    of the value or as a decimal string at a float32 rounding midpoint."""
    dim = draw(st.integers(1, 6))
    token = st.one_of(
        st.tuples(st.sampled_from(["%r", "%.9g", "%.6e", "%.17g"]),
                  FLOAT32).map(lambda fv: fv[0] % fv[1]),
        FLOAT32.filter(lambda v: abs(v) < 3.0e38).flatmap(
            lambda v: st.sampled_from(_midpoint_strings(v))))
    rows = draw(st.lists(st.lists(token, min_size=dim, max_size=dim),
                         min_size=1, max_size=8))
    lines = [f"w{i} " + " ".join(r) for i, r in enumerate(rows)]
    if draw(st.booleans()):
        lines.insert(0, f"{len(rows)} {dim}")
    return "\n".join(lines) + "\n", draw(st.sampled_from([16, 1 << 21]))


@settings(max_examples=300, deadline=None)
@given(vec_texts())
def test_vec_parse_equals_oracle_on_float32_texts(tmp_path_factory, case):
    text, block = case
    p = tmp_path_factory.mktemp("vec") / "t.vec"
    p.write_text(text, encoding="utf-8")
    fail = mock.Mock(side_effect=AssertionError("row-by-row parse"))
    with mock.patch.object(embeddings, "_text_rows", fail), \
            mock.patch.object(embeddings, "_VEC_BLOCK", block):
        assert_parses_as_oracle(p)
