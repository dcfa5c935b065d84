from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdecomp import embeddings
from qdecomp.embeddings import (
    cosine,
    embed_blocks,
    embed_text_sum,
    load_vector_table,
    make_vector_table,
    save_vector_table,
    unit_normalize,
    vector_file_dim,
)

from oracles import embed_sum_oracle


def test_embed_text_sum_adds_known_words(tiny_table):
    emb = embed_text_sum(["who", "wrote", "hamlet"], tiny_table)
    assert not emb.is_zero
    np.testing.assert_allclose(emb.vector, [2.0, 1.0, 1.0, 0.0])
    assert emb.vector.dtype == np.float64


def test_embed_text_sum_skips_unknown_words(tiny_table):
    a = embed_text_sum(["who", "zzz"], tiny_table)
    b = embed_text_sum(["who"], tiny_table)
    np.testing.assert_array_equal(a.vector, b.vector)


def test_embed_text_sum_all_unknown_is_zero(tiny_table):
    emb = embed_text_sum(["zzz", "yyy"], tiny_table)
    assert emb.is_zero
    assert not emb.vector.any()


def test_unit_normalize():
    v = unit_normalize(np.array([3.0, 4.0]))
    np.testing.assert_allclose(v, [0.6, 0.8])
    with pytest.raises(ValueError):
        unit_normalize(np.zeros(2))


def test_cosine_basic():
    assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0
    assert cosine(np.array([2.0, 0.0]), np.array([5.0, 0.0])) == 1.0
    with pytest.raises(ValueError):
        cosine(np.zeros(2), np.array([1.0, 0.0]))


@given(st.lists(st.floats(-10, 10), min_size=2, max_size=6),
       st.floats(0.1, 50.0))
def test_cosine_scale_invariant_and_bounded(vals, scale):
    v = np.array(vals)
    if np.linalg.norm(v) < 1e-9:
        return
    c = cosine(v, v * scale)
    assert -1.0 <= c <= 1.0
    assert c == pytest.approx(1.0, abs=1e-12)


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
    np.testing.assert_array_equal(embed_text_sum(["a", "a"], table).vector,
                                  [6.0, 8.0])


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
