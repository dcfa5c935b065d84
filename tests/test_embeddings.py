import numpy as np
import pytest
from hypothesis import given, strategies as st

from qdecomp.embeddings import (
    cosine,
    embed_text_sum,
    load_vector_table,
    make_vector_table,
    save_vector_table,
    unit_normalize,
)


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
    np.testing.assert_array_equal(back.entries["a"], table.entries["a"])
    np.testing.assert_array_equal(back.entries["b"], table.entries["b"])


def test_vector_table_headerless_file(tmp_path):
    p = tmp_path / "t.vec"
    p.write_text("a 1.0 0.0\nb 0.0 1.0\n")
    table = load_vector_table(p)
    assert table.dim == 2
    assert set(table.entries) == {"a", "b"}


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

