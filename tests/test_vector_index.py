import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from memagent.vector_index import (
    DimensionMismatchError,
    EmptyTextError,
    HashingEmbedder,
    NotFoundError,
    VectorIndex,
    cosine,
    cosine_with_norms,
)

texts = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), max_codepoint=0x24F),
    min_size=1,
    max_size=30,
).filter(lambda s: s.strip())


class TestHashingEmbedder:
    def test_deterministic(self):
        e = HashingEmbedder()
        assert np.array_equal(e.embed("kitchen counter"), e.embed("kitchen counter"))

    def test_case_and_whitespace_invariant(self):
        e = HashingEmbedder()
        assert np.array_equal(e.embed(" Kitchen  Counter "), e.embed("kitchen counter"))

    def test_empty_text_rejected(self):
        for _ in range(2):  # a memoized embedder must raise on every call
            with pytest.raises(EmptyTextError):
                HashingEmbedder().embed("   ")

    def test_repeat_calls_share_one_read_only_array(self):
        vec = HashingEmbedder().embed("kitchen counter")
        assert HashingEmbedder().embed("kitchen counter") is vec
        assert not vec.flags.writeable
        with pytest.raises(ValueError):
            vec[0] = 1.0

    @given(texts)
    @settings(max_examples=50)
    def test_unit_norm(self, text):
        vec = HashingEmbedder().embed(text)
        assert vec.shape == (64,)
        assert abs(float(np.linalg.norm(vec)) - 1.0) < 1e-9

    def test_similar_strings_score_high(self):
        e = HashingEmbedder()
        near = cosine(e.embed("kitchen counter"), e.embed("kitchen countertop"))
        far = cosine(e.embed("kitchen counter"), e.embed("banana"))
        assert near > 0.8
        assert far < near


class TestCosine:
    def test_orthogonal(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        assert cosine(a, b) == 0.0

    def test_zero_vector_scores_zero(self):
        assert cosine(np.zeros(3), np.ones(3)) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            cosine(np.ones(3), np.ones(4))


class Reference:
    """A VectorIndex and an independent id -> vector map, written together;
    the map is what the brute-force search and the store checks read."""

    def __init__(self, dim=64):
        self.index = VectorIndex(dim=dim)
        self.vectors = {}

    def upsert(self, entry_id, vec):
        self.index.upsert(entry_id, vec)
        self.vectors[entry_id] = vec

    def remove(self, entry_id):
        self.index.remove(entry_id)
        del self.vectors[entry_id]


def brute_force(vectors, query, k, theta):
    """Independent reference over an id -> vector map: score everything,
    filter, sort, truncate."""
    query_norm = float(np.linalg.norm(query))
    scored = [
        (i, cosine_with_norms(query, query_norm, vec, float(np.linalg.norm(vec))))
        for i, vec in vectors.items()
    ]
    scored = [(i, s) for i, s in scored if s >= theta]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]


def assert_store_consistent(ref):
    """The id-to-row map, the (id, embedding, norm) rows and the unit rows
    agree with each other and with the reference's vectors."""
    index = ref.index
    assert sorted(index._row_of.values()) == list(range(len(index)))
    assert sorted(index._row_of) == sorted(ref.vectors)
    for entry_id, row in index._row_of.items():
        row_id, embedding, norm = index._rows[row]
        assert row_id == entry_id
        assert np.array_equal(embedding, ref.vectors[entry_id])
        assert norm == float(np.linalg.norm(embedding))
        unit = embedding / norm if norm else np.zeros(index.dim)
        assert np.array_equal(index._unit[row], unit)


class TestVectorIndex:
    def test_upsert_is_last_write_wins(self):
        e = HashingEmbedder()
        index = VectorIndex()
        index.upsert("a", e.embed("banana"))
        index.upsert("a", e.embed("apple"))
        assert len(index) == 1
        assert index.search(e.embed("apple"), k=2, theta=0.0) == [("a", 1.0)]

    def test_remove_missing_raises(self):
        with pytest.raises(NotFoundError):
            VectorIndex().remove("ghost")

    def test_dim_mismatch_rejected(self):
        index = VectorIndex(dim=8)
        with pytest.raises(DimensionMismatchError):
            index.upsert("a", HashingEmbedder().embed("banana"))

    def test_k_must_be_positive(self):
        index = VectorIndex()
        with pytest.raises(ValueError):
            index.search(HashingEmbedder().embed("x"), k=0, theta=0.0)

    def test_theta_filters(self):
        e = HashingEmbedder()
        index = VectorIndex()
        index.upsert("a", e.embed("kitchen counter"))
        index.upsert("b", e.embed("banana"))
        hits = index.search(e.embed("kitchen countertop"), k=5, theta=0.8)
        assert [i for i, _ in hits] == ["a"]

    def test_tie_break_by_id(self):
        e = HashingEmbedder()
        index = VectorIndex()
        index.upsert("b", e.embed("cup"))
        index.upsert("a", e.embed("cup"))
        hits = index.search(e.embed("cup"), k=2, theta=0.0)
        assert [i for i, _ in hits] == ["a", "b"]

    @given(st.lists(texts, min_size=1, max_size=20, unique=True), texts, st.integers(1, 10))
    @settings(max_examples=50, deadline=None)
    def test_matches_brute_force_oracle(self, corpus, query, k):
        e = HashingEmbedder()
        ref = Reference()
        for i, text in enumerate(corpus):
            ref.upsert(f"e{i}", e.embed(text))
        got = ref.index.search(e.embed(query), k=k, theta=0.3)
        assert got == brute_force(ref.vectors, e.embed(query), k, 0.3)

    @given(st.lists(texts, min_size=1, max_size=12), st.data())
    @settings(max_examples=60, deadline=None)
    def test_search_among_ids_matches_brute_force_over_them(self, corpus, data):
        e = HashingEmbedder()
        ref = Reference()
        for i, text in enumerate(corpus + corpus[:2]):  # repeated texts tie exactly
            ref.upsert(f"e{i:02d}", e.embed(text))
        among = data.draw(st.sets(st.sampled_from(sorted(ref.vectors))))
        query = e.embed(data.draw(st.sampled_from(corpus + ["kitchen counter"])))
        theta = data.draw(st.sampled_from([0.0, 0.3, 1.0]))
        k = data.draw(st.integers(1, len(ref.index) + 2))
        got = ref.index.search(query, k=k, theta=theta, among=among)
        want = brute_force({i: ref.vectors[i] for i in among}, query, k, theta)
        assert got == want

    def test_stored_norm_follows_overwrite_and_swap_delete(self):
        ref = Reference(dim=2)
        ref.upsert("a", np.array([3.0, 4.0]))
        ref.upsert("a", np.array([2.0, 0.0]))
        ref.upsert("b", np.array([0.0, 0.0]))
        ref.upsert("c", np.array([0.0, 5.0]))
        query = np.array([1.0, 0.0])
        want = [("a", 1.0), ("b", 0.0), ("c", 0.0)]
        assert ref.index.search(query, k=3, theta=0.0) == want
        ref.remove("a")  # "c" moves into the freed first row
        assert_store_consistent(ref)
        assert ref.index.search(query, k=3, theta=0.0) == want[1:]
        assert ref.index.search(np.array([0.0, 1.0]), k=1, theta=0.8) == [("c", 1.0)]

    def test_non_finite_vectors_rejected(self):
        index = VectorIndex(dim=2)
        with pytest.raises(ValueError):
            index.upsert("a", np.array([np.nan, 1.0]))
        assert len(index) == 0
        index.upsert("a", np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            index.search(np.array([np.inf, 0.0]), k=1, theta=0.0)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_search_matches_brute_force_under_mutation(self, data):
        e = HashingEmbedder()
        pool = data.draw(st.lists(texts, min_size=1, max_size=6, unique=True))
        ops = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(
                        ["new", "overwrite", "duplicate", "zero", "remove_last", "remove_middle"]
                    ),
                    st.integers(0, 50),
                    st.sampled_from(pool),
                ),
                min_size=1,
                max_size=14,
            )
        )
        ref = Reference()
        index = ref.index
        zero = np.zeros(index.dim)
        next_id = 0
        for op, pick, text in ops:
            ids = [index._rows[row][0] for row in range(len(index))]
            if not ids and op != "zero":
                op = "new"
            if op == "remove_last":
                ref.remove(ids[-1])
            elif op == "remove_middle":
                ref.remove(ids[pick % len(ids)])
            elif op == "overwrite":
                ref.upsert(ids[pick % len(ids)], e.embed(text))
            else:
                if op == "duplicate":  # same embedding: exact ties at every score
                    vec = ref.vectors[ids[pick % len(ids)]]
                else:
                    vec = zero if op == "zero" else e.embed(text)
                ref.upsert(f"e{next_id:02d}", vec)
                next_id += 1
            assert_store_consistent(ref)
            query = e.embed(data.draw(st.sampled_from(pool + ["kitchen counter"])))
            query = query * data.draw(st.sampled_from([1.0, 0.25, 4.0]))  # not only unit queries
            scores = sorted({s for _, s in brute_force(ref.vectors, query, len(index), -1.0)})
            thetas = [0.0, 1.0] + ([data.draw(st.sampled_from(scores))] if scores else [])
            for theta in thetas:
                for k in range(1, len(index) + 3):
                    got = index.search(query, k=k, theta=theta)
                    assert got == brute_force(ref.vectors, query, k, theta)
