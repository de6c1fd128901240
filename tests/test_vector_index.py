import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from memagent.vector_index import (
    DimensionMismatchError,
    EmptyTextError,
    HashingEmbedder,
    IndexEntry,
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


def _entry(eid: str, text: str, embedder=HashingEmbedder()) -> IndexEntry:
    return IndexEntry(id=eid, text=text, embedding=embedder.embed(text))


def brute_force(index_entries, query, k, theta):
    """Independent reference: score everything, filter, sort, truncate."""
    query_norm = float(np.linalg.norm(query))
    scored = [
        (e, cosine_with_norms(query, query_norm, e.embedding, float(np.linalg.norm(e.embedding))))
        for e in index_entries
    ]
    scored = [(e, s) for e, s in scored if s >= theta]
    scored.sort(key=lambda pair: (-pair[1], pair[0].id))
    return scored[:k]


def assert_store_consistent(index):
    """The id-to-row map, the (entry, norm) rows and the unit rows agree."""
    assert sorted(index._row_of.values()) == list(range(len(index)))
    for entry_id, row in index._row_of.items():
        entry, norm = index._rows[row]
        assert entry.id == entry_id
        assert norm == float(np.linalg.norm(entry.embedding))
        unit = entry.embedding / norm if norm else np.zeros(index.dim)
        assert np.array_equal(index._unit[row], unit)


class TestVectorIndex:
    def test_upsert_is_last_write_wins(self):
        index = VectorIndex()
        index.upsert(_entry("a", "banana"))
        index.upsert(_entry("a", "apple"))
        assert len(index) == 1
        assert index.get("a").text == "apple"

    def test_remove_missing_raises(self):
        with pytest.raises(NotFoundError):
            VectorIndex().remove("ghost")

    def test_dim_mismatch_rejected(self):
        index = VectorIndex(dim=8)
        with pytest.raises(DimensionMismatchError):
            index.upsert(_entry("a", "banana"))

    def test_k_must_be_positive(self):
        index = VectorIndex()
        with pytest.raises(ValueError):
            index.search(HashingEmbedder().embed("x"), k=0, theta=0.0)

    def test_theta_filters(self):
        e = HashingEmbedder()
        index = VectorIndex()
        index.upsert(_entry("a", "kitchen counter"))
        index.upsert(_entry("b", "banana"))
        hits = index.search(e.embed("kitchen countertop"), k=5, theta=0.8)
        assert [h.id for h, _ in hits] == ["a"]

    def test_tie_break_by_id(self):
        e = HashingEmbedder()
        index = VectorIndex()
        index.upsert(_entry("b", "cup"))
        index.upsert(_entry("a", "cup"))
        hits = index.search(e.embed("cup"), k=2, theta=0.0)
        assert [h.id for h, _ in hits] == ["a", "b"]

    @given(st.lists(texts, min_size=1, max_size=20, unique=True), texts, st.integers(1, 10))
    @settings(max_examples=50, deadline=None)
    def test_matches_brute_force_oracle(self, corpus, query, k):
        e = HashingEmbedder()
        index = VectorIndex()
        for i, text in enumerate(corpus):
            index.upsert(_entry(f"e{i}", text, e))
        got = index.search(e.embed(query), k=k, theta=0.3)
        want = brute_force(index.entries(), e.embed(query), k, 0.3)
        assert [(h.id, s) for h, s in got] == [(h.id, s) for h, s in want]

    @given(st.lists(texts, min_size=1, max_size=12), st.data())
    @settings(max_examples=60, deadline=None)
    def test_search_among_ids_matches_brute_force_over_them(self, corpus, data):
        e = HashingEmbedder()
        index = VectorIndex()
        for i, text in enumerate(corpus + corpus[:2]):  # repeated texts tie exactly
            index.upsert(_entry(f"e{i:02d}", text, e))
        among = data.draw(st.sets(st.sampled_from(sorted(index._row_of))))
        query = e.embed(data.draw(st.sampled_from(corpus + ["kitchen counter"])))
        theta = data.draw(st.sampled_from([0.0, 0.3, 1.0]))
        k = data.draw(st.integers(1, len(index) + 2))
        got = index.search(query, k=k, theta=theta, among=among)
        want = brute_force([x for x in index.entries() if x.id in among], query, k, theta)
        assert [(h.id, s) for h, s in got] == [(h.id, s) for h, s in want]

    def test_stored_norm_follows_overwrite_and_swap_delete(self):
        index = VectorIndex(dim=2)
        index.upsert(IndexEntry(id="a", text="a", embedding=np.array([3.0, 4.0])))
        index.upsert(IndexEntry(id="a", text="a", embedding=np.array([2.0, 0.0])))
        index.upsert(IndexEntry(id="b", text="b", embedding=np.array([0.0, 0.0])))
        index.upsert(IndexEntry(id="c", text="c", embedding=np.array([0.0, 5.0])))
        query = np.array([1.0, 0.0])
        want = [("a", 1.0), ("b", 0.0), ("c", 0.0)]
        assert [(h.id, s) for h, s in index.search(query, k=3, theta=0.0)] == want
        index.remove("a")  # "c" moves into the freed first row
        assert_store_consistent(index)
        assert [(h.id, s) for h, s in index.search(query, k=3, theta=0.0)] == want[1:]
        hits = index.search(np.array([0.0, 1.0]), k=1, theta=0.8)
        assert [(h.id, s) for h, s in hits] == [("c", 1.0)]

    def test_non_finite_vectors_rejected(self):
        index = VectorIndex(dim=2)
        with pytest.raises(ValueError):
            index.upsert(IndexEntry(id="a", text="a", embedding=np.array([np.nan, 1.0])))
        assert len(index) == 0
        index.upsert(IndexEntry(id="a", text="a", embedding=np.array([1.0, 0.0])))
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
        index = VectorIndex()
        zero = np.zeros(index.dim)
        next_id = 0
        for op, pick, text in ops:
            ids = [index._rows[row][0].id for row in range(len(index))]
            if not ids and op != "zero":
                op = "new"
            if op == "remove_last":
                index.remove(ids[-1])
            elif op == "remove_middle":
                index.remove(ids[pick % len(ids)])
            elif op == "overwrite":
                old_id = ids[pick % len(ids)]
                index.upsert(IndexEntry(id=old_id, text=text, embedding=e.embed(text)))
            else:
                if op == "duplicate":  # same embedding: exact ties at every score
                    text = index.get(ids[pick % len(ids)]).text
                vec = zero if op == "zero" else e.embed(text)
                index.upsert(IndexEntry(id=f"e{next_id:02d}", text=text, embedding=vec))
                next_id += 1
            assert_store_consistent(index)
            query = e.embed(data.draw(st.sampled_from(pool + ["kitchen counter"])))
            query = query * data.draw(st.sampled_from([1.0, 0.25, 4.0]))  # not only unit queries
            scores = sorted({s for _, s in brute_force(index.entries(), query, len(index), -1.0)})
            thetas = [0.0, 1.0] + ([data.draw(st.sampled_from(scores))] if scores else [])
            for theta in thetas:
                for k in range(1, len(index) + 3):
                    got = index.search(query, k=k, theta=theta)
                    want = brute_force(index.entries(), query, k, theta)
                    assert [(h.id, s) for h, s in got] == [(h.id, s) for h, s in want]
