"""Deterministic text embeddings and an exact in-memory similarity index,
which keeps vectors by id: the caller's store keeps the entries.

The built-in embedder hashes character trigrams into a fixed number of
buckets and L2-normalizes, so results are reproducible with no model.

Every similarity score is one per-pair ``np.dot`` divided by the two 1-D
norms, each norm taken once per vector. A matrix product or a vectorised
``norm(axis=1)`` sums in another order and can move a score across theta in
the last bit (``apple 1`` vs ``apple 2`` scores 0.7999999999999999).

Search is exact, pruned by a matrix product that never decides. One
matrix-vector product of the stored unit rows with the query gives each
row's approximate score (times the query norm). Only rows whose approximate
score reaches ``max(theta, k-th largest approximate score) - PRUNE_SLACK``
are rescored with the per-pair formula, and only those exact scores meet
the theta test, the sort and the cut. Both ways of scoring sum the same
products in another order, so for finite vectors (squared norms that
neither overflow nor underflow) they differ by a few ulps, about 1e-15 at
64 dimensions. With a slack of 1e-9, far more than twice that, every row of
the exact top k at or above theta survives the prune, ties at the k-th
score included. A search given ``among`` ids runs the same steps over only
their rows.
"""

from __future__ import annotations

import functools
import hashlib
import math
from typing import Collection, Dict, List, Optional, Tuple

import numpy as np

from .core import canonical_name

DEFAULT_DIM = 64
#: Distinct (text, dim) embeddings kept; one suite run uses about 500.
EMBED_CACHE_SIZE = 4096
#: Distinct (trigram, dim) buckets kept; a warm suite run hashes about 1,100.
BUCKET_CACHE_SIZE = 8192
#: How far below the pruning floor a row may score and still be rescored
#: (see the module docstring).
PRUNE_SLACK = 1e-9


class EmptyTextError(ValueError):
    pass


class DimensionMismatchError(ValueError):
    pass


class NotFoundError(KeyError):
    pass


@functools.lru_cache(maxsize=BUCKET_CACHE_SIZE)
def _bucket(gram: str, dim: int) -> int:
    digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=4).digest()
    return int.from_bytes(digest, "big") % dim


@functools.lru_cache(maxsize=EMBED_CACHE_SIZE)
def _embed(text: str, dim: int) -> np.ndarray:
    normalized = canonical_name(text)
    if not normalized:
        raise EmptyTextError("cannot embed empty text")
    padded = f"  {normalized} "
    vec = np.zeros(dim, dtype=np.float64)
    for i in range(len(padded) - 2):
        vec[_bucket(padded[i : i + 3], dim)] += 1.0
    norm = float(np.linalg.norm(vec))
    vec = vec / norm
    vec.setflags(write=False)  # one shared object per text: callers must not write
    return vec


class HashingEmbedder:
    """Character-trigram feature hashing, L2-normalized.

    Embeddings are memoized per (text, dim) and returned read-only, so
    repeat calls return the same array object."""

    def __init__(self, dim: int = DEFAULT_DIM):
        self.dim = dim

    def embed(self, text: str) -> np.ndarray:
        return _embed(text, self.dim)


def cosine_with_norms(a: np.ndarray, a_norm: float, b: np.ndarray, b_norm: float) -> float:
    """Cosine of ``a`` and ``b`` given their precomputed L2 norms; 0.0 when
    either norm is zero. The one scoring formula behind every theta test."""
    if a_norm == 0.0 or b_norm == 0.0:
        return 0.0
    return float(np.dot(a, b) / (a_norm * b_norm))


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape != b.shape:
        raise DimensionMismatchError(f"{a.shape} vs {b.shape}")
    return cosine_with_norms(a, float(np.linalg.norm(a)), b, float(np.linalg.norm(b)))


def _rank(hit: Tuple[str, float]) -> Tuple[float, str]:
    return -hit[1], hit[0]


def _finite_norm(vec: np.ndarray) -> float:
    # The arithmetic of np.linalg.norm on a 1-D float64 vector, without its
    # argument handling.
    norm = math.sqrt(vec.dot(vec))
    if not math.isfinite(norm):
        raise ValueError("vector norm is not finite")
    return norm


class VectorIndex:
    """Exact cosine-similarity index of vectors keyed by id (last write
    wins). It keeps no entry: the caller maps the ids a search returns to
    its own entries.

    Row ``i`` holds ``_rows[i] = (id, embedding, norm)``, the norm taken once
    at upsert, and ``_unit[i]``, the embedding divided by that norm (a zero
    row for a zero vector). ``_row_of`` maps each id to its row. A new id is
    appended (the matrix doubles when full), a re-upsert overwrites its row
    in place and ``remove`` moves the last row into the freed one."""

    def __init__(self, dim: int = DEFAULT_DIM):
        self.dim = dim
        self._rows: List[Tuple[str, np.ndarray, float]] = []
        self._row_of: Dict[str, int] = {}
        self._unit = np.zeros((0, dim), dtype=np.float64)

    def __len__(self) -> int:
        return len(self._rows)

    def upsert(self, entry_id: str, embedding: np.ndarray) -> None:
        if embedding.shape != (self.dim,):
            raise DimensionMismatchError(f"vector dim {embedding.shape} != index dim ({self.dim},)")
        norm = _finite_norm(embedding)
        row = self._row_of.get(entry_id)
        if row is None:
            row = len(self._rows)
            if row == len(self._unit):
                grown = np.zeros((max(16, 2 * row), self.dim), dtype=np.float64)
                grown[:row] = self._unit
                self._unit = grown
            self._row_of[entry_id] = row
            self._rows.append((entry_id, embedding, norm))
        else:
            self._rows[row] = (entry_id, embedding, norm)
        if norm:
            np.divide(embedding, norm, out=self._unit[row])
        else:
            self._unit[row] = 0.0

    def remove(self, entry_id: str) -> None:
        row = self._row_of.pop(entry_id, None)
        if row is None:
            raise NotFoundError(entry_id)
        last = self._rows.pop()
        if row < len(self._rows):
            self._rows[row] = last
            self._row_of[last[0]] = row
            self._unit[row] = self._unit[len(self._rows)]

    def search(
        self,
        query: np.ndarray,
        k: int,
        theta: float,
        among: Optional[Collection[str]] = None,
    ) -> List[Tuple[str, float]]:
        """The ids of the top-k vectors with cosine score >= theta, with
        their scores, sorted by descending score then ascending id. The
        scores are the per-pair formula's; the matrix product only prunes
        (see the module docstring). With ``among``, a collection of stored
        ids, only their vectors are candidates, and the search costs their
        number, not the index's."""
        if k < 1:
            raise ValueError("k must be >= 1")
        query_norm = self._query_norm(query)
        if among is None:
            candidates = range(len(self._rows))
            unit = self._unit[: len(self._rows)]
        else:
            candidates = [self._row_of[entry_id] for entry_id in among]
            unit = self._unit.take(candidates, axis=0)
        n = len(candidates)
        # Each candidate's approximate score, times query_norm.
        scaled = unit @ query
        floor = theta * query_norm
        if n > k:
            floor = max(floor, float(np.partition(scaled, n - k)[n - k]))
        rows = self._rows
        kept = []
        for i in (scaled >= floor - PRUNE_SLACK * query_norm).nonzero()[0].tolist():
            entry_id, embedding, norm = rows[candidates[i]]
            score = cosine_with_norms(query, query_norm, embedding, norm)
            if score >= theta:
                kept.append((entry_id, score))
        kept.sort(key=_rank)
        return kept[:k]

    def _query_norm(self, query: np.ndarray) -> float:
        if query.shape != (self.dim,):
            raise DimensionMismatchError(
                f"query dim {query.shape} != index dim ({self.dim},)"
            )
        return _finite_norm(query)
