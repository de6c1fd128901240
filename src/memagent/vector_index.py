"""Deterministic text embeddings and an exact in-memory similarity index.

The built-in embedder hashes character trigrams into a fixed number of
buckets and L2-normalizes, so results are reproducible with no model.
Search is exact brute force: desk-scale stores make approximate indexing
pointless and exactness keeps test oracles simple.

Every similarity score is one per-pair ``np.dot`` divided by the two 1-D
norms, each norm taken once per vector. A matrix product or a vectorised
``norm(axis=1)`` sums in another order and can move a score across theta in
the last bit (``apple 1`` vs ``apple 2`` scores 0.7999999999999999).
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .core import canonical_json, canonical_name

DEFAULT_DIM = 64
DEFAULT_THETA = 0.8
#: Distinct (text, dim) embeddings kept; one suite run uses about 500.
EMBED_CACHE_SIZE = 4096


class EmptyTextError(ValueError):
    pass


class DimensionMismatchError(ValueError):
    pass


class NotFoundError(KeyError):
    pass


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


@dataclass(frozen=True)
class IndexEntry:
    id: str
    text: str
    embedding: np.ndarray
    payload: Any = None

    def to_doc(self) -> dict:
        return {
            "id": self.id,
            "text": self.text,
            "embedding": [float(x) for x in self.embedding],
            "payload": self.payload,
        }


class VectorIndex:
    """Exact cosine-similarity index keyed by entry id (last write wins).

    Each entry's embedding norm is taken once, at upsert, and kept beside
    it; entries are not mutated after they are stored."""

    def __init__(self, dim: int = DEFAULT_DIM):
        self.dim = dim
        self._entries: Dict[str, Tuple[IndexEntry, float]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, entry_id: str) -> bool:
        return entry_id in self._entries

    def get(self, entry_id: str) -> Optional[IndexEntry]:
        stored = self._entries.get(entry_id)
        return stored[0] if stored is not None else None

    def entries(self) -> List[IndexEntry]:
        return [self._entries[k][0] for k in sorted(self._entries)]

    def upsert(self, entry: IndexEntry) -> None:
        if entry.embedding.shape != (self.dim,):
            raise DimensionMismatchError(
                f"entry dim {entry.embedding.shape} != index dim ({self.dim},)"
            )
        self._entries[entry.id] = (entry, float(np.linalg.norm(entry.embedding)))

    def remove(self, entry_id: str) -> None:
        if entry_id not in self._entries:
            raise NotFoundError(entry_id)
        del self._entries[entry_id]

    def search(
        self, query: np.ndarray, k: int, theta: float = DEFAULT_THETA
    ) -> List[Tuple[IndexEntry, float]]:
        """Top-k entries with cosine score >= theta, sorted by descending
        score then ascending id."""
        if k < 1:
            raise ValueError("k must be >= 1")
        if query.shape != (self.dim,):
            raise DimensionMismatchError(
                f"query dim {query.shape} != index dim ({self.dim},)"
            )
        query_norm = float(np.linalg.norm(query))
        scored = [
            (entry, cosine_with_norms(query, query_norm, entry.embedding, norm))
            for entry, norm in self._entries.values()
        ]
        kept = [(e, s) for e, s in scored if s >= theta]
        kept.sort(key=lambda pair: (-pair[1], pair[0].id))
        return kept[:k]

    def snapshot(self) -> str:
        """Canonical JSON snapshot of the full index state."""
        return canonical_json(
            {"dim": self.dim, "entries": [e.to_doc() for e in self.entries()]}
        )

    @classmethod
    def restore(cls, snapshot: str) -> "VectorIndex":
        import json

        doc = json.loads(snapshot)
        index = cls(dim=doc["dim"])
        for entry_doc in doc["entries"]:
            index.upsert(
                IndexEntry(
                    id=entry_doc["id"],
                    text=entry_doc["text"],
                    embedding=np.array(entry_doc["embedding"], dtype=np.float64),
                    payload=entry_doc["payload"],
                )
            )
        return index
