"""Exact inner-product fingerprint index with binary persistence.

Brute-force dot products only; results are bit-reproducible and identical
to a linear scan by contract. In memory the entries are one structured
array of the on-disk `.vlix` record, written and read in one call.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

INDEX_MAGIC = b"VLIX"
INDEX_VERSION = 1
UNIT_NORM_TOL = 1e-4
_HEADER = struct.Struct("<4sIIQ")  # magic, version, dim, entry count
HEADER_BYTES = _HEADER.size
# Group size and smallest index of the top-k pre-selection (`_candidates`), set by
# timing k = 1 and k = 10 searches at d = 32 on one BLAS thread: 64 rows per group
# was fastest of 16..512 on 100k entries, and below about 8k entries grouping
# costs more than it saves.
GROUP_ROWS = 64
GROUPED_MIN_ROWS = 8192


def record_dtype(dim: int) -> np.dtype:
    """One `.vlix` entry: packed little-endian, 20 + 4*dim bytes, no padding."""
    fields = [("audio_id", "<u8"), ("segment_ord", "<u4"), ("start_time", "<f4"), ("duration", "<f4")]
    return np.dtype(fields + [("vector", "<f4", (dim,))])


@dataclass(frozen=True)
class IndexEntry:
    vector: np.ndarray  # float32, unit L2
    audio_id: int
    segment_ord: int
    start_time: float
    duration: float


def _check_vectors(vectors: np.ndarray) -> None:
    """Every row must be unit L2 within UNIT_NORM_TOL; a NaN or inf norm fails too."""
    norms = np.linalg.norm(vectors, axis=1)
    bad = ~(np.abs(norms - 1.0) <= UNIT_NORM_TOL)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"entry {i}: vector norm {norms[i]:.6f} not unit within {UNIT_NORM_TOL}")


def _candidates(scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending rows that hold every score at or above the k-th best, ties included,
    and their negated scores.

    The first GROUP_ROWS * G rows form G strided groups (group g is rows g,
    g + G, g + 2G, ...) and the rest, fewer than GROUP_ROWS, is the tail. One
    reduction finds each group's best score, ignoring NaN. If more than k
    groups exist and at least k have a non-NaN best, let u be the k-th best
    of those: k groups hold a score >= u, so the k-th best score is >= u, and
    every row scoring that much lies in a group whose best is >= u or in the
    tail. Only those rows are returned. Otherwise, and for an index under
    GROUPED_MIN_ROWS entries, every row is.
    """
    n = len(scores)
    groups = n // GROUP_ROWS
    if n >= GROUPED_MIN_ROWS and groups > k:
        body = scores[: groups * GROUP_ROWS].reshape(GROUP_ROWS, groups)
        best = np.fmax.reduce(body, axis=0)
        u = -np.partition(-best, k - 1)[k - 1]  # NaN when fewer than k groups hold a number
        if not np.isnan(u):
            kept = np.flatnonzero(best >= u)
            rows = (np.arange(0, groups * GROUP_ROWS, groups)[:, None] + kept).ravel()
            rows = np.concatenate([rows, np.arange(groups * GROUP_ROWS, n)])
            return rows, -scores[rows]
    return np.arange(n), -scores


class FingerprintIndex:
    """Append-only store of unit vectors with provenance and exact top-k search.

    The entries are `records`, one array of `record_dtype(dim)`; `insert`
    appends to it by concatenation, so build an index in one call.
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = dim
        self.records = np.empty(0, record_dtype(dim))

    def __len__(self) -> int:
        return len(self.records)

    def insert(self, entry: IndexEntry) -> None:
        self._append([entry])

    @classmethod
    def build(cls, entries: list[IndexEntry]) -> "FingerprintIndex":
        if not entries:
            raise ValueError("cannot build an index from zero entries")
        index = cls(int(np.asarray(entries[0].vector).shape[0]))
        index._append(entries)
        return index

    @classmethod
    def from_records(cls, records: np.ndarray) -> "FingerprintIndex":
        """Index over an array of `record_dtype(dim)` after checking its vectors."""
        index = cls(records.dtype["vector"].shape[0])
        _check_vectors(records["vector"])
        index.records = records
        return index

    def _append(self, entries: list[IndexEntry]) -> None:
        """Validate a non-empty batch of entries, then add it in bulk."""
        vectors = np.asarray([e.vector for e in entries], dtype=np.float32)
        if vectors.shape[1:] != (self.dim,):
            raise ValueError(f"vector dim {vectors.shape[1:]} != index dim ({self.dim},)")
        _check_vectors(vectors)
        audio_ids = [e.audio_id for e in entries]
        segment_ords = [e.segment_ord for e in entries]
        for name, values, bits in (("audio_id", audio_ids, 64), ("segment_ord", segment_ords, 32)):
            if min(values) < 0 or max(values) >= 1 << bits:
                raise ValueError(f"{name} outside the u{bits} range in {min(values)}..{max(values)}")
        rows = np.empty(len(entries), self.records.dtype)
        rows["audio_id"] = audio_ids
        rows["segment_ord"] = segment_ords
        rows["start_time"] = [e.start_time for e in entries]
        rows["duration"] = [e.duration for e in entries]
        rows["vector"] = vectors
        self.records = np.concatenate([self.records, rows]) if len(self) else rows

    def entry(self, i: int) -> IndexEntry:
        r = self.records[i]
        return IndexEntry(
            r["vector"].copy(), int(r["audio_id"]), int(r["segment_ord"]),
            float(r["start_time"]), float(r["duration"]),
        )

    def search_top_k(self, query: np.ndarray, k: int) -> list[tuple[IndexEntry, float]]:
        """Exact top-k by inner product, scores descending.

        Ties break toward the lower (audio_id, segment_ord). A linear scan
        scores every entry; `_candidates` keeps the rows that can hold the
        k best; a selection among them finds the k-th best score, and only the
        rows scoring at least that much, every tie at the cut included, are
        sorted; when all scores tie, that is a full sort. The scores and the
        order are those of sorting all N entries.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        q = np.asarray(query, dtype=np.float32)
        if q.shape != (self.dim,):
            raise ValueError(f"query dim {q.shape} != index dim ({self.dim},)")
        if not np.isfinite(q).all():
            raise ValueError("query vector is not finite")
        records = self.records
        scores = records["vector"] @ q
        rows, neg = _candidates(scores, k)
        if k < len(rows):
            cut = np.partition(neg, k - 1)[k - 1]
            # A score overflowing to NaN sorts last: `~(neg > cut)` keeps such rows,
            # which the sort ranks last again, and keeps every row if the cut is NaN.
            keep = ~(neg > cut)
            rows, neg = rows[keep], neg[keep]
        order = rows[np.lexsort([records["segment_ord"][rows], records["audio_id"][rows], neg])]
        return [(self.entry(int(i)), float(scores[i])) for i in order[:k]]

    def save(self, path: str | Path) -> None:
        with open(path, "wb") as fh:
            fh.write(_HEADER.pack(INDEX_MAGIC, INDEX_VERSION, self.dim, len(self)))
            self.records.tofile(fh)

    @classmethod
    def load(cls, path: str | Path) -> "FingerprintIndex":
        """Read a `.vlix` file; a bad header, size or vector is a ValueError naming the path."""
        with open(path, "rb") as fh:
            header = fh.read(HEADER_BYTES)
            size = os.fstat(fh.fileno()).st_size
            try:
                if header[:4] != INDEX_MAGIC or size < HEADER_BYTES:
                    raise ValueError("bad index magic or short header")
                _, version, dim, count = _HEADER.unpack(header)
                if version != INDEX_VERSION:
                    raise ValueError(f"unsupported index version {version}")
                if size != expected_file_size(count, dim):
                    raise ValueError(f"{size} bytes, but the header declares {count} entries of dim {dim}")
                return cls.from_records(np.fromfile(fh, record_dtype(dim), count))
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None


def expected_file_size(n_entries: int, dim: int) -> int:
    """Exact on-disk size: header + N records of `record_dtype(dim)`."""
    return HEADER_BYTES + n_entries * record_dtype(dim).itemsize
