import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlafp.index import FingerprintIndex, IndexEntry, expected_file_size


def unit_rows(n, d, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, d))
    return (v / np.linalg.norm(v, axis=1, keepdims=True)).astype(np.float32)


ENTRY_8 = 20 + 4 * 8  # bytes of one entry at d=8
VEC_2 = 20 + 2 * ENTRY_8 + 20  # offset of entry 2's vector at d=8


def make_index(n, d, seed=0):
    vecs = unit_rows(n, d, seed)
    index = FingerprintIndex(d)
    for i, v in enumerate(vecs):
        index.insert(IndexEntry(v, audio_id=i % 17, segment_ord=i, start_time=0.5 * i, duration=1.0))
    return index, vecs


def linear_scan(vecs, meta, q, k):
    """Independent oracle: full scan, sort by (-score, audio_id, segment_ord)."""
    scores = vecs @ q
    rows = sorted(
        range(len(vecs)), key=lambda i: (-scores[i], meta[i][0], meta[i][1])
    )
    return [(i, float(scores[i])) for i in rows[:k]]


class TestSearch:
    def test_self_match_first(self):
        index, vecs = make_index(100, 16)
        hits = index.search_top_k(vecs[42], 3)
        assert hits[0][0].segment_ord == 42
        assert hits[0][1] == pytest.approx(1.0, abs=1e-5)

    def test_orthogonal_query_tie_break(self):
        d = 8
        index = FingerprintIndex(d)
        e0 = np.zeros(d, np.float32)
        e0[0] = 1.0
        e1 = np.zeros(d, np.float32)
        e1[1] = 1.0
        index.insert(IndexEntry(e0, audio_id=5, segment_ord=2, start_time=0, duration=1))
        index.insert(IndexEntry(e1, audio_id=3, segment_ord=9, start_time=0, duration=1))
        q = np.zeros(d, np.float32)
        q[7] = 1.0
        hits = index.search_top_k(q, 2)
        assert [h[0].audio_id for h in hits] == [3, 5]
        assert all(h[1] == 0.0 for h in hits)

    def test_matches_linear_scan_oracle(self):
        index, vecs = make_index(1000, 32, seed=3)
        meta = [(i % 17, i) for i in range(1000)]
        rng = np.random.default_rng(4)
        for _ in range(100):
            q = rng.standard_normal(32).astype(np.float32)
            q /= np.linalg.norm(q)
            got = index.search_top_k(q, 10)
            want = linear_scan(vecs, meta, q, 10)
            assert [g[0].segment_ord for g in got] == [w[0] for w in want]
            assert [g[1] for g in got] == [w[1] for w in want]

    def test_scores_non_increasing(self):
        index, vecs = make_index(200, 8, seed=6)
        q = unit_rows(1, 8, 9)[0]
        scores = [s for _, s in index.search_top_k(q, 50)]
        assert scores == sorted(scores, reverse=True)

    def test_empty_index_empty_result(self):
        assert FingerprintIndex(4).search_top_k(np.zeros(4, np.float32), 5) == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_query_rejected(self, bad):
        index, vecs = make_index(10, 4)
        q = vecs[0].copy()
        q[1] = bad
        with pytest.raises(ValueError, match="not finite"):
            index.search_top_k(q, 1)

    def test_k_larger_than_index(self):
        index, _ = make_index(3, 4)
        assert len(index.search_top_k(unit_rows(1, 4, 0)[0], 10)) == 3


class TestInsert:
    def test_count(self):
        index, _ = make_index(37, 8)
        assert len(index) == 37

    def test_non_unit_rejected(self):
        index = FingerprintIndex(4)
        with pytest.raises(ValueError, match="not unit"):
            index.insert(IndexEntry(np.ones(4, np.float32), 0, 0, 0.0, 1.0))

    def test_dim_mismatch_rejected(self):
        index = FingerprintIndex(4)
        v = np.zeros(8, np.float32)
        v[0] = 1.0
        with pytest.raises(ValueError, match="dim"):
            index.insert(IndexEntry(v, 0, 0, 0.0, 1.0))

    def test_insert_visible_immediately(self):
        index = FingerprintIndex(4)
        v = np.zeros(4, np.float32)
        v[1] = 1.0
        index.insert(IndexEntry(v, 7, 0, 0.0, 1.0))
        assert index.search_top_k(v, 1)[0][0].audio_id == 7

    def test_build_empty_rejected(self):
        with pytest.raises(ValueError):
            FingerprintIndex.build([])

    def test_nan_vector_rejected(self):
        v = np.full(4, np.nan, np.float32)
        with pytest.raises(ValueError, match="norm nan"):
            FingerprintIndex(4).insert(IndexEntry(v, 0, 0, 0.0, 1.0))

    @pytest.mark.parametrize(
        "audio_id,segment_ord,field",
        [(-1, 0, "audio_id"), (2**64, 0, "audio_id"), (0, -1, "segment_ord"), (0, 2**32, "segment_ord")],
    )
    def test_out_of_range_ids_rejected(self, audio_id, segment_ord, field):
        vecs = unit_rows(2, 4, 0)
        good = IndexEntry(vecs[0], 2**64 - 1, 2**32 - 1, 0.0, 1.0)
        bad = IndexEntry(vecs[1], audio_id, segment_ord, 0.0, 1.0)
        index = FingerprintIndex(4)
        with pytest.raises(ValueError, match=field):
            index.insert(bad)
        assert len(index) == 0
        with pytest.raises(ValueError, match=field):
            FingerprintIndex.build([good, bad])

    def test_build_equals_inserts(self):
        index, _ = make_index(300, 8, seed=7)
        entries = [index.entry(i) for i in range(len(index))]
        assert FingerprintIndex.build(entries).records.tobytes() == index.records.tobytes()


class TestPersistence:
    def test_roundtrip_bytes_identical(self, tmp_path):
        index, _ = make_index(50, 16, seed=2)
        p1, p2 = tmp_path / "a.vlix", tmp_path / "b.vlix"
        index.save(p1)
        FingerprintIndex.load(p1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_save_writes_the_vlix_record_layout(self, tmp_path):
        vecs = unit_rows(3, 4, 8)
        meta = [(2**64 - 1, 0, 0.0, 1.0), (7, 2**32 - 1, 0.5, 0.25), (0, 3, 12.75, 2.5)]
        want = b"VLIX" + struct.pack("<IIQ", 1, 4, 3)
        for (aid, ord_, start, dur), v in zip(meta, vecs):
            want += struct.pack("<QIff", aid, ord_, start, dur) + v.astype("<f4").tobytes()
        index = FingerprintIndex(4)
        for (aid, ord_, start, dur), v in zip(meta, vecs):
            index.insert(IndexEntry(v, aid, ord_, start, dur))
        path, again = tmp_path / "three.vlix", tmp_path / "again.vlix"
        index.save(path)
        assert path.read_bytes() == want
        loaded = FingerprintIndex.load(path)
        assert [(e.audio_id, e.segment_ord, e.start_time, e.duration) for e in map(loaded.entry, range(3))] == meta
        loaded.save(again)
        assert again.read_bytes() == want

    @pytest.mark.parametrize(
        "damage,reason",
        [
            (lambda b: b[:-1], "header declares"),  # one byte short
            (lambda b: b[: -ENTRY_8 // 2], "header declares"),  # half an entry short
            (lambda b: b + b"\x00", "header declares"),  # one byte long
            (lambda b: b[:12], "short header"),
            (lambda b: b[:VEC_2] + struct.pack("<f", float("nan")) + b[VEC_2 + 4 :], "norm nan"),
            (lambda b: b[:VEC_2] + bytes(32) + b[VEC_2 + 32 :], "not unit"),
        ],
        ids=["byte-short", "half-entry-short", "byte-long", "header-cut", "nan-vector", "zero-vector"],
    )
    def test_damaged_file_rejected_with_path(self, tmp_path, damage, reason):
        index, _ = make_index(5, 8, seed=1)
        good = tmp_path / "good.vlix"
        index.save(good)
        path = tmp_path / "damaged.vlix"
        path.write_bytes(damage(good.read_bytes()))
        with pytest.raises(ValueError, match=reason) as exc:
            FingerprintIndex.load(path)
        assert str(path) in str(exc.value)

    def test_roundtrip_search_identical(self, tmp_path):
        index, vecs = make_index(64, 8, seed=5)
        path = tmp_path / "idx.vlix"
        index.save(path)
        loaded = FingerprintIndex.load(path)
        q = vecs[10]
        a = index.search_top_k(q, 5)
        b = loaded.search_top_k(q, 5)
        assert [(x[0].audio_id, x[0].segment_ord, x[1]) for x in a] == [
            (x[0].audio_id, x[0].segment_ord, x[1]) for x in b
        ]

    @pytest.mark.parametrize("n,d", [(100, 32), (200, 32), (100, 64), (0, 16)])
    def test_file_size_formula(self, tmp_path, n, d):
        index = FingerprintIndex(d)
        vecs = unit_rows(max(n, 1), d, 1)
        for i in range(n):
            index.insert(IndexEntry(vecs[i], i, i, 0.0, 1.0))
        path = tmp_path / "size.vlix"
        index.save(path)
        assert path.stat().st_size == expected_file_size(n, d) == 20 + n * (20 + 4 * d)

    def test_empty_index_header_only(self, tmp_path):
        path = tmp_path / "empty.vlix"
        FingerprintIndex(8).save(path)
        assert path.stat().st_size == 20
        assert len(FingerprintIndex.load(path)) == 0

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.vlix"
        path.write_bytes(b"WHAT" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            FingerprintIndex.load(path)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "vfuture.vlix"
        path.write_bytes(b"VLIX" + struct.pack("<IIQ", 99, 4, 0))
        with pytest.raises(ValueError, match="version"):
            FingerprintIndex.load(path)


class TestProperties:
    @given(
        n=st.integers(min_value=1, max_value=40),
        d=st.integers(min_value=2, max_value=12),
        seed=st.integers(min_value=0, max_value=99),
    )
    @settings(max_examples=30, deadline=None)
    def test_search_equals_oracle_property(self, n, d, seed):
        vecs = unit_rows(n, d, seed)
        index = FingerprintIndex(d)
        for i, v in enumerate(vecs):
            index.insert(IndexEntry(v, audio_id=(i * 7) % 5, segment_ord=i, start_time=0.0, duration=1.0))
        meta = [((i * 7) % 5, i) for i in range(n)]
        q = unit_rows(1, d, seed + 1000)[0]
        got = index.search_top_k(q, min(5, n))
        want = linear_scan(vecs, meta, q, min(5, n))
        assert [g[0].segment_ord for g in got] == [w[0] for w in want]
