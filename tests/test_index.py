import struct
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlafp import index as index_module
from vlafp.dsp import MelConfig
from vlafp.index import FingerprintIndex, IndexEntry, expected_file_size
from vlafp.model import ModelConfig, init_parameters
from vlafp.pipeline import build_index, fingerprint_segments
from vlafp.segmentation import FIXED_WINDOWS, segment_fixed
from vlafp.synth import SynthSpec, generate


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
    """Independent oracle: full scan, sort by (-score, audio_id, segment_ord); NaN scores rank last."""
    with np.errstate(over="ignore", invalid="ignore"):
        scores = vecs @ q
    nan = np.isnan(scores)
    rows = sorted(
        range(len(vecs)), key=lambda i: (bool(nan[i]), 0.0 if nan[i] else -scores[i], meta[i][0], meta[i][1])
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


def tied_index(vecs, meta):
    """Index whose entry i has key meta[i] and start_time i, so duplicates stay distinguishable."""
    return FingerprintIndex.build(
        [IndexEntry(v, aid, ord_, float(i), 1.0) for i, (v, (aid, ord_)) in enumerate(zip(vecs, meta))]
    )


def assert_same_as_scan(index, vecs, meta, q, k):
    """Rows, order and scores (bit for bit, sign of zero included) equal the linear scan's."""
    with np.errstate(over="ignore", invalid="ignore"):
        got = index.search_top_k(q, k)
    want = linear_scan(vecs, meta, q, k)
    assert [int(e.start_time) for e, _ in got] == [i for i, _ in want]
    assert np.array([s for _, s in got]).tobytes() == np.array([s for _, s in want]).tobytes()


def assert_same_as_scan_of_index(index, vecs, meta, q, k):
    """assert_same_as_scan, the scan scoring the index's own matrix. For random rows the
    product over the index's strided record view may round a score one ulp apart from
    `vecs @ q` on a contiguous copy (seen at n = 4), and the contiguous product may round
    equal rows apart by their position (the last of nine at d = 6), so the scan could
    split a tie the index does not have."""
    assert index.records["vector"].tobytes() == vecs.astype(np.float32).tobytes()
    assert_same_as_scan(index, index.records["vector"], meta, q, k)


def overflow_query(d, seed):
    """A finite query whose products with unit rows overflow: some scores are NaN."""
    return np.where(unit_rows(1, d, seed)[0] > 0, 3.4e38, -3.4e38).astype(np.float32)


class TestTiedSearch:
    """Many entries share the k-th best score; the tie rule must hold across the cut."""

    @given(
        n=st.integers(min_value=1, max_value=40),
        d=st.integers(min_value=9, max_value=16),
        pool=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
        query_from_pool=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_duplicates_straddling_the_cut_match_oracle(self, n, d, pool, seed, query_from_pool, data):
        rng = np.random.default_rng(seed)
        vecs = unit_rows(pool, d, seed)[rng.integers(0, pool, n)]
        meta = [(int(a), int(o)) for a, o in rng.integers(0, 3, (n, 2))]  # repeated keys too
        q = vecs[0] if query_from_pool else unit_rows(1, d, seed + 1)[0]
        k = data.draw(st.integers(min_value=1, max_value=n + 2), label="k")
        assert_same_as_scan(tied_index(vecs, meta), vecs, meta, q, k)

    @pytest.mark.parametrize("k", [1, 10, 299, 300, 302])
    def test_every_score_tied(self, k):
        d, n = 16, 300
        vecs = unit_rows(n, d, 11)
        vecs[:, -1] = 0.0
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        meta = [(int(a), int(o)) for a, o in np.random.default_rng(12).integers(0, 40, (n, 2))]
        q = np.zeros(d, np.float32)
        q[-1] = 1.0  # orthogonal to every entry: all N scores are zero
        index = tied_index(vecs, meta)
        assert_same_as_scan(index, vecs, meta, q, k)
        keys = [(e.audio_id, e.segment_ord) for e, _ in index.search_top_k(q, k)]
        assert keys == sorted(meta)[:k]

    @pytest.mark.parametrize("k", [1, 3, 6, 8])
    def test_zero_products_of_both_signs_tie(self, k):
        """+0.0 and -0.0 products sum to zero scores that tie; signs must match the scan's."""
        d = 12
        vecs = np.zeros((6, d), np.float32)
        for i in range(6):
            vecs[i, i % 3] = 1.0 if i % 2 else -1.0
        meta = [(5 - i, 0) for i in range(6)]
        q = np.zeros(d, np.float32)
        q[:3] = -0.0  # products of +0.0 and -0.0
        q[5] = 1.0
        index = tied_index(vecs, meta)
        assert_same_as_scan(index, vecs, meta, q, k)
        assert [e.audio_id for e, _ in index.search_top_k(q, k)] == list(range(min(k, 6)))

    def test_overflowing_query_ranks_nan_scores_last(self):
        d, n = 16, 200
        vecs = unit_rows(n, d, 13)
        meta = [(i % 7, i) for i in range(n)]
        q = overflow_query(d, 14)
        with np.errstate(over="ignore", invalid="ignore"):
            scores = vecs @ q
            nan = np.isnan(scores)
            assert 5 < nan.sum() < n - 5
            want = sorted(range(n), key=lambda i: (bool(nan[i]), 0.0 if nan[i] else -scores[i], meta[i]))
            index = tied_index(vecs, meta)
            for k in (1, 5, n - 1, n):
                got = index.search_top_k(q, k)
                assert [int(e.start_time) for e, _ in got] == want[:k]
                assert np.array_equal([s for _, s in got], scores[want[:k]], equal_nan=True)


@contextmanager
def groups_of(rows):
    """Search with `rows` rows per group and no minimum index size, so small indexes take the grouped path."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(index_module, "GROUP_ROWS", rows)
        mp.setattr(index_module, "GROUPED_MIN_ROWS", 0)
        yield


class TestGroupedSearch:
    """The grouped pre-selection keeps every row the full sort would return, in the same order."""

    @given(
        n=st.integers(min_value=1, max_value=3000),
        group_rows=st.integers(min_value=1, max_value=70),
        d=st.integers(min_value=4, max_value=16),
        pool=st.sampled_from([1, 3, 50, None]),  # None: distinct vectors
        seed=st.integers(min_value=0, max_value=10_000),
        query_from_index=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_equals_linear_scan(self, n, group_rows, d, pool, seed, query_from_index, data):
        rng = np.random.default_rng(seed)
        vecs = unit_rows(n, d, seed) if pool is None else unit_rows(pool, d, seed)[rng.integers(0, pool, n)]
        meta = [(int(a), int(o)) for a, o in rng.integers(0, 5, (n, 2))]  # repeated keys too
        q = vecs[int(rng.integers(n))] if query_from_index else unit_rows(1, d, seed + 1)[0]
        groups = n // group_rows
        k = data.draw(
            st.one_of(st.integers(1, max(1, min(groups + 1, n + 2))), st.integers(1, n + 2)), label="k"
        )
        with groups_of(group_rows):
            assert_same_as_scan_of_index(tied_index(vecs, meta), vecs, meta, q, k)

    @pytest.mark.parametrize("group_rows", [1, 7, 64])
    @pytest.mark.parametrize("k", [1, 2, 9, 10, 11, 150])
    def test_duplicates_in_other_groups_straddle_the_cut(self, group_rows, k):
        """Ten copies of the query's vector, spread over the groups: the cut at k <= 10 lies inside them."""
        n, d = 1000, 16
        vecs = unit_rows(n, d, 21)
        copies = np.arange(3, n, n // 10)  # rows 3, 103, ..., 903: ten groups, or three at 64 rows a group
        vecs[copies] = vecs[500]
        meta = [(i % 3, (7 * i) % 11) for i in range(n)]
        with groups_of(group_rows):
            assert_same_as_scan_of_index(tied_index(vecs, meta), vecs, meta, vecs[500], k)

    @pytest.mark.parametrize("n", [63, 64, 65, 1000, 1031])
    @pytest.mark.parametrize("k", [1, 15, 16, 17, 2000])
    def test_every_score_tied(self, n, k):
        """All N scores are zero, so every group is kept and the result is the full sort."""
        d = 8
        vecs = unit_rows(n, d, 31)
        vecs[:, 0] = 0.0
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        meta = [(int(a), int(o)) for a, o in np.random.default_rng(32).integers(0, 9, (n, 2))]
        q = np.zeros(d, np.float32)
        q[0] = 1.0
        with groups_of(4):  # 15 or 16 groups at n = 63..65
            assert_same_as_scan(tied_index(vecs, meta), vecs, meta, q, k)

    @pytest.mark.parametrize("k", [1, 5, 40, 100, 121])
    def test_zero_products_of_both_signs(self, k):
        """+0.0 and -0.0 scores tie, and the sign each hit reports is the scan's."""
        n, d = 121, 12
        vecs = np.zeros((n, d), np.float32)
        vecs[np.arange(n), np.arange(n) % 3] = np.where(np.arange(n) % 2, 1.0, -1.0)
        vecs[::10, 5] = 1.0  # a few rows score +1 and fill some groups' best
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        meta = [((13 * i) % 17, i % 2) for i in range(n)]
        q = np.zeros(d, np.float32)
        q[:3] = -0.0
        q[5] = 1.0
        with groups_of(5):
            assert_same_as_scan(tied_index(vecs, meta), vecs, meta, q, k)

    def test_nan_scores_rank_last_below_and_above_the_groups_holding_numbers(self):
        """Only m groups hold a non-NaN score: k < m prunes, k >= m falls back; NaN ranks last in both."""
        d, group_rows, groups, m = 16, 4, 30, 5
        q = overflow_query(d, 14)
        pool = unit_rows(16_000, d, 13)
        with np.errstate(over="ignore", invalid="ignore"):
            nan = np.isnan(pool @ q)
        finite, nans = pool[~nan], pool[nan]
        assert len(finite) > 100 and len(nans) > 150
        n = group_rows * groups + 3
        vecs = nans[:n].copy()
        body = vecs[: group_rows * groups].reshape(group_rows, groups, d)
        body[:, :m] = finite[: group_rows * m].reshape(group_rows, m, d)  # groups 0..m-1 all finite
        body[1, m + 2] = finite[-1]  # ... and one finite row in group m + 2
        vecs[-1] = finite[-2]  # and one in the tail
        meta = [(i % 7, i) for i in range(n)]
        index = tied_index(vecs, meta)
        with np.errstate(over="ignore", invalid="ignore"):
            scores = index.records["vector"] @ q
        holding = np.flatnonzero((~np.isnan(scores[: group_rows * groups])).reshape(group_rows, groups).any(axis=0))
        assert holding.tolist() == [*range(m), m + 2]
        with groups_of(group_rows):
            for k in (1, m, m + 1, m + 2, 4 * m + 2, n - 1, n):
                assert_same_as_scan(index, vecs, meta, q, k)

    def test_catalogue_scale_prunes_and_equals_linear_scan(self):
        """At the module's own group size a large index takes the grouped path."""
        n, d = index_module.GROUPED_MIN_ROWS + 37, 16  # not a multiple of GROUP_ROWS
        rng = np.random.default_rng(41)
        vecs = unit_rows(n, d, 41)
        vecs[rng.choice(n, 50, replace=False)] = vecs[7]  # duplicates of one query
        meta = [(int(a), int(o)) for a, o in rng.integers(0, 1000, (n, 2))]
        index = tied_index(vecs, meta)
        groups = n // index_module.GROUP_ROWS
        fresh = unit_rows(1, d, 42)[0]
        rows, _ = index_module._candidates(index.records["vector"] @ fresh, 10)
        assert len(rows) == 10 * index_module.GROUP_ROWS + 37  # ten groups and the tail
        for q in (vecs[7], fresh):
            for k in (1, 10, 51, groups - 1, groups, n + 1):
                assert_same_as_scan_of_index(index, vecs, meta, q, k)


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


class TestBuildIndex:
    @pytest.fixture(scope="class")
    def tiny(self):
        corpus = generate(SynthSpec(n_audios=3, duration_range=(3.0, 3.0), seed=4))
        model_cfg = ModelConfig(f_bins=16, d=12, n_blocks=1, n_heads=2, d_head=6)
        return corpus, MelConfig(n_mels=16), init_parameters(model_cfg, seed=1), model_cfg

    def test_equals_inserting_each_entry(self, tiny):
        corpus, mel_cfg, params, model_cfg = tiny
        one_by_one = FingerprintIndex(model_cfg.d)
        for aid, w in corpus:
            segs = segment_fixed(w, FIXED_WINDOWS, audio_id=aid)
            for entry in fingerprint_segments(w, segs, mel_cfg, params, model_cfg):
                one_by_one.insert(entry)
        built = build_index(corpus, FIXED_WINDOWS, mel_cfg, params, model_cfg)
        assert len(built) == 3 * 5
        assert built.records.tobytes() == one_by_one.records.tobytes()

    def test_empty_corpus_gives_empty_index(self, tiny):
        _, mel_cfg, params, model_cfg = tiny
        index = build_index([], FIXED_WINDOWS, mel_cfg, params, model_cfg)
        assert (len(index), index.dim) == (0, 12)


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
