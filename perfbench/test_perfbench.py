"""Self-tests of the benchmark's own code (no Ray):

    python3 -m pytest perfbench -q -p no:cacheprovider
"""

import hashlib
import os

import pyarrow as pa
import pytest

from perfbench import workload as wl


# ---------------------------------------------------- percentile helper


def test_percentile_interpolates_and_median():
    xs = [4.0, 1.0, 3.0, 2.0]
    assert wl.median(xs) == 2.5
    assert wl.percentile(xs, 0) == 1.0
    assert wl.percentile(xs, 100) == 4.0
    with pytest.raises(ValueError):
        wl.percentile([], 50)


def test_tail_percentile_needs_ten_samples_beyond():
    # p99 needs n * 1% >= 10 samples above it: 999 samples are too few
    assert wl.tail_percentile(list(range(999)), 99) is None
    assert wl.tail_percentile(list(range(1000)), 99) == pytest.approx(989.01)
    # p50 of 20 samples has 10 beyond it
    assert wl.tail_percentile(list(range(20)), 50) == 9.5
    assert wl.tail_percentile(list(range(19)), 50) is None
    assert wl.tail_percentile([], 50) is None


# ---------------------------------------------------- correctness gate


WANT = [(7, 3.5), (2, 2.25), (9, 2.25), (4, 1.0)]


def test_gate_accepts_exact_answer():
    assert wl.topk_matches(list(WANT), WANT)
    assert wl.topk_matches([(7, 3.5 * (1 + 5e-10))] + WANT[1:], WANT)
    assert wl.topk_matches([], [])


@pytest.mark.parametrize("planted", [
    [(7, 3.5), (9, 2.25), (2, 2.25), (4, 1.0)],   # tie order swapped
    [(7, 3.5), (2, 2.25), (9, 2.25), (5, 1.0)],   # wrong doc
    [(7, 3.5), (2, 2.25), (9, 2.25)],             # a hit missing
    [(7, 3.5), (2, 2.25), (9, 2.25), (4, 1.0), (1, 0.5)],  # extra hit
    [(7, 3.5 * (1 + 1e-8)), (2, 2.25), (9, 2.25), (4, 1.0)],  # score
])
def test_gate_trips_on_planted_wrong_topk(planted):
    assert not wl.topk_matches(planted, WANT)


def test_identity_gate_allows_only_tie_reordering():
    full = [("a", 3.5), ("b", 2.25), ("c", 2.25), ("d", 1.0), ("e", 0.5)]
    assert wl.topk_matches_by_identity(full[:3], full, 3)
    # equal scores may come back in another order across id spaces
    assert wl.topk_matches_by_identity(
        [("a", 3.5), ("c", 2.25), ("b", 2.25)], full, 3)
    # k beyond the matches: all matches, no more
    assert wl.topk_matches_by_identity(full, full, 10)
    for planted in (
        [("a", 3.5), ("c", 2.25), ("d", 2.25)],   # d carries a wrong score
        [("a", 3.5), ("b", 2.25), ("b", 2.25)],   # duplicate doc
        [("a", 3.5), ("b", 2.25)],                # short
        [("a", 3.5), ("b", 2.25), ("z", 2.25)],   # unknown doc
        [("a", 3.5), ("b", 2.25), ("d", 1.0)],    # skipped a better doc
    ):
        assert not wl.topk_matches_by_identity(planted, full, 3), planted


# ---------------------------------------------------- seed determinism


def _inputs(root: str, seed: int) -> dict:
    """Every input of a run, as bytes: the fixed corpus and what the run
    derives from ``seed``."""
    import pyarrow.parquet as pq

    from sotohp_ray.sources.corpus import corpus_files, generate_corpus

    corpus = os.path.join(root, "corpus")
    generate_corpus(corpus, preset="bench", rows=300, partitions=3,
                    seed=wl.CORPUS_SEED)
    files = corpus_files(corpus)
    queries = wl.make_queries(seed, corpus)
    table = pa.concat_tables(pq.read_table(f) for f in files)
    done: set = set()
    batches = []
    for rnd in range(2):
        b = wl.make_update_batch(seed, rnd, table, done)
        table = b["table"]
        sink = pa.BufferOutputStream()
        with pa.ipc.new_stream(sink, b["incoming"].schema) as w:
            w.write_table(b["incoming"])
        batches.append(sink.getvalue().to_pybytes()
                       + repr((b["changed"], b["new"])).encode())
    return {
        "corpus": [open(f, "rb").read() for f in files],
        "queries": repr(queries).encode(),
        "stream": repr(wl.query_stream(seed, len(queries), 500)).encode(),
        "burst": repr(wl.permutation(seed, len(queries), "burst", 1)
                      ).encode(),
        "updates": batches,
    }


def _digest(inputs: dict) -> dict:
    return {k: hashlib.sha256(repr(v).encode()).hexdigest()
            for k, v in inputs.items()}


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    a = _digest(_inputs(str(tmp_path / "a"), 11))
    b = _digest(_inputs(str(tmp_path / "b"), 11))
    assert a == b
    c = _digest(_inputs(str(tmp_path / "c"), 12))
    assert a["corpus"] == c["corpus"]
    assert all(a[k] != c[k] for k in a if k != "corpus")


def test_queries_are_the_reference_mix_with_k_spread(tmp_path):
    from sotohp_ray.sources.corpus import generate_corpus, reference_queries

    corpus = str(tmp_path / "corpus")
    generate_corpus(corpus, preset="bench", rows=64, partitions=2, seed=3)
    ref = [q for j in range(wl.QUERY_SETS)
           for q in reference_queries(corpus, 3 * wl.QUERY_SETS + j)]
    qs = wl.make_queries(3, corpus)
    assert len({(q["q"], q["k"]) for q in qs}) == len(qs)
    assert {q["q"] for q in qs} == {q["q"] for q in ref}
    # the reference's own non-default k (k > matching docs) is kept
    for r in ref:
        if r["k"] != 10:
            assert r in qs
    assert {q["k"] for q in qs} >= set(wl.KS)


def test_update_batch_replaces_markers_and_adds_docs():
    n = 100
    table = pa.table({
        "repo": ["org0000/repo0"] * n,
        "path": [f"src/mod{i:05d}.py" for i in range(n)],
        "commit": ["c0"] * n,
        "lang": ["py"] * n,
        "content": pa.array([f"def f{i}():\n# uniq0x{i}tok"
                             for i in range(n)], pa.large_string()),
    })
    done: set = set()
    b = wl.make_update_batch(9, 0, table, done)
    assert b["incoming"].num_rows == wl.UPDATE_CHANGED + wl.UPDATE_NEW
    assert b["table"].num_rows == n + wl.UPDATE_NEW
    text = "\n".join(b["table"]["content"].to_pylist())
    for c in b["changed"]:
        assert c["old"] not in text.split() and c["new"] in text
    for d in b["new"]:
        assert text.count(d["new"]) == 1
    assert len(done) == wl.UPDATE_CHANGED + wl.UPDATE_NEW
    # a second round never picks an already changed doc
    b2 = wl.make_update_batch(9, 1, b["table"], done)
    assert not {c["key"] for c in b2["changed"]} & {
        c["key"] for c in b["changed"]}


# ------------------------------------------------- orchestration helper


def test_orchestration_is_execute_time_no_worker_span_covers():
    from perfbench import layers

    client = 1
    w = [
        {"name": "raydata.execute", "pid": client, "start": 0.0,
         "end": 10.0, "self": 10.0},
        # nested and overlapping worker spans count once
        {"name": "merge.shard", "pid": 2, "start": 1.0, "end": 4.0},
        {"name": "parquet.read_row_groups", "pid": 2, "start": 2.0,
         "end": 3.0},
        {"name": "merge.shard", "pid": 3, "start": 3.5, "end": 5.0},
        # a worker span outside the execute window is not subtracted
        {"name": "merge.shard", "pid": 2, "start": 11.0, "end": 12.0},
    ]
    assert layers._orchestration(w, client) == pytest.approx(6.0)
    assert layers._covered([(1.0, 4.0), (3.5, 5.0)], 4.5, 10.0) == 0.5
