"""A compaction whose merge fails keeps its count on the retry:
``compacted_docs_total`` comes from the lineage records, which hold the
first attempt's removals, not from the old stats plus the removals of
the run that finally commits."""

import os

import pyarrow.parquet as pq
import pytest

from sotohp_ray.pipelines import build_index as bi
from sotohp_ray.pipelines.delete import (
    compact_index,
    delete_docs,
    load_tombstones,
)


def test_compaction_retry_keeps_compacted_total(
    ray_session, tiny_corpus, tmp_path, monkeypatch
):
    corpus_dir, _ = tiny_corpus
    index_dir = str(tmp_path / "idx")
    stats = bi.build_index(corpus_dir, index_dir)
    uuids = pq.read_table(
        os.path.join(index_dir, "docmeta"), columns=["doc_uuid"]
    )["doc_uuid"].to_pylist()
    assert delete_docs(index_dir, doc_uuids=uuids[:3]) == 3

    real_merge = bi.merge_phase
    calls = []

    def failing_once(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise RuntimeError("merge failed")
        return real_merge(*args, **kwargs)

    monkeypatch.setattr(bi, "merge_phase", failing_once)
    with pytest.raises(RuntimeError, match="merge failed"):
        compact_index(index_dir)
    # the partitions are compacted, the tombstones and stats are not
    assert load_tombstones(index_dir).size == 3
    retried = compact_index(index_dir)
    assert len(calls) == 2
    assert retried["compacted_docs_total"] == 3
    assert retried["n_docs"] == stats["n_docs"] - 3
    assert load_tombstones(index_dir).size == 0
