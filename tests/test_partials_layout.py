"""The phase-1 partials layout: one parquet row group per term shard,
named by ``rgmap.json``, at any run length; and an index whose
``config.json`` still carries the retired ``partials_codec`` key."""

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from sotohp_ray.config import IndexConfig
from sotohp_ray.pipelines.build_index import build_index, write_partials

# the parquet writer's default row-group cap (rows)
_WRITER_CAP = 1024 * 1024


def test_rgmap_names_each_row_group_past_the_writer_cap(tmp_path):
    # shard 0's run is longer than the writer's default row-group cap
    n0, n1 = _WRITER_CAP + 5, 7
    shard = np.concatenate([np.zeros(n0, np.uint32), np.ones(n1, np.uint32)])
    partials = pa.table({
        "term_shard": pa.array(shard, pa.uint32()),
        "row": pa.array(np.arange(n0 + n1, dtype=np.int64)),
    })
    write_partials(partials, str(tmp_path))
    with open(tmp_path / "rgmap.json") as f:
        rgmap = json.load(f)["shards"]
    pf = pq.ParquetFile(tmp_path / "data.parquet")
    assert pf.metadata.num_row_groups == len(rgmap) == 2
    want = {0: np.arange(n0), 1: np.arange(n0, n0 + n1)}
    for i, s in enumerate(rgmap):
        rg = pf.read_row_group(i)
        assert set(rg["term_shard"].to_pylist()) == {s}
        assert np.array_equal(rg["row"].to_numpy(), want[s])


def test_config_json_with_retired_partials_codec_key(
    ray_session, tiny_corpus, tmp_path
):
    from sotohp_ray.pipelines.query import Searcher

    corpus_dir, _ = tiny_corpus
    idx = str(tmp_path / "idx")
    build_index(corpus_dir, idx)
    queries = ("def", "def import return self", "parse http")
    want = [Searcher(idx).search_exact(q, 20) for q in queries]

    cfg_path = os.path.join(idx, "config.json")
    with open(cfg_path) as f:
        cj = json.load(f)
    assert "partials_codec" not in cj
    cj["partials_codec"] = "varint"  # as an older build wrote it
    with open(cfg_path, "w") as f:
        json.dump(cj, f, sort_keys=True)
    with open(cfg_path) as f:
        old = f.read()
    assert IndexConfig.from_json(old).to_json() == IndexConfig().to_json()
    assert [Searcher(idx).search_exact(q, 20) for q in queries] == want
