"""Offline index migration (S8) — the analog of the reference's
``MediaMigrationTool.scala:22-577`` (rewrite stored artifacts to a new
physical format in place, resumably, without touching semantics).

``migrate_codec`` rewrites every dictionary shard's posting blobs from
the current codec to a new one (e.g. varint -> pfor). Scale/safety
shape:

- shard files are re-encoded independently (embarrassingly parallel,
  no shuffle), one Ray Data task per CPU slot over a contiguous run of
  them (``utils.map_items``);
- migrated shards land in a staging dir (``dictionary.migrating-X/``)
  with per-shard atomic writes; a re-run SKIPS shards already staged,
  so an interrupted migration resumes where it stopped;
- the final swap (staging dir -> ``dictionary/`` + config.json update)
  happens only after every shard is staged, so readers never observe a
  mixed-codec index;
- block geometry (block_last / block_max) is invariant under the codec
  change and is carried over verbatim — only blobs/offsets/tf_base are
  re-encoded — so post-migration results are bit-identical
  (pytest-verified).
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from sotohp_ray.config import IndexConfig
from sotohp_ray.functions import codec as pcodec
from sotohp_ray.state import lineage as lin
from sotohp_ray.utils import map_items


def _migrate_shard(path: str, out_path: str, old_codec: str,
                   new_codec: str, block_size: int) -> int:
    t = pq.read_table(path)
    blob_col = t["blob"].combine_chunks()
    import pyarrow.compute as pc

    has_blob = np.flatnonzero(
        ~pc.is_null(blob_col).to_numpy(zero_copy_only=False)
    )
    if has_blob.size == 0:
        lin.atomic_write_table(t, out_path, use_dictionary=False)
        return 0
    dfs = t["df"].to_numpy(zero_copy_only=False)
    tf_bases = t["tf_base"].to_numpy(zero_copy_only=False)
    last_col = t["block_last"].combine_chunks()
    goffs_col = t["block_gap_offs"].combine_chunks()
    toffs_col = t["block_tf_offs"].combine_chunks()

    blobs = blob_col.to_pylist()
    goffs_new = goffs_col.to_pylist()
    toffs_new = toffs_col.to_pylist()
    tfb_new = tf_bases.astype(np.int64).tolist()
    for i in has_blob:
        df = int(dfs[i])
        last = last_col[i].values.to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        nblocks = last.size
        counts = np.full(nblocks, block_size, dtype=np.int64)
        counts[-1] = df - block_size * (nblocks - 1)
        docs, tfs = pcodec.decode_postings(
            blob_col[i].as_buffer(), df, int(tf_bases[i]),
            block_counts=counts,
            gap_offs=goffs_col[i].values.to_numpy(zero_copy_only=False),
            tf_offs=toffs_col[i].values.to_numpy(zero_copy_only=False),
            codec=old_codec,
        )
        # scores only shape block_max, which we carry over verbatim —
        # pass zeros and drop the recomputed bmax
        blob, last2, goffs, toffs, tfb, _bmax = pcodec.encode_postings_blocks(
            docs, tfs, np.zeros(docs.size, dtype=np.float64),
            block_size, codec=new_codec,
        )
        assert np.array_equal(last2.astype(np.int64), last)
        blobs[i] = blob
        goffs_new[i] = goffs.tolist()
        toffs_new[i] = toffs.tolist()
        tfb_new[i] = int(tfb)

    def set_col(tbl, name, arr):
        return tbl.set_column(
            tbl.schema.get_field_index(name), name, arr
        )

    t = set_col(t, "blob", pa.array(blobs, pa.large_binary()))
    t = set_col(
        t, "block_gap_offs", pa.array(goffs_new, pa.large_list(pa.uint32()))
    )
    t = set_col(
        t, "block_tf_offs", pa.array(toffs_new, pa.large_list(pa.uint32()))
    )
    t = set_col(t, "tf_base", pa.array(tfb_new, pa.uint32()))
    lin.atomic_write_table(t, out_path, use_dictionary=False)
    return int(has_blob.size)


_MANIFEST = "_MANIFEST.json"  # '_' prefix: ignored by pyarrow datasets


def _dict_fingerprint(dict_dir: str) -> str:
    """Identity of a dictionary's CONTENTS: sorted (name, size,
    mtime_ns) of its shard files. Any rewrite (compaction, rebuild,
    re-merge) changes it; rename preserves it — so it ties a staging
    dir to the exact source dictionary its shards were derived from."""
    import hashlib

    names = sorted(
        n for n in os.listdir(dict_dir) if n.endswith(".parquet")
    )
    parts = []
    for n in names:
        st = os.stat(os.path.join(dict_dir, n))
        parts.append(f"{n}:{st.st_size}:{st.st_mtime_ns}")
    return hashlib.sha256("|".join(parts).encode()).hexdigest()


def migrate_codec(index_dir: str, new_codec: str) -> dict:
    """Rewrite the final index's posting codec in place. Resumable;
    no-op if the index already uses ``new_codec``."""
    if new_codec not in pcodec.CODECS:
        raise ValueError(f"unknown codec {new_codec!r}")
    _recover_interrupted_swap(index_dir)
    with open(os.path.join(index_dir, "config.json")) as f:
        config = IndexConfig.from_json(f.read())
    if config.codec == new_codec:
        return {"migrated_shards": 0, "codec": new_codec, "noop": True}

    dict_dir = os.path.join(index_dir, "dictionary")
    staging = os.path.join(index_dir, f"dictionary.migrating-{new_codec}")
    # resume trusts staged shards ONLY if the staging manifest proves
    # they were derived from THIS dictionary (ADVICE r2: a dictionary
    # rewritten between an interrupted migration and the retry would
    # otherwise promote stale shards, resurrecting deleted docs)
    src_fp = _dict_fingerprint(dict_dir)
    man_path = os.path.join(staging, _MANIFEST)
    if os.path.isdir(staging):
        ok = False
        if os.path.exists(man_path):
            try:
                with open(man_path) as f:
                    man = json.load(f)
                ok = (
                    man.get("source_fingerprint") == src_fp
                    and man.get("target_codec") == new_codec
                )
            except (OSError, ValueError):
                ok = False
        if not ok:
            shutil.rmtree(staging)
    os.makedirs(staging, exist_ok=True)
    if not os.path.exists(man_path):
        lin.write_json(man_path, {
            "source_fingerprint": src_fp, "target_codec": new_codec,
        })
    shard_files = sorted(
        n for n in os.listdir(dict_dir) if n.endswith(".parquet")
    )
    todo = [
        n for n in shard_files
        if not os.path.exists(os.path.join(staging, n))
    ]
    old_codec, block_size = config.codec, config.block_size

    def _one(batch: dict) -> dict:
        out = []
        for name in batch["name"]:
            out.append(_migrate_shard(
                os.path.join(dict_dir, str(name)),
                os.path.join(staging, str(name)),
                old_codec, new_codec, block_size,
            ))
        return {"migrated_terms": np.asarray(out, dtype=np.int64)}

    res, _ = map_items(_one, [{"name": n} for n in todo])
    n_terms = int(res["migrated_terms"].sum()) if len(res) else 0

    # crash-safe swap. Steps (each an atomic rename): (1) the NEW
    # config lands as config.json.next FIRST — it is the intent record
    # _recover_interrupted_swap replays from; (2) dictionary -> .old;
    # (3) staging -> dictionary; (4) config.json.next -> config.json;
    # (5) rm .old. A kill between any two steps is finished by the
    # recovery pass on the next call, and readers can never observe
    # new-codec blobs under an old-codec config (config promotes only
    # after the dictionary swap).
    # dataclasses.replace copies EVERY field — a field-by-field rebuild
    # here once silently dropped the S1 path masks from config.json,
    # changing the config fingerprint (spurious lineage invalidation)
    # and un-masking later syncs
    import dataclasses

    new_config = dataclasses.replace(config, codec=new_codec)
    next_cfg = os.path.join(index_dir, "config.json.next")
    lin.write_json(next_cfg, json.loads(new_config.to_json()))
    old_dir = dict_dir + ".old"
    if os.path.isdir(old_dir):
        shutil.rmtree(old_dir)
    os.replace(dict_dir, old_dir)
    os.replace(staging, dict_dir)
    os.replace(next_cfg, os.path.join(index_dir, "config.json"))
    shutil.rmtree(old_dir)
    return {
        "migrated_shards": len(shard_files),
        "re_encoded_terms": n_terms,
        "codec": new_codec,
        "noop": False,
    }


def _recover_interrupted_swap(index_dir: str) -> None:
    """Finish a swap interrupted between its atomic steps (see the
    step list in ``migrate_codec``)."""
    dict_dir = os.path.join(index_dir, "dictionary")
    old_dir = dict_dir + ".old"
    next_cfg = os.path.join(index_dir, "config.json.next")
    if os.path.exists(next_cfg):
        # the staging dir to promote is DERIVED from the codec the
        # intent record names — a glob()[0] once picked a different
        # codec's leftover staging dir, leaving blobs under a
        # mismatched codec config (ADVICE r2)
        try:
            with open(next_cfg) as f:
                next_codec = IndexConfig.from_json(f.read()).codec
        except (OSError, ValueError):
            next_codec = None
        staging = (
            os.path.join(index_dir, f"dictionary.migrating-{next_codec}")
            if next_codec
            else None
        )
        if not os.path.isdir(dict_dir):
            # killed between (2) and (3): promote the staging dir —
            # but only if its manifest ties it to the dictionary now
            # sitting at .old (rename preserves mtimes, so the
            # fingerprints match iff the staged shards were derived
            # from exactly that dictionary)
            promote = False
            if staging and os.path.isdir(staging):
                man_path = os.path.join(staging, _MANIFEST)
                try:
                    with open(man_path) as f:
                        man = json.load(f)
                    promote = (
                        man.get("target_codec") == next_codec
                        and (
                            not os.path.isdir(old_dir)
                            or man.get("source_fingerprint")
                            == _dict_fingerprint(old_dir)
                        )
                    )
                except (OSError, ValueError):
                    promote = False
            if promote:
                os.replace(staging, dict_dir)
            elif os.path.isdir(old_dir):  # stale/absent staging: roll back
                os.replace(old_dir, dict_dir)
                os.remove(next_cfg)
                return
        # re-evaluate after any promote above — a stale `staged` list
        # here once skipped the config promote and left pfor bytes
        # under a varint config
        if (
            next_codec
            and os.path.isdir(dict_dir)
            and not os.path.isdir(staging)
        ):
            # killed between (3) and (4): promote the config
            os.replace(next_cfg, os.path.join(index_dir, "config.json"))
        elif next_codec is None and os.path.isdir(dict_dir):
            # unreadable intent record with the dictionary intact:
            # drop it rather than ever promoting garbage over
            # config.json (write_json is atomic, so this is a
            # never-in-practice guard)
            os.remove(next_cfg)
        # killed before (2) with both dirs intact: leave next_cfg for
        # the caller's normal path (it rewrites it after staging)
    if not os.path.exists(next_cfg):
        # a merge's dictionary swap (lin.replace_dir) killed between
        # its renames parks the live dictionary at the same .old path
        lin.restore_dir(dict_dir)
        # killed between (4) and (5)
        shutil.rmtree(old_dir, ignore_errors=True)


def _main() -> None:
    """CLI: ``python -m sotohp_ray.pipelines.migrate INDEX --codec pfor``."""
    import argparse

    import ray

    p = argparse.ArgumentParser(description="Migrate index posting codec")
    p.add_argument("index_dir")
    p.add_argument("--codec", required=True, choices=sorted(pcodec.CODECS))
    args = p.parse_args()
    if not ray.is_initialized():
        ray.init()
    print(json.dumps(migrate_codec(args.index_dir, args.codec)))
    ray.shutdown()


if __name__ == "__main__":
    _main()


def reindex(
    corpus_dir: str, index_dir: str, config=None,
) -> dict:
    """The ES ``_reindex``-with-new-settings analog: rebuild
    ``index_dir`` from ``corpus_dir`` under a NEW IndexConfig (changed
    tokenizer rules, codec, sharding) into a staging dir beside the
    target, with the normal streaming build (SPIMI task pool ->
    bucketed merge), while the old index stays live and intact. The
    build then replaces it with two renames (``lin.replace_dir``):
    readers never see a mix, but between the renames the old index
    sits at ``index_dir + ".old"`` and ``index_dir`` is missing. A
    failed second rename puts the old index back before the error
    propagates; after a crash there, the next ``reindex`` (or
    ``restore_snapshot``) call into the same dir renames it back first.
    Returns the build stats of the new index."""
    import tempfile

    from sotohp_ray.pipelines.build_index import build_index

    lin.restore_dir(index_dir)
    parent = os.path.dirname(os.path.abspath(index_dir)) or "."
    staging = tempfile.mkdtemp(dir=parent, prefix=".reindex-")
    try:
        stats = build_index(corpus_dir, staging, config=config)
        lin.replace_dir(staging, index_dir)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    return stats
