"""Index snapshot / restore — the ES ``_snapshot`` repository API
analog (create / restore / delete / cleanup), reference analog: the
offline store-migration + backup tooling around the LMDB stores
(reference `modules/service`'s export path; SURVEY §2.1 S8 family).

Design: a snapshot REPOSITORY is content-addressed — ``blobs/<sha256>``
holds each distinct file ONCE; a snapshot is just a manifest mapping
relative paths to blob hashes. That gives the two ES snapshot
properties that matter at scale for free:

- **incremental**: a second snapshot after a small mutation copies
  only the changed files' blobs (asserted by the returned
  ``n_new_blobs`` telemetry);
- **restore-to-point-in-time is total**: restore materializes the
  manifest into a FRESH directory and swaps it in
  (``lineage.replace_dir``, shared with ``migrate.reindex``), so a
  crashed restore never leaves a half-written index.

Every write is tmp+rename atomic; blobs are immutable once placed, so
concurrent snapshots of different indexes can share a repository.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile

from sotohp_ray.state import lineage as lin

_CHUNK = 1 << 20


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        while True:
            b = f.read(_CHUNK)
            if not b:
                break
            h.update(b)
    return h.hexdigest()


def _atomic_place(src_tmp: str, dest: str) -> None:
    os.makedirs(os.path.dirname(dest), exist_ok=True)
    os.replace(src_tmp, dest)


def create_snapshot(index_dir: str, repo_dir: str, name: str) -> dict:
    """Snapshot ``index_dir`` into ``repo_dir`` under ``name``.
    Returns {n_files, n_new_blobs, bytes_total, bytes_copied} — the
    incrementality telemetry (a second snapshot after a small change
    reports n_new_blobs << n_files)."""
    blobs = os.path.join(repo_dir, "blobs")
    snaps = os.path.join(repo_dir, "snapshots")
    os.makedirs(blobs, exist_ok=True)
    os.makedirs(snaps, exist_ok=True)
    manifest: dict[str, list] = {}
    n_new = bytes_total = bytes_copied = 0
    for root, _dirs, files in os.walk(index_dir):
        for fn in sorted(files):
            p = os.path.join(root, fn)
            rel = os.path.relpath(p, index_dir)
            sha = _sha256_file(p)
            size = os.path.getsize(p)
            manifest[rel] = [sha, size]
            bytes_total += size
            blob = os.path.join(blobs, sha)
            if not os.path.exists(blob):
                fd, tmp = tempfile.mkstemp(dir=blobs, prefix=".part-")
                os.close(fd)
                shutil.copyfile(p, tmp)
                _atomic_place(tmp, blob)  # immutable once placed
                n_new += 1
                bytes_copied += size
    fd, tmp = tempfile.mkstemp(dir=snaps, prefix=".part-")
    with os.fdopen(fd, "w") as f:
        json.dump({"name": name, "files": manifest}, f)
    _atomic_place(tmp, os.path.join(snaps, f"{name}.json"))
    return {
        "n_files": len(manifest),
        "n_new_blobs": n_new,
        "bytes_total": bytes_total,
        "bytes_copied": bytes_copied,
    }


def list_snapshots(repo_dir: str) -> list[str]:
    snaps = os.path.join(repo_dir, "snapshots")
    if not os.path.isdir(snaps):
        return []
    return sorted(
        fn[:-5] for fn in os.listdir(snaps)
        if fn.endswith(".json") and not fn.startswith(".")
    )


def restore_snapshot(repo_dir: str, name: str, dest_dir: str) -> int:
    """Materialize snapshot ``name`` at ``dest_dir``: the tree is
    staged next to the destination, and an existing index at
    ``dest_dir`` is replaced only at the end, by ``lin.replace_dir``
    (which puts the old index back if its second rename fails; a
    crash between the renames is undone by the next call). Hardlinks
    blobs where the filesystem allows (restore is then O(manifest),
    not O(bytes)); falls back to copy. Returns the number of files
    restored."""
    lin.restore_dir(dest_dir)
    with open(os.path.join(repo_dir, "snapshots", f"{name}.json")) as f:
        manifest = json.load(f)["files"]
    parent = os.path.dirname(os.path.abspath(dest_dir)) or "."
    os.makedirs(parent, exist_ok=True)
    staging = tempfile.mkdtemp(dir=parent, prefix=".restore-")
    try:
        for rel, (sha, _size) in sorted(manifest.items()):
            blob = os.path.join(repo_dir, "blobs", sha)
            out = os.path.join(staging, rel)
            os.makedirs(os.path.dirname(out), exist_ok=True)
            try:
                os.link(blob, out)
            except OSError:
                shutil.copyfile(blob, out)
        lin.replace_dir(staging, dest_dir)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    return len(manifest)


def delete_snapshot(repo_dir: str, name: str) -> None:
    os.remove(os.path.join(repo_dir, "snapshots", f"{name}.json"))


def cleanup_repository(repo_dir: str) -> int:
    """Drop blobs referenced by NO remaining manifest (the ES
    ``_snapshot/_cleanup`` analog). Returns blobs removed."""
    snaps = os.path.join(repo_dir, "snapshots")
    live: set[str] = set()
    for name in list_snapshots(repo_dir):
        with open(os.path.join(snaps, f"{name}.json")) as f:
            live.update(
                sha for sha, _ in json.load(f)["files"].values()
            )
    blobs = os.path.join(repo_dir, "blobs")
    removed = 0
    if os.path.isdir(blobs):
        for fn in os.listdir(blobs):
            if not fn.startswith(".") and fn not in live:
                os.remove(os.path.join(blobs, fn))
                removed += 1
    return removed
