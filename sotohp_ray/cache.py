"""Durable derived artifacts: the one cache-or-compute rule.

Every artifact derived from a source file (analyzed tokens, MinHash
bands, pair tables, the ANN index, the bigram LM, the documents index
and its delete/sync copies) is a directory under ``ROOT`` named
``<kind>-<key>``. The key hashes the source's absolute path, size and
mtime_ns plus the caller's semantic params, so a rewrite of the source
(even a same-size one) misses. ``publish`` builds a missing artifact
in a private staging directory and renames it into place: the rename
is the commit, so readers never see a half-built artifact. Each
artifact carries a ``<final>.src`` tag (source path + params, no
stat); publishing a new version drops every same-kind entry with the
same tag, so a rewritten source leaves no orphan behind. Reference
analog: the ``Processor`` cache-path helpers (Processor.scala:14-88).
"""

from __future__ import annotations

import glob
import hashlib
import os
import shutil
import tempfile

ROOT = "/tmp/sotohp_ray_cache"

_KEY_LEN = 12


def tag(src: str, params: tuple = ()) -> str:
    """The version-free identity of an artifact: what a newer build
    of the same source and params replaces."""
    return f"{os.path.abspath(src)}|{params!r}"


def path(kind: str, src: str, params: tuple = ()) -> str:
    st = os.stat(src)
    key = hashlib.sha256(
        f"{tag(src, params)}|{st.st_size}|{st.st_mtime_ns}".encode()
    ).hexdigest()[:_KEY_LEN]
    return os.path.join(ROOT, f"{kind}-{key}")


def publish(final: str, build, tag: str) -> str:
    """Return ``final``, first calling ``build(staging)`` to fill it
    if it does not exist. Stale same-kind entries with this ``tag``
    are swept before the build; ``final.src`` is written before the
    rename, so every published artifact can be swept. A concurrent
    builder that renames first wins; the loser drops its copy. Any
    exception removes the staging directory."""
    if os.path.isdir(final):
        return final
    root, base = os.path.split(final)
    kind = base[: -_KEY_LEN - 1]
    os.makedirs(root, exist_ok=True)
    siblings = glob.escape(kind) + "-" + "?" * _KEY_LEN + ".src"
    for srcf in glob.glob(os.path.join(root, siblings)):
        stale = srcf[: -len(".src")]
        if stale == final:
            continue
        try:
            with open(srcf) as f:
                if f.read() != tag:
                    continue
            shutil.rmtree(stale, ignore_errors=True)
            os.remove(srcf)
        except OSError:
            pass
    staging = tempfile.mkdtemp(dir=root, prefix=base + ".tmp-")
    try:
        build(staging)
        with open(final + ".src", "w") as f:
            f.write(tag)
        try:
            os.rename(staging, final)
        except OSError:
            if not os.path.isdir(final):
                raise
            shutil.rmtree(staging, ignore_errors=True)  # lost the race
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    return final


def artifact(kind: str, src: str, params: tuple, build) -> str:
    """``publish`` the ``kind`` artifact of ``src`` under ``params``."""
    return publish(path(kind, src, params), build, tag(src, params))
