"""Configuration objects for the engine.

``TokenizerRules`` is the analog of the reference's per-store
``KeywordRules`` (ignoring / mappings / rewritings — reference:
modules/service/src/main/scala/.../MediaServiceLive.scala:1641-1668 and
service/model/KeywordRules.scala): an ordered list of regex rewritings
applied before splitting, a post-split synonym mapping table, and a
stopword set. All regexes are RE2-compatible (pyarrow.compute uses RE2,
as does DuckDB — this keeps the engine and the SQL oracle semantics
identical).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

# physical index layout version: part of every config/lineage
# fingerprint, so a format change invalidates stale checkpoints and
# cached indexes instead of mixing layouts
# v4: positional postings (pos0/pos_blob in partials + dictionary)
INDEX_FORMAT = 4


@dataclass(frozen=True)
class TokenizerRules:
    """Code-aware analyzer configuration.

    The default chain (no rewritings/mappings/stopwords) is:
      1. ordered regex rewritings (sed-like, applied to the raw text)
      2. camelCase boundary insertion (``fooBar`` -> ``foo Bar``,
         ``XMLHttp`` -> ``XML Http``)
      3. lowercase
      4. split on ``[^a-z0-9]+`` (this covers snake_case, kebab-case,
         whitespace, punctuation and string-literal quotes)
      5. drop empty and pure-number tokens (``^[0-9]*$``)
      6. post-split synonym mapping
      7. stopword removal
    """

    rewritings: tuple[tuple[str, str], ...] = ()
    mappings: tuple[tuple[str, str], ...] = ()
    stopwords: frozenset[str] = frozenset()

    def mapping_dict(self) -> dict[str, str]:
        return dict(self.mappings)

    def version_hash(self) -> str:
        """Fingerprint of the tokenizer config; stored in per-partition
        lineage so a resume after a config change is detected instead of
        silently mixing two tokenizations (the reference's
        non-transactional checkpoint TODO, MediaServiceLive.scala:1480,
        is the cautionary tale)."""
        payload = json.dumps(
            {
                "rewritings": list(self.rewritings),
                "mappings": sorted(self.mappings),
                "stopwords": sorted(self.stopwords),
                "chain": "v1",
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class BM25Params:
    """Lucene-style BM25 (the scoring the reference delegates to
    Elasticsearch — modules/search/ElasticOperations.scala)."""

    k1: float = 1.2
    b: float = 0.75


@dataclass
class IndexConfig:
    """Physical layout knobs for the index build.

    num_term_shards: term dictionary shards (``term_shard =
        crc32(term) % S``). Sized so one shard's merged postings fit a
        merge task's heap; at 100 TB this is thousands, at test scale
        dozens.
    block_size: docs per posting block (block-max granularity).
    salt_rows: partial-posting rows for one term inside one input
        partition are chunked into sub-rows ("salts") of at most this
        many postings. Salt chunks are docID-contiguous, so the merge
        can concatenate them without a global re-sort; this bounds the
        size of any single shuffled row for hot terms
        (``def``/``import``/``{``).
    codec: final-index posting codec — "pfor" (delta + per-block
        frame-of-reference bit packing; ~30% smaller postings than
        varint AND faster vectorized full decode) or "varint"
        (delta + LEB128).
    merge_num_cpus: logical CPUs RESERVED per merge reduce task (an
        execution knob, deliberately NOT part of the config fingerprint
        or the on-disk config — changing it never invalidates an
        index). Merge tasks are memory-bandwidth-heavy (bulk varint
        decode, lexsort, byte gathers over the whole shard's
        postings); on hosts where concurrent page-fault bandwidth
        collapses under full-width faulting (see
        tools/host_probe.py — the bench VM drops 45x above ~10 GB of
        concurrent fresh faults), raising this to 2.0 halves the
        reduce width per node. It also sizes the merge: the shard
        ranges are ``cluster CPUs / merge_num_cpus`` tasks (at most one
        per shard, ``utils.map_items``), so 2.0 also halves the number
        of merge tasks. Default 1.0: a 4-round adjacent
        interleaved A/B on the bench host read cap-2/cap-1 build
        ratios of 2.56/0.87/1.44/0.58 (median ~1.2) — the host's
        minute-scale drift swamps any real effect, so the knob stays
        neutral by default and is available for genuinely
        bandwidth-constrained deployments.
    path_include / path_ignore: S1 include/ignore masks — RE2 regexes
        applied to each row's ``path`` during indexing (reference
        analog: FileSystemSearch.scala:56-77 includeMask/ignoreMask
        filters in the filesystem walk). A row indexes iff it matches
        ``path_include`` (when set) and does NOT match ``path_ignore``
        (when set). Part of the config fingerprint, so changing a mask
        correctly invalidates partition lineage.
    """

    num_term_shards: int = 64
    block_size: int = 128
    salt_rows: int = 65536
    merge_num_cpus: float = 1.0
    codec: str = "pfor"
    path_include: str | None = None
    path_ignore: str | None = None
    tokenizer: TokenizerRules = field(default_factory=TokenizerRules)
    bm25: BM25Params = field(default_factory=BM25Params)

    def to_json(self) -> str:
        return json.dumps(
            {
                "format": INDEX_FORMAT,
                "num_term_shards": self.num_term_shards,
                "block_size": self.block_size,
                "salt_rows": self.salt_rows,
                "codec": self.codec,
                "path_include": self.path_include,
                "path_ignore": self.path_ignore,
                "tokenizer_version": self.tokenizer.version_hash(),
                # full rules (not just the hash) so a Searcher opened
                # on this index reconstructs the EXACT analyzer — a
                # query tokenized with different rules silently returns
                # wrong results
                "tokenizer_rules": {
                    "rewritings": [list(x) for x in self.tokenizer.rewritings],
                    "mappings": [list(x) for x in self.tokenizer.mappings],
                    "stopwords": sorted(self.tokenizer.stopwords),
                },
                "bm25": {"k1": self.bm25.k1, "b": self.bm25.b},
            },
            sort_keys=True,
        )

    @staticmethod
    def from_json(payload: str) -> "IndexConfig":
        cj = json.loads(payload)
        rules = cj.get("tokenizer_rules")
        if rules is not None:
            tok = TokenizerRules(
                rewritings=tuple(tuple(x) for x in rules["rewritings"]),
                mappings=tuple(tuple(x) for x in rules["mappings"]),
                stopwords=frozenset(rules["stopwords"]),
            )
        else:
            tok = TokenizerRules()
        cfg = IndexConfig(
            num_term_shards=cj["num_term_shards"],
            block_size=cj["block_size"],
            salt_rows=cj["salt_rows"],
            codec=cj["codec"],
            path_include=cj.get("path_include"),
            path_ignore=cj.get("path_ignore"),
            tokenizer=tok,
            bm25=BM25Params(k1=cj["bm25"]["k1"], b=cj["bm25"]["b"]),
        )
        if cfg.tokenizer.version_hash() != cj["tokenizer_version"]:
            raise ValueError(
                "config.json tokenizer_version does not match the "
                "serialized rules — the index was built with analyzer "
                "rules this engine version cannot reconstruct"
            )
        return cfg
