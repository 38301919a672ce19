"""The index build's whole-column kernels against references that share
no code with them: the tokenizer's ASCII byte kernel against the Arrow
RE2 chain and DuckDB's ``sql_token_expr``, the doc-hash columns against
stdlib ``uuid``/``hashlib``, and the merge's one-pass posting decode
against a per-row decode."""

import hashlib
import uuid

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sotohp_ray.config import IndexConfig, TokenizerRules
from sotohp_ray.functions import codec as pcodec
from sotohp_ray.functions.hashing import doc_uuid_column, sha256_column
from sotohp_ray.functions.tokenizer import (
    CodeTokenizer,
    _ascii_kernel,
    sql_token_expr,
)

RULES = {
    "default": TokenizerRules(),
    "map_stop": TokenizerRules(
        mappings=(("colour", "color"), ("b", "bee")),
        stopwords=frozenset({"def", "a", "zz"}),
    ),
    "rewrite": TokenizerRules(rewritings=((r"(42)(thing)", r"\2\1"),)),
}


def chain(tok: CodeTokenizer, content) -> tuple[list, list]:
    """The pure Arrow chain for every row, mapping and stopwords after."""
    parents, flat = tok._map_stop(*tok._arrow_chain(content))
    return parents.to_pylist(), flat.to_pylist()


def got(tok: CodeTokenizer, content) -> tuple[list, list]:
    parents, flat = tok.exploded(content)
    assert parents.type == pa.int64()
    want_type = content.type
    assert flat.type == want_type
    return parents.to_pylist(), flat.to_pylist()


# ASCII classes (with the camelCase edges) and a few non-ASCII letters,
# among them the ones whose Arrow lowercasing is ASCII or two code points
ASCII = "aAbBzZxXyY0189_ -.\t\n\"'("
ALPHABET = ASCII + "éİı\u212aß日"


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(
        st.one_of(st.none(), st.text(alphabet=ALPHABET, max_size=14)),
        max_size=7,
    ),
    large=st.booleans(),
    cut=st.integers(0, 3),
    rules=st.sampled_from(sorted(RULES)),
)
def test_exploded_equals_arrow_chain(rows, large, cut, rules):
    tok = CodeTokenizer(RULES[rules])
    arr = pa.array(rows, type=pa.large_string() if large else pa.string())
    cut = min(cut, len(arr))
    for content in (
        arr,
        arr.slice(cut),  # offset != 0
        pa.chunked_array([arr.slice(0, cut), arr.slice(cut)]),
    ):
        assert got(tok, content) == chain(tok, content)
    lists = tok.token_lists(arr).to_pylist()
    for i, text in enumerate(rows):
        assert lists[i] == ([] if text is None else tok.tokens_of(text))


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.text(alphabet=ASCII, max_size=20),
                     max_size=6))
def test_byte_kernel_equals_chain_on_ascii(rows):
    tok = CodeTokenizer()
    arr = pa.array(rows, type=pa.large_string())
    parents, flat = _ascii_kernel(arr)
    want_p, want_f = tok._arrow_chain(arr)
    assert parents.tolist() == want_p.tolist()
    assert flat.to_pylist() == want_f.to_pylist()


@pytest.mark.parametrize(
    "text,expected",
    [
        ("a1B2", ["a1", "b2"]),
        ("42abc", ["42abc"]),
        ("42Abc", ["abc"]),
        ("ABCDef", ["abc", "def"]),
        ("aBCd", ["a", "b", "cd"]),
        ("HTTPServer2X", ["http", "server2", "x"]),
        ("--__ .. ", []),
        ("", []),
        ("12 3_4 x9", ["x9"]),
    ],
)
def test_planted_cuts(text, expected):
    tok = CodeTokenizer()
    for typ in (pa.string(), pa.large_string()):
        parents, flat = tok.exploded(pa.array([text], type=typ))
        assert flat.to_pylist() == expected
        assert parents.to_pylist() == [0] * len(expected)


def test_mixed_batch_keeps_row_order():
    """ASCII and non-ASCII rows in one batch come back in row order. The
    Kelvin sign U+212A lowercases to ASCII ``k`` in Arrow, so its row
    gives ``kelvin``, not ``elvin``; ``İ`` lowercases to ``i``."""
    assert not "\u212aelvin".isascii()
    tok = CodeTokenizer()
    rows = ["fooBar x1", "Kelvin", None, "İstanbul HTTPServer", "",
            "zz 42 Kelvin", "naïveCafé"]
    for typ in (pa.string(), pa.large_string()):
        arr = pa.array(rows, type=typ)
        assert tok.token_lists(arr).to_pylist() == [
            ["foo", "bar", "x1"], ["kelvin"], [], ["istanbul", "http",
                                                  "server"], [],
            ["zz", "kelvin"], ["na", "ve", "caf"],
        ]
        assert got(tok, arr) == chain(tok, arr)


def test_empty_inputs():
    tok = CodeTokenizer()
    for content in (
        pa.array([], type=pa.large_string()),
        pa.array([None, None], type=pa.string()),
        pa.chunked_array([], type=pa.string()),
        pa.array(["", " - "], type=pa.string()),
    ):
        parents, flat = tok.exploded(content)
        assert len(parents) == len(flat) == 0
        assert flat.type == content.type
    row, code, tf, dic, pos = tok.term_frequency_codes_positions(
        pa.array(["", "1 2"], type=pa.large_string())
    )
    assert row.size == code.size == tf.size == pos.size == len(dic) == 0


def test_kernel_matches_duckdb():
    duckdb = pytest.importorskip("duckdb")
    texts = ["parseHTTPServer2X a1B2", "ABCDef aBCd 42abc 42 7", "",
             "snake_case kebab-case x=3.14 v2Engine", " -- "]
    con = duckdb.connect()
    con.register("t", pa.table({"text": texts, "i": range(len(texts))}))
    rows = con.sql(
        f"select i, {sql_token_expr('text')} as toks from t order by i"
    ).fetchall()
    lists = CodeTokenizer().token_lists(pa.array(texts)).to_pylist()
    assert [toks for _, toks in rows] == lists


# ------------------------------------------------------------- hashing


@settings(max_examples=60, deadline=None)
@given(names=st.lists(
    st.tuples(*[st.text(max_size=8)] * 3), min_size=0, max_size=6))
def test_doc_uuid_column_equals_stdlib(names):
    cols = [pa.array([n[i] for n in names], type=pa.string())
            for i in range(3)]
    want = [str(uuid.uuid5(uuid.NAMESPACE_URL, f"{r}:{p}@{c}"))
            for r, p, c in names]
    assert doc_uuid_column(*cols).to_pylist() == want
    if names:
        chunked = [pa.chunked_array([c.slice(0, 1), c.slice(1)])
                   for c in cols]
        assert doc_uuid_column(*chunked).to_pylist() == want


def test_doc_uuid_column_planted():
    repo = pa.array(["org/répo", "r"])
    path = pa.array(["zz", "src/日本.py", "p"]).slice(1)  # offset 1
    commit = pa.array(["x", "abc"])
    assert doc_uuid_column(repo, path, commit).to_pylist() == [
        str(uuid.uuid5(uuid.NAMESPACE_URL, "org/répo:src/日本.py@x")),
        str(uuid.uuid5(uuid.NAMESPACE_URL, "r:p@abc")),
    ]


@settings(max_examples=60, deadline=None)
@given(texts=st.lists(st.one_of(st.none(), st.text(max_size=30)),
                     max_size=6),
       cut=st.integers(0, 3), large=st.booleans())
def test_sha256_column_equals_hashlib(texts, cut, large):
    arr = pa.array(texts, type=pa.large_string() if large else pa.string())
    cut = min(cut, len(arr))
    for content, rows in (
        (arr, texts),
        (arr.slice(cut), texts[cut:]),
        (pa.chunked_array([arr.slice(0, cut), arr.slice(cut)]), texts),
    ):
        out = sha256_column(content)
        assert isinstance(out, pa.Array) and out.type == pa.string()
        assert out.to_pylist() == [
            None if t is None else hashlib.sha256(t.encode()).hexdigest()
            for t in rows
        ]


# --------------------------------------------------------- merge decode


def per_row_decode(group: pa.Table) -> tuple[list, list, list]:
    """Reference: one varint decode per blob row and column."""
    docs, tfs, dls = [], [], []
    for r in group.to_pylist():
        if r["doc_blob"] is None:
            docs.append(r["doc0"])
            tfs.append(r["tf0"])
            dls.append(r["dl0"])
            continue
        c = r["count"]
        docs += np.cumsum(
            pcodec.varint_decode(r["doc_blob"], c), dtype=np.uint64
        ).tolist()
        tfs += pcodec.varint_decode(r["tf_blob"], c).tolist()
        dls += pcodec.varint_decode(r["dl_blob"], c).tolist()
    return docs, tfs, dls


def one_pass_decode(group: pa.Table) -> tuple[list, list, list]:
    from sotohp_ray.stages.merge import decode_postings

    counts = group["count"].to_numpy(zero_copy_only=False).astype(np.int64)
    row_starts = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=row_starts[1:])
    return tuple(a.tolist() for a in decode_postings(group, counts,
                                                      row_starts))


def partials_of(docs: list[str], salt_rows: int) -> pa.Table:
    from sotohp_ray.stages.spimi import index_partition_table

    n = len(docs)
    t = pa.table({
        "repo": pa.array(["r"] * n),
        "path": pa.array([f"{i:05d}" for i in range(n)]),
        "commit": pa.array(["0"] * n),
        "lang": pa.array(["x"] * n),
        "content": pa.array(docs),
    })
    cfg = IndexConfig(num_term_shards=1, salt_rows=salt_rows)
    return index_partition_table(t, 0, 1000, cfg)[1]


def with_junk_in_null_slots(col: pa.Array) -> pa.Array:
    """The same binary column, but every null slot's offsets span junk
    bytes (valid Arrow: a null slot's bytes are unspecified)."""
    vals = col.to_pylist()
    data, offs = bytearray(), [0]
    for v in vals:
        data += b"\x85\x81\x01" if v is None else v
        offs.append(len(data))
    validity = pa.array([v is not None for v in vals]).buffers()[1]
    return pa.Array.from_buffers(
        pa.large_binary(), len(vals),
        [validity, pa.py_buffer(np.array(offs, dtype=np.int64)),
         pa.py_buffer(bytes(data))],
        null_count=sum(v is None for v in vals),
    )


def test_merge_decode_equals_per_row_decode():
    # "common" is in 7 docs: with salt_rows=3 that is chunks of 3, 3
    # and a remainder chunk that holds ONE posting inside a blob
    docs = [f"common w{i % 3} w{i % 2} uniq{i}" for i in range(7)]
    docs += ["solo solo", "pair x", "pair y"]
    group = partials_of(docs, salt_rows=3)
    counts = group["count"].to_pylist()
    blobs = group["doc_blob"].to_pylist()
    assert any(c == 1 and b is not None for c, b in zip(counts, blobs))
    assert any(b is None for b in blobs)
    want = per_row_decode(group)
    assert one_pass_decode(group) == want
    # chunked columns and junk bytes under null slots change nothing
    for name in ("doc_blob", "tf_blob", "dl_blob"):
        i = group.schema.get_field_index(name)
        junk = with_junk_in_null_slots(group[name].combine_chunks())
        group = group.set_column(i, name, junk)
    assert one_pass_decode(group) == want
    chunked = pa.concat_tables([group.slice(0, 2), group.slice(2)])
    assert one_pass_decode(chunked) == want


def test_merge_decode_all_inline_and_all_blob():
    inline = partials_of([f"t{i}" for i in range(4)], salt_rows=3)
    assert inline["doc_blob"].null_count == inline.num_rows
    assert one_pass_decode(inline) == per_row_decode(inline)
    blob = partials_of(["a b"] * 5, salt_rows=2)
    assert blob["doc_blob"].null_count == 0
    assert one_pass_decode(blob) == per_row_decode(blob)


def test_merge_decode_rejects_a_row_off_its_count():
    """Each blob row must hold exactly its count of whole values. Moving
    one value from one row to the next keeps the total; so does cutting
    a row's last value so that it runs on into the next row. Both must
    raise, as a decode per row would."""
    group = partials_of(["a b"] * 5, salt_rows=2)
    col = group["tf_blob"].combine_chunks().to_pylist()
    assert len(col) >= 2 and all(len(v) >= 2 for v in col[:2])
    i = group.schema.get_field_index("tf_blob")

    def with_tf(rows: list) -> pa.Table:
        arr = pa.array(rows + col[2:], type=group["tf_blob"].type)
        return group.set_column(i, "tf_blob", arr)

    assert one_pass_decode(with_tf(col[:2])) == per_row_decode(group)
    # one value too few, then one too many
    moved = with_tf([col[0][:-1], col[0][-1:] + col[1]])
    with pytest.raises(ValueError, match="partial row"):
        one_pass_decode(moved)
    # a row whose last value's end byte is gone runs on into the next
    cut = with_tf([col[0][:-1] + bytes([col[0][-1] | 0x80]), col[1]])
    with pytest.raises(ValueError, match="cut one"):
        one_pass_decode(cut)
    # every value whole, but a dangling continuation byte runs on
    dangling = with_tf([col[0] + b"\x80", col[1]])
    with pytest.raises(ValueError, match="cut one"):
        one_pass_decode(dangling)
