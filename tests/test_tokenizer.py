"""Golden-value tokenizer tests (FIXTURES.md F3; reference behavior:
MediaServiceLive.scala:1641-1668 and the CRUD tokenizer spec
MediaServiceCRUDOperationsTest.scala:139-153)."""

import pyarrow as pa
import pytest

from sotohp_ray.config import TokenizerRules
from sotohp_ray.functions.tokenizer import CodeTokenizer


@pytest.fixture(scope="module")
def tok():
    return CodeTokenizer()


@pytest.mark.parametrize(
    "text,expected",
    [
        ("parseHttpRequest", ["parse", "http", "request"]),
        ("read_parquet_file", ["read", "parquet", "file"]),
        ("XMLHttpRequest2", ["xml", "http", "request2"]),
        ("MAX_BUFFER_SIZE", ["max", "buffer", "size"]),
        ("x = 42", ["x"]),
        ('"some string"', ["some", "string"]),
        ("kebab-case-name", ["kebab", "case", "name"]),
        ("", []),
        ("42 17 99", []),
        ("def foo(bar):\n    return bar + 1", ["def", "foo", "bar", "return", "bar"]),
    ],
)
def test_default_goldens(tok, text, expected):
    assert tok.tokens_of(text) == expected


def test_stopwords():
    t = CodeTokenizer(TokenizerRules(stopwords=frozenset({"def"})))
    assert t.tokens_of("def foo") == ["foo"]


def test_mapping_applied_post_split():
    t = CodeTokenizer(TokenizerRules(mappings=(("colour", "color"),)))
    assert t.tokens_of("colourScheme colour") == ["color", "scheme", "color"]


def test_rewriting_ordered_pre_split():
    # reference CRUD spec analog: rewriting (42)(thing) -> $2$1
    t = CodeTokenizer(TokenizerRules(rewritings=((r"(42)(thing)", r"\2\1"),)))
    assert t.tokens_of("42thing") == ["thing42"]


def test_term_frequencies_combiner(tok):
    tbl = tok.term_frequencies(
        pa.array(["foo foo bar", "bar"], type=pa.large_string())
    )
    d = {}
    for r, t, f in zip(
        tbl["row_idx"].to_pylist(), tbl["term"].to_pylist(), tbl["tf"].to_pylist()
    ):
        d[(r, t)] = f
    assert d == {(0, "foo"): 2, (0, "bar"): 1, (1, "bar"): 1}


def test_token_lists_roundtrip(tok):
    lists = tok.token_lists(
        pa.array(["parseHttp x", "", "a_b 42"], type=pa.large_string())
    )
    assert lists.to_pylist() == [["parse", "http", "x"], [], ["a", "b"]]


def test_sql_parity_with_duckdb(tok):
    """The DuckDB expression in sql_token_expr must produce identical
    token arrays (both are RE2) — this is the foundation of the
    oracle_sql correctness gate."""
    import duckdb

    from sotohp_ray.functions.tokenizer import sql_token_expr

    texts = [
        "parseHttpRequest def foo_bar",
        "XMLHttpRequest2 MAX_BUFFER_SIZE x = 42",
        "the fast key order sort",
        "",
        "mixedCase kebab-case 'lit' \"str\" 3.14 v2Engine",
    ]
    con = duckdb.connect()
    con.register(
        "t", __import__("pyarrow").table({"text": texts, "i": range(len(texts))})
    )
    rows = con.sql(
        f"select i, {sql_token_expr('text')} as toks from t order by i"
    ).fetchall()
    for i, toks in rows:
        assert toks == tok.tokens_of(texts[i]), texts[i]


def test_geo_kernels():
    import numpy as np

    from sotohp_ray.functions.geo import dms_to_decimal, haversine_km

    assert dms_to_decimal("40°26'46\"N") == pytest.approx(40.446111, abs=1e-5)
    assert dms_to_decimal("79°58'56\"W") == pytest.approx(-79.982222, abs=1e-5)
    assert dms_to_decimal("12.5°S") == pytest.approx(-12.5)
    with pytest.raises(ValueError):
        dms_to_decimal("not a coordinate")
    # Paris -> London ~ 343-344 km
    d = haversine_km(np.array([48.8566]), np.array([2.3522]), 51.5074, -0.1278)
    assert 330 < float(d[0]) < 350
    assert float(haversine_km(np.array([10.0]), np.array([20.0]), 10.0, 20.0)[0]) == 0.0


# ---- tokens_of's Python-``re`` path against the Arrow chain ----------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# camelCase runs, acronyms, digits, separators and punctuation, plus any
# printable ASCII character
_ASCII_CODE = st.lists(
    st.one_of(
        st.sampled_from([
            "foo", "Bar", "XML", "Http", "parse", "HTTPServer", "v2",
            "42", "007", "a1B", "x", "Z", "the", "colour", "_", "-", " ",
            ".", "()", "'", '"', "\n", "\t", "::", "=", "$", "#",
        ]),
        st.characters(min_codepoint=0, max_codepoint=127),
    ),
    max_size=16,
).map("".join)

_RULES = TokenizerRules(
    mappings=(("colour", "color"), ("http", "web"), ("foo", "42")),
    stopwords=frozenset({"the", "bar", "web"}),
)


def _arrow_tokens(t: CodeTokenizer, text: str) -> list[str]:
    return t.token_lists(pa.array([text], type=pa.large_string()))[0].as_py()


@settings(max_examples=300, deadline=None)
@given(_ASCII_CODE)
def test_tokens_of_equals_token_lists(text):
    """On ASCII text, under default rules and under mappings plus
    stopwords (a mapping to a number is kept: the number drop runs
    first), ``tokens_of`` equals the batch chain."""
    for rules in (TokenizerRules(), _RULES):
        t = CodeTokenizer(rules)
        assert t.tokens_of(text) == _arrow_tokens(t, text), rules


@settings(max_examples=100, deadline=None)
@given(_ASCII_CODE)
def test_tokens_of_equals_duckdb(text):
    import duckdb

    from sotohp_ray.functions.tokenizer import sql_token_expr

    (want,), = duckdb.connect().execute(
        f"select {sql_token_expr('?')}", [text]).fetchall()
    assert CodeTokenizer().tokens_of(text) == want


def test_tokens_of_non_ascii_stays_on_arrow():
    """Outside ASCII Python and Arrow lowercase differently: Arrow gives
    one token for 'İstanbul', ``str.lower`` a dotted i that splits."""
    t = CodeTokenizer()
    assert t.tokens_of("İstanbul") == _arrow_tokens(t, "İstanbul") \
        == ["istanbul"]
    # RE2's [A-Z] does not hold 'İ': no camelCase cut before it
    assert t.tokens_of("parseİstanbulHTTP") == ["parseistanbul", "http"]
