import pytest

from mockserver import ScriptedHandler, scripted_server
from slidegar.corpus_store import Query
from slidegar.rankers import (
    IdentityRanker,
    ListwiseRanker,
    NoisyOracleRanker,
    OracleRanker,
    RemoteRanker,
    Window,
    truncate_doc_text,
)

Q = Query("q1", "some query")


def window(*docnos):
    return Window(Q, docnos, tuple(f"text of {d}" for d in docnos))


# --- contract ---


def test_window_validation():
    with pytest.raises(ValueError, match="at least one document"):
        Window(Q, (), ())
    with pytest.raises(ValueError, match="2 docnos but 1 texts"):
        Window(Q, ("a", "b"), ("x",))
    with pytest.raises(ValueError, match="duplicate docnos"):
        Window(Q, ("a", "a"), ("x", "y"))
    w = Window(Q, ["a", "b"], ["x", "y"])
    assert (w.query, w.docnos, w.texts) == (Q, ("a", "b"), ("x", "y"))


def test_singleton_window():
    ordering = IdentityRanker().rank(window("only"))
    assert ordering == ("only",)


def test_identity_keeps_order():
    ordering = IdentityRanker().rank(window("a", "b", "c"))
    assert ordering == ("a", "b", "c")


def test_oracle_orders_by_grade():
    ranker = OracleRanker({"q1": {"a": 0, "b": 3, "c": 1}})
    ordering = ranker.rank(window("a", "b", "c"))
    assert ordering == ("b", "c", "a")


def test_oracle_unjudged_is_zero_and_ties_stable():
    ranker = OracleRanker({"q1": {"b": 1}})
    ordering = ranker.rank(window("a", "b", "c", "d"))
    assert ordering == ("b", "a", "c", "d")


def test_non_permutation_from_local_ranker_raises():
    class Broken(ListwiseRanker):
        def _order(self, w):
            return [w.docnos[0]] * len(w.docnos)

    with pytest.raises(ValueError, match="permutation"):
        Broken().rank(window("a", "b"))


# --- noisy oracle ---


def test_noisy_zero_prob_equals_oracle():
    grades = {"q1": {"a": 2, "b": 1, "c": 3}}
    noisy = NoisyOracleRanker(grades, swap_prob=0.0, seed=9)
    oracle = OracleRanker(grades)
    w = window("a", "b", "c")
    assert noisy.rank(w) == oracle.rank(w)


def test_noisy_reproducible_per_window():
    grades = {"q1": {f"d{i}": i % 4 for i in range(10)}}
    ranker = NoisyOracleRanker(grades, swap_prob=0.5, seed=123)
    w = window(*[f"d{i}" for i in range(10)])
    first = ranker.rank(w)
    # interleave an unrelated window: the repeated window must not notice
    ranker.rank(window("d1", "d2"))
    assert ranker.rank(w) == first
    again = NoisyOracleRanker(grades, swap_prob=0.5, seed=123)
    assert again.rank(w) == first


def test_noisy_seed_changes_output():
    grades = {"q1": {}}
    w = window(*[f"d{i}" for i in range(12)])
    a = NoisyOracleRanker(grades, swap_prob=0.5, seed=1).rank(w)
    b = NoisyOracleRanker(grades, swap_prob=0.5, seed=2).rank(w)
    assert a != b  # twelve docs at p=0.5: collision is astronomically unlikely


def test_noisy_output_is_permutation():
    grades = {"q1": {f"d{i}": (7 * i) % 5 for i in range(20)}}
    ranker = NoisyOracleRanker(grades, swap_prob=0.9, seed=4)
    w = window(*[f"d{i}" for i in range(20)])
    assert sorted(ranker.rank(w)) == sorted(w.docnos)


# --- remote ranker and its degradation paths ---


@pytest.fixture
def mock_endpoint():
    with scripted_server(["identity"]) as endpoint:
        yield endpoint


def test_remote_reversed_echo(mock_endpoint):
    ScriptedHandler.script = ["reverse"]
    ranker = RemoteRanker(mock_endpoint, timeout=5, retries=0)
    ordering = ranker.rank(window("a", "b", "c"))
    assert ordering == ("c", "b", "a")


def test_remote_duplicate_docno_degrades_to_input_order(mock_endpoint, caplog):
    ScriptedHandler.script = ["duplicate"]
    ranker = RemoteRanker(mock_endpoint, timeout=5, retries=1, backoff=0.01)
    with caplog.at_level("WARNING", logger="slidegar.rankers"):
        ordering = ranker.rank(window("a", "b", "c"))
    assert ordering == ("a", "b", "c")
    assert any("non-permutation" in r.message for r in caplog.records)
    assert any("degraded" in r.message for r in caplog.records)


def test_remote_timeout_twice_then_success(mock_endpoint):
    ScriptedHandler.script = ["sleep:1.0", "sleep:1.0", "reverse"]
    ranker = RemoteRanker(mock_endpoint, timeout=0.3, retries=3, backoff=0.01)
    ordering = ranker.rank(window("a", "b"))
    assert ordering == ("b", "a")


def test_remote_http_error_then_success(mock_endpoint):
    ScriptedHandler.script = ["status:500", "reverse"]
    ranker = RemoteRanker(mock_endpoint, timeout=5, retries=2, backoff=0.01)
    assert ranker.rank(window("a", "b")) == ("b", "a")


def test_remote_garbage_body_degrades(mock_endpoint):
    ScriptedHandler.script = ["garbage"]
    ranker = RemoteRanker(mock_endpoint, timeout=5, retries=1, backoff=0.01)
    assert ranker.rank(window("x", "y")) == ("x", "y")


@pytest.mark.parametrize("kwargs, message", [
    ({"retries": -1}, "retries must be >= 0"),
    ({"timeout": 0}, "timeout must be > 0"),
    ({"timeout": -1.0}, "timeout must be > 0"),
    ({"timeout": float("nan")}, "timeout must be > 0"),
])
def test_remote_rejects_out_of_range_settings(kwargs, message):
    with pytest.raises(ValueError, match=message):
        RemoteRanker("http://127.0.0.1:9", **kwargs)


def test_remote_connection_refused_degrades():
    ranker = RemoteRanker("http://127.0.0.1:9", timeout=0.2, retries=1, backoff=0.01)
    assert ranker.rank(window("a", "b")) == ("a", "b")


def test_remote_truncates_doc_text(mock_endpoint):
    ScriptedHandler.script = ["identity"]
    ranker = RemoteRanker(mock_endpoint, timeout=5, retries=0)
    long_text = " ".join(f"tok{i}" for i in range(600))
    w = Window(Q, ("a",), (long_text,))
    ranker.rank(w)
    sent = ScriptedHandler.requests_seen[-1]["candidates"][0]["text"]
    assert sent == " ".join(f"tok{i}" for i in range(512))
    assert sent == truncate_doc_text(long_text)


def test_remote_sends_wire_protocol_fields(mock_endpoint):
    ScriptedHandler.script = ["identity"]
    RemoteRanker(mock_endpoint, timeout=5, retries=0).rank(window("a", "b"))
    body = ScriptedHandler.requests_seen[-1]
    assert body["qid"] == "q1" and body["query"] == "some query"
    assert body["candidates"] == [
        {"docno": "a", "text": "text of a"},
        {"docno": "b", "text": "text of b"},
    ]


def test_remote_sends_auth_header(mock_endpoint):
    ScriptedHandler.script = ["identity"]
    ranker = RemoteRanker(mock_endpoint, timeout=5, retries=0, auth="Bearer sekrit")
    assert ranker.headers["Authorization"] == "Bearer sekrit"
    ranker.rank(window("a"))  # header accepted by the endpoint
