import re
import threading

import pytest

from mockserver import ScriptedHandler, scripted_server
from slidegar.corpus_store import CorpusStore, Query
from slidegar.rankers import (
    ListwiseRanker,
    OracleRanker,
    RemoteRanker,
    Window,
    truncate_doc_text,
)

Q = Query("q1", "some query")
NAMES = ["a", "b", "c", "d", "only", "x", "y", *(f"d{i}" for i in range(20))]
STORE = CorpusStore(NAMES, [f"text of {d}" for d in NAMES])


def ids(*docnos):
    return [STORE.id_of[d] for d in docnos]


def window(*docnos):
    return Window(Q, ids(*docnos))


def docnos(ordering):
    return [STORE.docnos[i] for i in ordering]


def grades(per_docno):
    """One query's grades, keyed by doc id as ``map_qrels`` returns them."""
    return {"q1": {STORE.id_of[d]: grade for d, grade in per_docno.items()}}


# --- contract ---


def test_window_validation():
    with pytest.raises(ValueError, match="at least one document"):
        Window(Q, ())
    for names in (("a", "a"), ("a", "b", "c", "b")):
        with pytest.raises(ValueError, match="duplicate ids"):
            window(*names)


def test_window_holds_the_query_and_ids_only():
    w = Window(Q, ids("c", "a"))  # a list, kept as a tuple
    assert (w.query, w.ids) == (Q, tuple(ids("c", "a")))
    assert (w.attempts, w.degraded) == (1, False)
    assert not hasattr(w, "docnos") and not hasattr(w, "texts")


def test_singleton_window():
    assert OracleRanker({}).rank(window("only")) == ids("only")


def test_identity_keeps_order():
    assert OracleRanker({}).rank(window("c", "a", "b")) == ids("c", "a", "b")


def test_oracle_orders_by_grade():
    ranker = OracleRanker(grades({"a": 0, "b": 3, "c": 1}))
    assert docnos(ranker.rank(window("a", "b", "c"))) == ["b", "c", "a"]


def test_oracle_unjudged_is_zero_and_ties_stable():
    ranker = OracleRanker(grades({"b": 1}))
    assert docnos(ranker.rank(window("a", "b", "c", "d"))) == ["b", "a", "c", "d"]


def test_non_permutation_from_local_ranker_raises():
    class Broken(ListwiseRanker):
        def _order(self, w):
            return bad(w)

    for bad in (
        lambda w: [w.ids[0]] * len(w.ids),  # the right length, one id repeated
        lambda w: [*w.ids[:-1], w.ids[0]],  # the right length, the last id missing
        lambda w: [*w.ids[:-1], STORE.id_of["only"]],  # an id outside the window
        lambda w: list(w.ids[:-1]),  # one id short
        lambda w: [*w.ids, STORE.id_of["only"]],  # one id too many
        lambda w: docnos(w.ids),  # docnos, not ids
    ):
        with pytest.raises(ValueError, match="permutation"):
            Broken().rank(window("a", "b", "c"))


def test_in_process_rankers_report_one_attempt_and_no_degradation():
    noisy = OracleRanker({}, STORE.docnos, swap_prob=0.5, seed=1)
    for ranker in (OracleRanker({}), OracleRanker(grades({"b": 1})), noisy):
        w = window("a", "b", "c")
        ranker.rank(w)
        assert (w.attempts, w.degraded) == (1, False), ranker.name


# --- noisy oracle ---


def test_noisy_zero_prob_equals_oracle():
    table = grades({"a": 2, "b": 1, "c": 3})
    noisy = OracleRanker(table, STORE.docnos, swap_prob=0.0, seed=9)
    oracle = OracleRanker(table)
    w = window("a", "b", "c")
    assert noisy.rank(w) == oracle.rank(w)


def test_noisy_reproducible_per_window():
    table = grades({f"d{i}": i % 4 for i in range(10)})
    ranker = OracleRanker(table, STORE.docnos, swap_prob=0.5, seed=123)
    w = window(*[f"d{i}" for i in range(10)])
    first = ranker.rank(w)
    # interleave an unrelated window: the repeated window must not notice
    ranker.rank(window("d1", "d2"))
    assert ranker.rank(w) == first
    again = OracleRanker(table, STORE.docnos, swap_prob=0.5, seed=123)
    assert again.rank(w) == first


def test_noisy_seeds_from_docnos_not_ids():
    # the same docnos under other ids get the same perturbation, so a run's
    # noise does not depend on which other documents the corpus holds
    names = [f"d{i}" for i in range(12)]
    shifted = CorpusStore(["pad", *names], ["pad text", *(f"text of {d}" for d in names)])
    here = docnos(OracleRanker({}, STORE.docnos, swap_prob=0.5, seed=5).rank(window(*names)))
    there = OracleRanker({}, shifted.docnos, swap_prob=0.5, seed=5).rank(Window(Q, [shifted.id_of[d] for d in names]))
    assert here == [shifted.docnos[i] for i in there] != names


def test_noisy_seed_changes_output():
    w = window(*[f"d{i}" for i in range(12)])
    a = OracleRanker({"q1": {}}, STORE.docnos, swap_prob=0.5, seed=1).rank(w)
    b = OracleRanker({"q1": {}}, STORE.docnos, swap_prob=0.5, seed=2).rank(w)
    assert a != b  # twelve docs at p=0.5: collision is astronomically unlikely


def test_noisy_output_is_permutation():
    ranker = OracleRanker(grades({f"d{i}": (7 * i) % 5 for i in range(20)}), STORE.docnos, swap_prob=0.9, seed=4)
    w = window(*[f"d{i}" for i in range(20)])
    assert sorted(ranker.rank(w)) == sorted(w.ids)


@pytest.mark.parametrize("kwargs, message", [
    ({"docnos": STORE.docnos, "swap_prob": -0.1}, "swap_prob must be in [0, 1]"),
    ({"docnos": STORE.docnos, "swap_prob": 1.5}, "swap_prob must be in [0, 1]"),
    ({"docnos": STORE.docnos, "swap_prob": float("nan")}, "swap_prob must be in [0, 1]"),
    ({"swap_prob": 0.5}, "swap_prob > 0 requires the store's docnos"),
])
def test_oracle_rejects_noise_settings_when_built(kwargs, message):
    with pytest.raises(ValueError) as raised:
        OracleRanker({}, **kwargs)
    assert str(raised.value) == message
    OracleRanker({}, [], swap_prob=0.5)  # the docnos of an empty corpus, which has no window to rank


# --- remote ranker and its degradation paths ---


@pytest.fixture
def mock_endpoint():
    with scripted_server(["identity"]) as endpoint:
        yield endpoint


def test_remote_reversed_echo(mock_endpoint):
    ScriptedHandler.script = ["reverse"]
    ranker = RemoteRanker(mock_endpoint, STORE, timeout=5, retries=0)
    assert ranker.rank(window("a", "b", "c")) == ids("c", "b", "a")


@pytest.mark.parametrize("behavior", ["reverse", "shuffle"])
def test_remote_answer_maps_back_to_the_window_ids(mock_endpoint, behavior):
    ScriptedHandler.script = [behavior]
    names = ("y", "a", "d12", "c", "d3")  # not in store order
    w = window(*names)
    ordering = RemoteRanker(mock_endpoint, STORE, timeout=5, retries=0).rank(w)
    answered = ScriptedHandler.answers[-1]["ordering"]
    assert sorted(answered) == sorted(names) and answered != list(names)
    assert ordering == ids(*answered)
    assert (w.attempts, w.degraded) == (1, False)


def test_remote_duplicate_docno_degrades_to_input_order(mock_endpoint, caplog):
    ScriptedHandler.script = ["duplicate"]
    ranker = RemoteRanker(mock_endpoint, STORE, timeout=5, retries=1, backoff=0.01)
    w = window("a", "b", "c")
    with caplog.at_level("WARNING", logger="slidegar.rankers"):
        assert ranker.rank(w) == ids("a", "b", "c")
    assert (w.attempts, w.degraded) == (2, True)
    assert any("non-permutation" in r.message for r in caplog.records)
    assert any("degraded" in r.message for r in caplog.records)


@pytest.mark.parametrize("behavior", ["duplicate", "drop_one", "foreign", "garbage"])
def test_remote_degrades_to_the_window_ids(mock_endpoint, behavior):
    ScriptedHandler.script = [behavior]
    ranker = RemoteRanker(mock_endpoint, STORE, timeout=5, retries=1, backoff=0.01)
    w = window("y", "a", "d12", "c")  # not in store order
    assert ranker.rank(w) == list(w.ids) == ids("y", "a", "d12", "c")
    assert (w.attempts, w.degraded) == (2, True)


def test_remote_timeout_twice_then_success(mock_endpoint):
    ScriptedHandler.script = ["sleep:1.0", "sleep:1.0", "reverse"]
    ranker = RemoteRanker(mock_endpoint, STORE, timeout=0.3, retries=3, backoff=0.01)
    w = window("a", "b")
    assert ranker.rank(w) == ids("b", "a")
    assert (w.attempts, w.degraded) == (3, False)


def test_remote_http_error_then_success(mock_endpoint):
    ScriptedHandler.script = ["status:500", "reverse"]
    ranker = RemoteRanker(mock_endpoint, STORE, timeout=5, retries=2, backoff=0.01)
    assert ranker.rank(window("a", "b")) == ids("b", "a")


def test_remote_garbage_body_degrades(mock_endpoint):
    ScriptedHandler.script = ["garbage"]
    ranker = RemoteRanker(mock_endpoint, STORE, timeout=5, retries=1, backoff=0.01)
    w = window("x", "y")
    assert ranker.rank(w) == ids("x", "y")
    assert (w.attempts, w.degraded) == (2, True)


def test_remote_calls_count_on_their_own_windows(mock_endpoint):
    # a degraded call does not mark the next call's window
    ScriptedHandler.script = ["garbage", "garbage", "identity"]
    ranker = RemoteRanker(mock_endpoint, STORE, timeout=5, retries=1, backoff=0.01)
    first, second = window("x", "y"), window("x", "y")
    ranker.rank(first)
    ranker.rank(second)
    assert [(w.attempts, w.degraded) for w in (first, second)] == [(2, True), (1, False)]


@pytest.mark.parametrize("behavior", ["bad_status", "truncated"])
def test_remote_malformed_response_then_success(mock_endpoint, behavior):
    ScriptedHandler.script = [behavior, "reverse"]
    ranker = RemoteRanker(mock_endpoint, STORE, timeout=5, retries=1, backoff=0.01)
    assert ranker.rank(window("a", "b")) == ids("b", "a")


def test_remote_malformed_responses_degrade(mock_endpoint, caplog):
    ScriptedHandler.script = ["bad_status", "truncated", "bad_status"]
    ranker = RemoteRanker(mock_endpoint, STORE, timeout=5, retries=2, backoff=0.01)
    with caplog.at_level("WARNING", logger="slidegar.rankers"):
        assert ranker.rank(window("x", "y")) == ids("x", "y")
    assert len(ScriptedHandler.requests_seen) == 3
    assert any("degraded" in r.message for r in caplog.records)


@pytest.mark.parametrize("behavior", ["string", "object", "not_an_object"])
def test_remote_ordering_of_the_wrong_type_degrades(mock_endpoint, caplog, behavior):
    # every answer here reads as ("b", "a") if iterated; none is a list of strings in an object
    ScriptedHandler.script = [behavior]
    ranker = RemoteRanker(mock_endpoint, STORE, timeout=5, retries=1, backoff=0.01)
    with caplog.at_level("WARNING", logger="slidegar.rankers"):
        assert ranker.rank(window("a", "b")) == ids("a", "b")
    assert len(ScriptedHandler.requests_seen) == 2
    assert sum("request failed" in r.message for r in caplog.records) == 2
    assert any("degraded" in r.message for r in caplog.records)


@pytest.mark.parametrize("behavior", ["string", "object"])
def test_remote_ordering_of_the_wrong_type_then_success(mock_endpoint, behavior):
    # the first answer would read as ("c", "b", "a"); the retry's answer is taken
    ScriptedHandler.script = [behavior, "identity"]
    ranker = RemoteRanker(mock_endpoint, STORE, timeout=5, retries=2, backoff=0.01)
    assert ranker.rank(window("a", "b", "c")) == ids("a", "b", "c")
    assert len(ScriptedHandler.requests_seen) == 2


@pytest.mark.parametrize("kwargs, message", [
    ({"retries": -1}, "retries must be >= 0"),
    ({"timeout": 0}, "timeout must be > 0"),
    ({"timeout": -1.0}, "timeout must be > 0"),
    ({"timeout": float("nan")}, "timeout must be > 0"),
    ({"timeout": 1e10}, "timeout must be <= "),
    ({"timeout": 1e300}, "timeout must be <= "),
    ({"timeout": float("inf")}, "timeout must be <= "),
    ({"backoff": -1.0}, "backoff must be >= 0 and finite"),
    ({"backoff": float("nan")}, "backoff must be >= 0 and finite"),
    ({"backoff": float("inf")}, "backoff must be >= 0 and finite"),
    # the last sleep, backoff * 2 ** (retries - 1) s, must stay within threading.TIMEOUT_MAX
    ({"retries": 36}, f"retries 36 with backoff 0.5 s would sleep more than {threading.TIMEOUT_MAX} s"),
    ({"retries": 1, "backoff": 1e300}, f"retries 1 with backoff 1e+300 s would sleep more than {threading.TIMEOUT_MAX} s"),
    ({"retries": 1100, "backoff": 0.5}, f"retries 1100 with backoff 0.5 s would sleep more than {threading.TIMEOUT_MAX} s"),
    ({"retries": 2000, "backoff": 1e-300},
     f"retries 2000 with backoff 1e-300 s would sleep more than {threading.TIMEOUT_MAX} s"),
])
def test_remote_rejects_out_of_range_settings(kwargs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        RemoteRanker("http://127.0.0.1:9", STORE, **kwargs)


def test_remote_longest_accepted_backoff_is_within_the_sleep_limit():
    RemoteRanker("http://127.0.0.1:9", STORE, retries=35)  # sleeps 0.5 * 2 ** 34 s before its last attempt
    RemoteRanker("http://127.0.0.1:9", STORE, retries=1, backoff=float(threading.TIMEOUT_MAX))


def test_remote_zero_backoff_degrades_after_any_number_of_retries():
    # 2 ** 1025 overflows a float, so the sleeps are computed without it
    ranker = RemoteRanker("http://127.0.0.1:9", STORE, timeout=1, retries=1030, backoff=0.0)
    w = window("a", "b")
    assert ranker.rank(w) == ids("a", "b")
    assert (w.attempts, w.degraded) == (1031, True)


def test_remote_largest_timeout_degrades_instead_of_overflowing():
    ranker = RemoteRanker("http://127.0.0.1:9", STORE, timeout=threading.TIMEOUT_MAX, retries=0)
    assert ranker.rank(window("a", "b")) == ids("a", "b")


def test_remote_connection_refused_degrades():
    ranker = RemoteRanker("http://127.0.0.1:9", STORE, timeout=0.2, retries=1, backoff=0.01)
    assert ranker.rank(window("a", "b")) == ids("a", "b")


def test_remote_truncates_doc_text(mock_endpoint):
    ScriptedHandler.script = ["identity"]
    long_text = " ".join(f"tok{i}" for i in range(600))
    ranker = RemoteRanker(mock_endpoint, CorpusStore(["a"], [long_text]), timeout=5, retries=0)
    ranker.rank(Window(Q, [0]))
    sent = ScriptedHandler.requests_seen[-1]["candidates"][0]["text"]
    assert sent == " ".join(f"tok{i}" for i in range(512))
    assert sent == truncate_doc_text(long_text)


def test_remote_sends_wire_protocol_fields(mock_endpoint):
    ScriptedHandler.script = ["identity"]
    RemoteRanker(mock_endpoint, STORE, timeout=5, retries=0).rank(window("b", "a"))
    body = ScriptedHandler.requests_seen[-1]
    assert body["qid"] == "q1" and body["query"] == "some query"
    assert body["candidates"] == [
        {"docno": "b", "text": "text of b"},
        {"docno": "a", "text": "text of a"},
    ]


def test_remote_sends_auth_header(mock_endpoint):
    ScriptedHandler.script = ["identity"]
    ranker = RemoteRanker(mock_endpoint, STORE, timeout=5, retries=0, auth="Bearer sekrit")
    assert ranker.headers["Authorization"] == "Bearer sekrit"
    ranker.rank(window("a"))  # header accepted by the endpoint
