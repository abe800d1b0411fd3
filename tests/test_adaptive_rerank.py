import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graph_from_dict, make_store
from refsim import graph_feedback as graph_feedback_fn, simulate_baseline, simulate_window_loop
from slidegar import adaptive_rerank
from slidegar.adaptive_rerank import (
    RerankConfig,
    expected_llm_calls,
    graph_feedback,
    rm3_feedback,
    slidegar,
    sliding_window_baseline,
    telemetry_record,
)
from slidegar.corpus_store import Query
from slidegar.lexical_index import bm25_retrieve, build_index, retrieve_expanded, rm3_expand
from slidegar.rankers import ListwiseRanker, OracleRanker, Window

Q = Query("q1", "query text")


def ids_of(store, docnos):
    return [store.id_of[d] for d in docnos]


def docnos_of(store, ids):
    return [store.docnos[i] for i in ids]


def by_id(store, grades):
    """Grades keyed by docno, re-keyed by store id as the rankers read them."""
    return {qid: {store.id_of[d]: grade for d, grade in per_query.items()} for qid, per_query in grades.items()}


def sim_rank(ranker, query, store, docnos):
    """A reference simulator's rank_fn: the ranker's order of ``docnos``."""
    return docnos_of(store, ranker.rank(Window(query, ids_of(store, docnos))))


def rm3_reference(store, index, query, cfg):
    """The simulator's RM3 feedback_fn: a fresh expansion of ``batch[:b]``
    with ``cfg``'s RM3 settings and a retrieval of the whole corpus, filtered
    by ``blocked``, on every call."""

    def feedback_fn(batch, blocked, n):
        weights = rm3_expand(index, query, ids_of(store, batch[: cfg.b]), cfg.fb_docs, cfg.fb_terms, cfg.orig_weight)
        hits = docnos_of(store, retrieve_expanded(index, weights, len(store)))
        return [d for d in hits if d not in blocked][:n]

    return feedback_fn


def names_store(names):
    return make_store({n: f"text of {n}" for n in names})


class ReverseRanker(ListwiseRanker):
    name = "reverse"

    def _order(self, window):
        return list(reversed(window.ids))


class RecordingRanker(ListwiseRanker):
    """Wraps another ranker and keeps every (window, batch) pair, as the
    docnos of ``store``."""

    def __init__(self, inner, store):
        super().__init__()
        self.inner = inner
        self.store = store
        self.seen: list[tuple[tuple[str, ...], tuple[str, ...]]] = []

    def _order(self, window):
        ordering = self.inner.rank(window)
        self.seen.append((tuple(docnos_of(self.store, window.ids)), tuple(docnos_of(self.store, ordering))))
        return ordering


# --- config ---


def test_config_validation():
    RerankConfig(w=2, b=1, c=2)
    with pytest.raises(ValueError):
        RerankConfig(w=2, b=2, c=4)
    with pytest.raises(ValueError):
        RerankConfig(w=4, b=1, c=3)
    with pytest.raises(ValueError):
        RerankConfig(w=4, b=0, c=8)
    with pytest.raises(ValueError):
        RerankConfig(w=4, b=2, c=8, truncate_k=-1)
    # a bool or a float would otherwise build, and fail later as a slice index
    with pytest.raises(ValueError, match="config 'b' must be an integer, got True"):
        RerankConfig(w=4, b=True, c=6.5)
    with pytest.raises(ValueError, match="config 'c' must be an integer, got 6.5"):
        RerankConfig(w=4, b=2, c=6.5)
    with pytest.raises(ValueError, match="config 'truncate_k' must be an integer, got 2.0"):
        RerankConfig(w=4, b=2, c=8, truncate_k=2.0)


# --- slidegar hand trace ---


def trace_fixture():
    names = ["d1", "d2", "d3", "d4", "d8", "d9"]
    store = names_store(names)
    graph = graph_from_dict({"d2": ["d9"], "d1": ["d8"]}, names, 1)
    ranker = OracleRanker(by_id(store, {"q1": {"d2": 3, "d9": 2, "d1": 1}}))
    return store, graph, ranker


def test_slidegar_hand_trace():
    store, graph, ranker = trace_fixture()
    cfg = RerankConfig(w=2, b=1, c=4, truncate_k=1)
    result = slidegar(Q, ids_of(store, ["d1", "d2", "d3", "d4"]), ranker, graph_feedback(graph, cfg.truncate_k), cfg)
    assert docnos_of(store, result.ranking) == ["d2", "d3", "d9", "d1"]
    assert result.calls == 3
    assert result.calls == expected_llm_calls(cfg)
    assert result.bookkeeping_s >= 0.0 and result.ranker_s >= 0.0
    assert result.ranking == [1, 2, 5, 0]  # store ids, best first


def test_slidegar_empty_graph_falls_back_to_initial_pool():
    # aligned config (w = 2b, b | c): consumption covers exactly the top c
    names = [f"d{i:02d}" for i in range(12)]
    store = names_store(names)
    graph = graph_from_dict({}, names, 1)
    cfg = RerankConfig(w=4, b=2, c=8, truncate_k=1)
    result = slidegar(Q, ids_of(store, names), OracleRanker({}), graph_feedback(graph, cfg.truncate_k), cfg)
    assert set(docnos_of(store, result.ranking)) == set(names[:8])
    assert result.calls == expected_llm_calls(cfg)


def test_slidegar_call_counts_match_formula():
    names = [f"d{i:03d}" for i in range(130)]
    store = names_store(names)
    graph = graph_from_dict({}, names, 1)
    for c, expected in ((50, 4), (100, 9)):
        cfg = RerankConfig(w=20, b=10, c=c, truncate_k=1)
        feedback = graph_feedback(graph, cfg.truncate_k)
        assert slidegar(Q, ids_of(store, names), OracleRanker({}), feedback, cfg).calls == expected
        assert expected_llm_calls(cfg) == expected


def test_slidegar_requires_nonempty_r0():
    store, graph, ranker = trace_fixture()
    with pytest.raises(ValueError):
        slidegar(Q, [], ranker, graph_feedback(graph, 1), RerankConfig(w=2, b=1, c=4))


@pytest.mark.parametrize("strategy", ["baseline", "slidegar"])
def test_empty_r0_fails_before_any_ranker_call(strategy):
    ranker = RecordingRanker(ReverseRanker(), names_store(["a"]))
    asked = []  # every batch feedback was asked about
    cfg = RerankConfig(w=2, b=1, c=4)
    with pytest.raises(ValueError):
        if strategy == "baseline":
            sliding_window_baseline(Q, [], ranker, cfg)
        else:
            slidegar(Q, [], ranker, lambda order: asked.append(order) or [], cfg)
    assert ranker.seen == [] and asked == []


# --- baseline ---


def test_baseline_single_window_when_budget_equals_w():
    names = ["a", "b", "c"]
    store = names_store(names)
    cfg = RerankConfig(w=3, b=1, c=3)
    result = sliding_window_baseline(Q, ids_of(store, names), ReverseRanker(), cfg)
    assert docnos_of(store, result.ranking) == ["c", "b", "a"]
    assert result.calls == 1


def test_baseline_identity_is_noop():
    names = [f"d{i}" for i in range(9)]
    store = names_store(names)
    cfg = RerankConfig(w=4, b=2, c=8)
    result = sliding_window_baseline(Q, ids_of(store, names), OracleRanker({}), cfg)
    assert docnos_of(store, result.ranking) == names[:8]


def test_baseline_reversal_hand_trace():
    names = ["d1", "d2", "d3", "d4"]
    store = names_store(names)
    cfg = RerankConfig(w=2, b=1, c=4)
    result = sliding_window_baseline(Q, ids_of(store, names), ReverseRanker(), cfg)
    assert docnos_of(store, result.ranking) == ["d4", "d1", "d2", "d3"]
    assert result.calls == 3


# --- randomized equivalence with the reference simulator ---


def random_instance(rng):
    n = rng.randint(2, 30)
    names = [f"d{i:02d}" for i in range(n)]
    k = rng.randint(1, 4)
    adjacency = {
        name: rng.sample([m for m in names if m != name], rng.randint(0, min(k, n - 1)))
        for name in names
    }
    r0 = rng.sample(names, rng.randint(1, n))
    c = rng.randint(2, 12)
    w = rng.randint(2, min(6, c))
    b = rng.randint(1, w - 1)
    tk = rng.randint(0, k)
    grades = {name: rng.randint(0, 3) for name in names}
    kind = rng.choice(["identity", "oracle", "noisy"])
    return names, adjacency, k, r0, RerankConfig(w=w, b=b, c=c, truncate_k=tk), grades, kind


def make_pair(kind, grades, seed, store):
    def build():
        if kind == "identity":
            return OracleRanker({})
        if kind == "oracle":
            return OracleRanker(by_id(store, {"q1": grades}))
        return OracleRanker(by_id(store, {"q1": grades}), store.docnos, swap_prob=0.4, seed=seed)

    return build(), build()


def run_equivalence(n_instances, seed):
    rng = random.Random(seed)
    for _ in range(n_instances):
        names, adjacency, k, r0, cfg, grades, kind = random_instance(rng)
        store = names_store(names)
        graph = graph_from_dict(adjacency, names, k)
        engine_ranker, sim_ranker = make_pair(kind, grades, seed, store)

        def rank_fn(docnos):
            return sim_rank(sim_ranker, Q, store, docnos)

        def neigh_fn(docno):
            return adjacency.get(docno, [])

        result = slidegar(Q, ids_of(store, r0), engine_ranker, graph_feedback(graph, cfg.truncate_k), cfg)
        got = docnos_of(store, result.ranking)
        expected, calls, offered = simulate_window_loop(
            r0, rank_fn, graph_feedback_fn(neigh_fn, cfg.truncate_k), cfg.w, cfg.b, cfg.c
        )
        assert got == expected
        assert result.calls == calls
        # structural invariants on every instance
        assert len(set(got)) == len(got)
        assert len(got) <= cfg.c
        assert set(got) <= set(r0) | offered  # provenance closure

        engine_b, sim_b = make_pair(kind, grades, seed, store)

        def rank_fn_b(docnos):
            return sim_rank(sim_b, Q, store, docnos)

        base = sliding_window_baseline(Q, ids_of(store, r0), engine_b, cfg)
        base_expected, base_calls = simulate_baseline(r0, rank_fn_b, cfg.w, cfg.b, cfg.c)
        assert docnos_of(store, base.ranking) == base_expected
        assert base.calls == base_calls


def test_randomized_equivalence_smoke():
    run_equivalence(150, seed=97)


def test_oracle_carry_forward_local_correctness():
    rng = random.Random(31)
    for _ in range(40):
        names, adjacency, k, r0, cfg, grades, _ = random_instance(rng)
        store = names_store(names)
        graph = graph_from_dict(adjacency, names, k)
        recorder = RecordingRanker(OracleRanker(by_id(store, {"q1": grades})), store)
        slidegar(Q, ids_of(store, r0), recorder, graph_feedback(graph, cfg.truncate_k), cfg)
        for _window, batch in recorder.seen:
            kept = [grades.get(d, 0) for d in batch[: cfg.b]]
            dumped = [grades.get(d, 0) for d in batch[cfg.b :]]
            if kept and dumped:
                assert min(kept) >= max(dumped)


def test_monotone_escape():
    names = ["a", "b", "r"]
    store = names_store(names)
    graph = graph_from_dict({"a": ["r"]}, names, 1)
    grades = by_id(store, {"q1": {"a": 2, "r": 2}})
    cfg = RerankConfig(w=2, b=1, c=3, truncate_k=1)
    r0 = ids_of(store, ["a", "b"])
    adaptive = slidegar(Q, r0, OracleRanker(grades), graph_feedback(graph, cfg.truncate_k), cfg).ranking
    baseline = sliding_window_baseline(Q, r0, OracleRanker(grades), cfg).ranking
    assert "r" in set(docnos_of(store, adaptive))
    assert "r" not in set(docnos_of(store, baseline))


def test_truncate_k_zero_equals_baseline_sets_on_aligned_configs():
    rng = random.Random(41)
    for _ in range(25):
        b = rng.randint(1, 4)
        w = 2 * b
        c = b * rng.randint(2, 6)
        n = c + rng.randint(0, 5)
        names = [f"d{i:02d}" for i in range(n)]
        store = names_store(names)
        graph = graph_from_dict({}, names, 1)
        grades = by_id(store, {"q1": {name: rng.randint(0, 3) for name in names}})
        cfg = RerankConfig(w=w, b=b, c=c, truncate_k=0)
        feedback = graph_feedback(graph, cfg.truncate_k)
        adaptive = slidegar(Q, ids_of(store, names), OracleRanker(grades), feedback, cfg).ranking
        baseline = sliding_window_baseline(Q, ids_of(store, names), OracleRanker(grades), cfg).ranking
        assert set(docnos_of(store, adaptive)) == set(docnos_of(store, baseline))


# --- rm3 variant ---


def test_rm3_orig_weight_one_consumes_bm25_order():
    # every doc matches the query term with a distinct tf, so the feedback
    # stream at orig_weight=1 must be exactly the BM25 order minus R0 and
    # the ranked docs
    docs = {f"d{i}": ("t " * (9 - i) + f"u{i}").strip() for i in range(8)}
    store = make_store(docs)
    index = build_index(store.texts)
    query = Query("q1", "t")
    r0 = bm25_retrieve(index, query, 6)
    assert docnos_of(store, r0) == [f"d{i}" for i in range(6)]
    cfg = RerankConfig(w=4, b=2, c=6, orig_weight=1.0)
    result = slidegar(query, r0, OracleRanker({}), rm3_feedback(index, query, r0, cfg), cfg)
    # trace: W1=[d0..d3] dumps d2,d3; the fresh half is feedback's turn, and
    # feedback skips R0 (d0..d5), so W2=[d0,d1,d6,d7] dumps d6,d7 and the
    # 4 = c - b dumps end the run; final = carried d0,d1, then W2's dumps,
    # then W1's
    assert docnos_of(store, result.ranking) == ["d0", "d1", "d6", "d7", "d2", "d3"]
    assert result.calls == expected_llm_calls(cfg)


def test_rm3_falls_back_to_initial_pool_when_corpus_exhausted():
    docs = {f"d{i}": f"shared term{i}" for i in range(6)}
    store = make_store(docs)
    index = build_index(store.texts)
    names = list(docs)
    cfg = RerankConfig(w=2, b=1, c=5)
    query, r0 = Query("q1", "shared"), ids_of(store, names)
    ranking = slidegar(query, r0, OracleRanker({}), rm3_feedback(index, query, r0, cfg), cfg).ranking
    got = set(docnos_of(store, ranking))
    assert got <= set(names)
    assert len(got) == len(ranking)


def test_rm3_recall_gain_on_clustered_fixture():
    docs = {
        "v1": "qa qa qb qb p1 p2",
        "v2": "qa qa qb qb p1 p3",
        "h1": "p1 p2 p3 f1",
        "h2": "p2 p3 f2",
        "x1": "qa f3 f4",
        "x2": "qb f5 f6",
    }
    store = make_store(docs)
    index = build_index(store.texts)
    query = Query("q1", "qa qb")
    grades = {"q1": {"v1": 2, "v2": 2, "h1": 2, "h2": 2}}
    r0 = bm25_retrieve(index, query, 6)
    assert docnos_of(store, r0) == ["v1", "v2", "x1", "x2"]  # hidden docs unreachable
    cfg = RerankConfig(w=4, b=2, c=6)
    feedback = rm3_feedback(index, query, r0, cfg)
    adaptive = slidegar(query, r0, OracleRanker(by_id(store, grades)), feedback, cfg).ranking
    baseline = sliding_window_baseline(query, r0, OracleRanker(by_id(store, grades)), cfg).ranking
    relevant = set(grades["q1"])
    recall_adaptive = len(set(docnos_of(store, adaptive)) & relevant) / len(relevant)
    recall_baseline = len(set(docnos_of(store, baseline)) & relevant) / len(relevant)
    assert recall_baseline == 0.5
    assert recall_adaptive == 1.0
    assert docnos_of(store, adaptive)[:4] == ["v1", "v2", "h1", "h2"]


@pytest.mark.parametrize("param", [{"fb_docs": 0}, {"fb_terms": -3}, {"orig_weight": 1.5}])
def test_rm3_invalid_parameter_raises_before_the_first_ranker_call(param):
    # the config refuses it, so no strategy, and no ranker, ever sees it
    with pytest.raises(ValueError, match=f"rm3 {next(iter(param))} must be"):
        RerankConfig(w=2, b=1, c=5, **param)


def test_rm3_without_usable_terms_consumes_r0_alone():
    # a stopword query over stopword-only docs leaves no expansion term, so
    # every feedback half comes back empty and R0 fills the windows
    docs = {f"d{i}": "the and of" for i in range(6)}
    store = make_store(docs)
    cfg = RerankConfig(w=2, b=1, c=4)
    r0 = ids_of(store, list(docs))
    query = Query("q1", "the")
    result = slidegar(query, r0, OracleRanker({}), rm3_feedback(build_index(store.texts), query, r0, cfg), cfg)
    assert docnos_of(store, result.ranking) == ["d0", "d3", "d2", "d1"]
    assert result.calls == expected_llm_calls(cfg)


def counting(mp, name, counts):
    """Patch ``adaptive_rerank.<name>`` to count its calls in ``counts``."""
    inner = getattr(adaptive_rerank, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return inner(*args, **kwargs)

    mp.setattr(adaptive_rerank, name, counted)


def simulate_rm3(store, docs, query, r0, ranker, cfg):
    def rank_fn(docnos):
        return sim_rank(ranker, query, store, docnos)

    feedback_fn = rm3_reference(store, build_index(store.texts), query, cfg)
    return simulate_window_loop(r0, rank_fn, feedback_fn, cfg.w, cfg.b, cfg.c)


def test_rm3_one_retrieval_serves_the_deepest_blocked_set():
    # every doc holds only "ant", so any expansion is {"ant": 1.0}: one hit
    # list, ordered by tf desc then id. R0 is its top w and the identity
    # ranker keeps the head in place, so each feedback half is the next b
    # hits; the last reaches past every blocked doc the loop can hold.
    docs = {f"d{i:02d}": " ".join(["ant"] * (1 + i * 7 % 5)) for i in range(40)}
    store = make_store(docs)
    index = build_index(store.texts)
    query = Query("q1", "ant")
    cfg = RerankConfig(w=4, b=2, c=14)
    r0 = bm25_retrieve(index, query, cfg.w)
    depth = len(r0) + expected_llm_calls(cfg) * cfg.b
    hits = retrieve_expanded(index, {"ant": 1.0}, len(docs))
    assert len(hits) == len(docs) > depth
    counts: dict[str, int] = {}
    with pytest.MonkeyPatch.context() as mp:
        counting(mp, "rm3_expand", counts)
        counting(mp, "retrieve_expanded", counts)
        result = slidegar(query, r0, OracleRanker({}), rm3_feedback(index, query, r0, cfg), cfg)
    expected, calls, _ = simulate_rm3(store, docs, query, docnos_of(store, r0), OracleRanker({}), cfg)
    assert docnos_of(store, result.ranking) == expected
    assert result.calls == calls == expected_llm_calls(cfg) == 6
    # the last half is hits 12 and 13, behind the len(r0) + (calls - 2) * b
    # = 12 blocked ones
    assert set(result.ranking) == set(hits[:14])
    assert counts == {"rm3_expand": 1, "retrieve_expanded": 1}


class HeadKeeper(ListwiseRanker):
    """Keeps the first two docs of a window in place and reverses the rest."""

    name = "head-keeper"

    def _order(self, window):
        return [*window.ids[:2], *reversed(window.ids[2:])]


def test_rm3_heads_equal_on_their_first_fb_docs_share_one_expansion():
    docs = {f"d{i}": f"ant bee w{i % 3} w{i % 4}" for i in range(16)}
    store = make_store(docs)
    index = build_index(store.texts)
    query = Query("q1", "ant")
    cfg = RerankConfig(w=6, b=3, c=15, fb_docs=2)
    r0 = ids_of(store, ["d0", "d1", "d2", "d3", "d4", "d5"])
    recorder = RecordingRanker(HeadKeeper(), store)
    counts: dict[str, int] = {}
    with pytest.MonkeyPatch.context() as mp:
        counting(mp, "rm3_expand", counts)
        result = slidegar(query, r0, recorder, rm3_feedback(index, query, r0, cfg), cfg)
    expected, calls, _ = simulate_rm3(store, docs, query, docnos_of(store, r0), HeadKeeper(), cfg)
    assert docnos_of(store, result.ranking) == expected
    assert result.calls == calls
    heads = [batch[: cfg.b] for _, batch in recorder.seen]
    # the batches' top-b heads differ, but all start with d0, d1
    assert len(set(heads)) == len(heads) >= 3
    assert {head[:2] for head in heads} == {("d0", "d1")}
    assert counts == {"rm3_expand": 1}


# --- window-loop invariants of the baseline and the rm3 variant ---

WORDS = st.sampled_from(["ant", "bee", "cat", "dog", "eel", "fox", "gnu"])


@st.composite
def rm3_instances(draw):
    texts = draw(st.lists(st.lists(WORDS, min_size=1, max_size=6), min_size=2, max_size=25))
    names = [f"d{i:02d}" for i in range(len(texts))]
    r0 = draw(st.permutations(names))[: draw(st.integers(1, len(names)))]
    c = draw(st.integers(2, 20))
    w = draw(st.integers(2, c))
    b = draw(st.integers(1, w - 1))
    query = " ".join(draw(st.lists(WORDS, min_size=1, max_size=3)))
    grades = {name: draw(st.integers(0, 3)) for name in names}
    return dict(zip(names, map(" ".join, texts))), r0, RerankConfig(w=w, b=b, c=c), query, grades


@settings(max_examples=150, deadline=None)
@given(rm3_instances(), st.floats(0.0, 1.0), st.integers(0, 2**16))
def test_baseline_and_rm3_window_loop_invariants(instance, swap_prob, seed):
    docs, r0, cfg, text, grades = instance
    store = make_store(docs)
    index = build_index(store.texts)
    query = Query("q1", text)
    hits: set[str] = set()

    def capture(*args, **kwargs):
        ids = retrieve_expanded(*args, **kwargs)
        hits.update(docnos_of(store, ids))
        return ids

    for strategy in ("baseline", "rm3"):
        noisy = OracleRanker(by_id(store, {"q1": grades}), store.docnos, swap_prob=swap_prob, seed=seed)
        ranker = RecordingRanker(noisy, store)
        if strategy == "baseline":
            result = sliding_window_baseline(query, ids_of(store, r0), ranker, cfg)
        else:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(adaptive_rerank, "retrieve_expanded", capture)
                ids = ids_of(store, r0)
                result = slidegar(query, ids, ranker, rm3_feedback(index, query, ids, cfg), cfg)
        got = docnos_of(store, result.ranking)
        assert len(set(got)) == len(got) <= cfg.c
        assert result.calls == len(ranker.seen) >= 1
        if strategy == "baseline":
            assert sorted(got) == sorted(r0[: cfg.c])
        else:
            assert set(got) <= set(r0) | hits


class ShuffleRanker(ListwiseRanker):
    """Shuffles every window with a seeded generator and keeps each window's ids."""

    name = "shuffle"

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.windows: list[tuple[int, ...]] = []

    def _order(self, window):
        self.windows.append(window.ids)
        return self.rng.sample(window.ids, len(window.ids))


def test_window_loop_takes_from_feedback_only_ids_outside_r0_and_ranked():
    # the source offers the batch just ranked, then R0 reversed, then every
    # other id shuffled, those ranked earlier included: only the loop's own
    # filter keeps them out of the windows
    rng = random.Random(5)
    for seed in range(300):
        c = rng.randint(2, 20)
        w = rng.randint(2, c)
        cfg = RerankConfig(w=w, b=rng.randint(1, w - 1), c=c)
        n_r0 = rng.randint(1, 2 * c)
        n_docs = n_r0 + c + rng.randint(0, 10)  # enough ids outside R0 to fill every fresh half
        r0 = rng.sample(range(n_docs), n_r0)
        outside = sorted(set(range(n_docs)).difference(r0))

        def feedback(order):
            rng.shuffle(outside)
            return list(dict.fromkeys([*order, *reversed(r0), *outside]))

        ranker = ShuffleRanker(seed)
        result = slidegar(Q, r0, ranker, feedback, cfg)
        assert result.calls == len(ranker.windows) == expected_llm_calls(cfg)
        ranked = set(ranker.windows[0])
        taken_from_r0 = list(ranker.windows[0])
        for before, window in zip(ranker.windows, ranker.windows[1:]):
            carried = min(cfg.b, len(before))
            fresh = window[carried:]
            assert len(fresh) == cfg.b and ranked.isdisjoint(fresh)
            ranked.update(fresh)
            taken_from_r0 += [i for i in fresh if i in r0]
        assert taken_from_r0 == r0[: len(taken_from_r0)]  # R0's own order: feedback gave none of them


def test_feedback_free_control_is_the_simulator_without_feedback():
    # the control of the feedback gain: slidegar over a source that offers
    # nothing consumes R0 in order, and on an aligned budget ranks exactly its top c
    rng = random.Random(14)
    aligned = 0
    for seed in range(400):
        w = rng.randint(2, 12)
        b = rng.randint(1, w - 1)
        c = w + b * rng.randint(0, 4) if rng.random() < 0.5 else rng.randint(w, 30)
        cfg = RerankConfig(w=w, b=b, c=c)
        r0 = rng.sample(range(3 * c), rng.randint(1, 2 * c))
        result = slidegar(Q, r0, ShuffleRanker(seed), lambda order: [], cfg)
        sim_ranker = ShuffleRanker(seed)
        expected, calls, offered = simulate_window_loop(
            r0, lambda ids: sim_ranker.rank(Window(Q, ids)), lambda batch, blocked, n: [], w, b, c
        )
        assert (result.ranking, result.calls, offered) == (expected, calls, set())
        if (c - w) % b == 0 and len(r0) >= c:
            aligned += 1
            assert sorted(result.ranking) == sorted(r0[:c])
            assert result.calls == expected_llm_calls(cfg)
    assert aligned >= 100


@st.composite
def loop_instances(draw):
    docs, r0, cfg, text, grades = draw(rm3_instances())
    names = list(docs)
    adjacency = {
        name: draw(st.lists(st.sampled_from([m for m in names if m != name]), max_size=4, unique=True))
        for name in names
    }
    cfg = RerankConfig(w=cfg.w, b=cfg.b, c=cfg.c, truncate_k=draw(st.integers(0, 4)))
    return docs, adjacency, r0, cfg, text, grades


@settings(max_examples=150, deadline=None)
@given(loop_instances(), st.floats(0.0, 1.0), st.integers(0, 2**16))
def test_window_loop_fills_every_window_until_sources_run_dry(instance, swap_prob, seed):
    docs, adjacency, r0, cfg, text, grades = instance
    store = make_store(docs)
    index = build_index(store.texts)
    graph = graph_from_dict(adjacency, list(docs), 4)
    query = Query("q1", text)

    strategies = {  # the engine's feedback source, then the simulator's feedback_fn
        "slidegar": ("neighbours", graph_feedback_fn(lambda d: adjacency.get(d, []), cfg.truncate_k)),
        "slidegar_rm3": ("rm3_expand", rm3_reference(store, index, query, cfg)),
    }
    for strategy, (source, feedback_fn) in strategies.items():
        asked = {"engine": 0, "simulator": 0}
        heads = set()  # what RM3 reads of each batch the simulator asks feedback for (fb_docs is 10)

        def count(who, fn):
            def counted(*args, **kwargs):
                asked[who] += 1
                if who == "simulator":
                    heads.add(tuple(args[0][: min(cfg.b, 10)]))
                return fn(*args, **kwargs)

            return counted

        noisy = OracleRanker(by_id(store, {"q1": grades}), store.docnos, swap_prob=swap_prob, seed=seed)
        ranker = RecordingRanker(noisy, store)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(adaptive_rerank, source, count("engine", getattr(adaptive_rerank, source)))
            ids = ids_of(store, r0)
            if strategy == "slidegar":
                feedback = graph_feedback(graph, cfg.truncate_k)
            else:
                feedback = rm3_feedback(index, query, ids, cfg)
            result = slidegar(query, ids, ranker, feedback, cfg)
        sim_ranker = OracleRanker(by_id(store, {"q1": grades}), store.docnos, swap_prob=swap_prob, seed=seed)

        def rank_fn(docnos):
            return sim_rank(sim_ranker, query, store, docnos)

        expected, calls, _ = simulate_window_loop(
            r0, rank_fn, count("simulator", feedback_fn), cfg.w, cfg.b, cfg.c
        )
        assert docnos_of(store, result.ranking) == expected
        assert result.calls == calls == len(ranker.seen) <= expected_llm_calls(cfg)
        # feedback is asked only when a window needs it, and RM3 expands once per distinct head
        assert asked["engine"] == (len(heads) if strategy == "slidegar_rm3" else asked["simulator"])

        # each fresh half holds b documents unless the unranked rest of R0
        # and everything feedback could still offer add up to fewer
        dry = len(r0) < cfg.w
        ranked: set[str] = set()
        for i, (_, batch) in enumerate(ranker.seen):
            ranked.update(batch)
            if i + 1 == expected_llm_calls(cfg):  # the call cap, the engine's only budget
                assert i == len(ranker.seen) - 1
                break
            # so the simulator's other rule, c - b documents dumped, never fires first
            assert len(ranked) - len(batch[: cfg.b]) < cfg.c - cfg.b
            supply = sum(d not in ranked for d in r0)
            supply += len(feedback_fn(list(batch), set(r0) | ranked, len(docs)))
            dry |= supply < cfg.b
            if i == len(ranker.seen) - 1:
                assert supply == 0
            else:
                window, carried = ranker.seen[i + 1][0], batch[: cfg.b]
                assert window[: len(carried)] == carried
                assert len(window) - len(carried) == min(cfg.b, supply)
        if not dry:
            assert result.calls == expected_llm_calls(cfg)
            assert all(len(window) == 2 * cfg.b for window, _ in ranker.seen[1:])


# --- telemetry ---


def test_telemetry_record_fields():
    store, graph, ranker = trace_fixture()
    cfg = RerankConfig(w=2, b=1, c=4, truncate_k=1)
    r0 = ids_of(store, ["d1", "d2", "d3", "d4"])
    record = telemetry_record("q1", r0, slidegar(Q, r0, ranker, graph_feedback(graph, cfg.truncate_k), cfg))
    assert record["qid"] == "q1"
    assert record["llm_calls"] == 3
    assert (record["ranker_attempts"], record["degraded_windows"]) == (3, 0)
    assert record["escaped_docs"] == 1  # d9 entered from the graph
    assert record["bookkeeping_ms"] >= 0.0
    assert record["ranker_ms"] >= 0.0
