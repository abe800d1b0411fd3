import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BLOCK_SIZES, block_bytes
from slidegar.eval import (
    evaluate_run,
    ndcg_at,
    parse_metric,
    read_run,
    recall_at,
    write_run,
)


def test_ndcg_perfect_single_doc():
    assert ndcg_at(["a"], {"a": 1}) == 1.0


def test_ndcg_zero_when_no_relevant_retrieved():
    assert ndcg_at(["x", "y", "z"], {"a": 2}, cutoff=3) == 0.0


def test_ndcg_worked_example():
    got = ndcg_at(["a", "b", "c"], {"a": 2, "b": 3, "c": 0}, cutoff=10)
    dcg = 2 / math.log2(2) + 3 / math.log2(3)
    idcg = 3 / math.log2(2) + 2 / math.log2(3)
    assert abs(got - dcg / idcg) < 1e-9
    assert round(got, 4) == 0.9134


def test_ndcg_ideal_is_one_whenever_positive_grade_exists():
    rng = random.Random(51)
    for _ in range(20):
        grades = {f"d{i}": rng.randint(0, 3) for i in range(rng.randint(1, 12))}
        if not any(grades.values()):
            grades["d0"] = 1
        ideal = [d for d, _ in sorted(grades.items(), key=lambda kv: (-kv[1], kv[0]))]
        assert abs(ndcg_at(ideal, grades) - 1.0) < 1e-12


def test_ndcg_invariant_past_cutoff():
    grades = {"a": 3, "b": 1, "c": 2, "d": 1}
    head = ["a", "c"]
    tail_one = head + ["b", "d"]
    tail_two = head + ["d", "b"]
    assert ndcg_at(tail_one, grades, cutoff=2) == ndcg_at(tail_two, grades, cutoff=2)


def test_ndcg_ideal_uses_unretrieved_grades():
    # the only relevant doc is not retrieved; idcg must still count it
    assert ndcg_at(["x"], {"a": 3}, cutoff=5) == 0.0
    got = ndcg_at(["a"], {"a": 1, "b": 3}, cutoff=1)
    assert abs(got - 1.0 / 3.0) < 1e-9


def test_ndcg_exponential_gain_flag():
    got = ndcg_at(["a", "b"], {"a": 1, "b": 2}, cutoff=2, exponential=True)
    dcg = 1 / math.log2(2) + 3 / math.log2(3)
    idcg = 3 / math.log2(2) + 1 / math.log2(3)
    assert abs(got - dcg / idcg) < 1e-9


def test_recall_basics():
    grades = {f"r{i}": 1 for i in range(5)}
    assert recall_at([f"r{i}" for i in range(5)], grades, cutoff=50) == 1.0
    assert recall_at(["x", "y"], grades, cutoff=50) == 0.0
    three_found = ["r0", "x", "r1", "y", "r2"]
    assert recall_at(three_found, grades, cutoff=50) == pytest.approx(0.6)


def test_recall_threshold():
    grades = {"a": 2, "b": 1, "c": 0}
    ranking = ["a", "b", "c"]
    assert recall_at(ranking, grades, cutoff=1, rel_threshold=2) == 1.0
    assert recall_at(ranking, grades, cutoff=1, rel_threshold=1) == 0.5


def test_recall_none_when_no_relevant():
    assert recall_at(["a"], {"a": 0}, cutoff=5) is None
    assert recall_at(["a"], {}, cutoff=5) is None


def test_recall_monotone_in_cutoff():
    rng = random.Random(52)
    for _ in range(20):
        grades = {f"d{i}": rng.randint(0, 2) for i in range(15)}
        if not any(g >= 1 for g in grades.values()):
            grades["d0"] = 1
        order = list(grades)
        rng.shuffle(order)
        values = [recall_at(order, grades, cutoff=k) for k in range(1, 16)]
        assert all(a <= b for a, b in zip(values, values[1:]))


def test_cutoff_below_one_fails():
    for metric in (ndcg_at, recall_at):
        with pytest.raises(ValueError, match="^cutoff must be >= 1$"):
            metric(["a"], {"a": 1}, cutoff=0)


def test_parse_metric():
    assert parse_metric("ndcg@10") == ("ndcg", 10)
    assert parse_metric("recall@50") == ("recall", 50)
    for bad in ("ndcg", "foo@3", "recall@0", "recall@"):
        with pytest.raises(ValueError):
            parse_metric(bad)
    with pytest.raises(ValueError, match=r"^unknown metric 'ndcg@x' \(expected ndcg@N or recall@N\)$"):
        parse_metric("ndcg@x")


def test_evaluate_run_rejects_a_bad_metric_even_for_an_empty_run():
    with pytest.raises(ValueError, match="unknown metric 'bogus@1'"):
        evaluate_run({}, {}, ["bogus@1"])


def test_evaluate_run_report():
    run = {
        "q1": ["a", "b"],
        "q2": ["x"],
        "q3": ["y"],  # no relevant docs at all
    }
    qrels = {"q1": {"a": 2, "b": 0}, "q2": {"x": 1, "z": 1}, "q3": {"y": 0}}
    report = evaluate_run(run, qrels, ["ndcg@10", "recall@10"])
    assert report.per_query["ndcg@10"]["q1"] == 1.0
    assert report.per_query["recall@10"]["q2"] == 0.5
    # q3 has no judgment at the threshold: no metric scores it
    assert all("q3" not in values for values in report.per_query.values())
    assert report.excluded == ["q3"]
    assert report.means["recall@10"] == pytest.approx((1.0 + 0.5) / 2)
    # q2's ideal includes the unretrieved judged doc z
    ndcg_q2 = 1.0 / (1.0 + 1.0 / math.log2(3))
    assert report.means["ndcg@10"] == pytest.approx((1.0 + ndcg_q2) / 2, abs=1e-9)
    table = report.format_table()
    assert "mean" in table and "q3" in table
    assert table.endswith("\n# excluded (no judgment at the threshold): q3")


# One scored set: the qrels' queries with a judgment at or above the threshold.
# q1 has a grade-1 hit, q2 only a grade-0 judgment, and q3, judged grade 2, is
# missing from the run.
SCORED_RUN = {"q1": ["a", "b"], "q2": ["c"]}
SCORED_QRELS = {"q1": {"a": 1}, "q2": {"c": 0}, "q3": {"d": 2}}


def test_a_judged_query_missing_from_the_run_scores_zero():
    # as under trec_eval -c: every metric scores q3 0 and averages over {q1, q3}
    report = evaluate_run(SCORED_RUN, SCORED_QRELS, ["ndcg@10", "recall@3"])
    for metric in ("ndcg@10", "recall@3"):
        assert report.per_query[metric] == {"q1": 1.0, "q3": 0.0}, metric
        assert report.means[metric] == 0.5, metric


def test_an_unjudged_run_query_is_excluded_once():
    run = {**SCORED_RUN, "q9": ["a"]}
    report = evaluate_run(run, SCORED_QRELS, ["ndcg@10", "recall@3"])
    assert report.excluded == ["q2", "q9"]
    assert report.means == {"ndcg@10": 0.5, "recall@3": 0.5}


def test_a_query_judged_only_below_the_threshold_is_not_scored():
    # at threshold 2 only q3 counts; at 1, q1 and q3; at 0, q2 too, which scores 0
    for threshold, scored in ((2, ["q3"]), (1, ["q1", "q3"]), (0, ["q1", "q2", "q3"])):
        report = evaluate_run(SCORED_RUN, SCORED_QRELS, ["ndcg@10", "recall@3"], rel_threshold=threshold)
        for metric in ("ndcg@10", "recall@3"):
            assert sorted(report.per_query[metric]) == scored, (threshold, metric)
        assert report.excluded == sorted(set(SCORED_RUN) - set(scored)), threshold
    # graded nDCG gains stay: at threshold 2 a grade-1 document still adds gain
    report = evaluate_run({"q1": ["b", "a"]}, {"q1": {"a": 2, "b": 1}}, ["ndcg@10"], rel_threshold=2)
    assert report.per_query["ndcg@10"]["q1"] == ndcg_at(["b", "a"], {"a": 2, "b": 1}) < 1.0


def test_run_file_roundtrip(tmp_path):
    run = {
        "q2": ["d3", "d1"],
        "q1": ["d2", "d9", "d4"],
    }
    path = tmp_path / "run.trec"
    write_run(path, run, tag="mytag")
    lines = path.read_text().splitlines()
    assert lines[0] == "q1 Q0 d2 1 1.0 mytag"
    assert lines[3] == "q2 Q0 d3 1 1.0 mytag"
    assert read_run(path) == run


def test_run_file_lines_end_at_newline_only(tmp_path):
    path = tmp_path / "run.trec"
    for size in BLOCK_SIZES:
        with block_bytes(size):
            # a trailing \r is stripped, and a line of blanks is skipped
            path.write_bytes(b"q1 Q0 d1 1 1.0 t\r\n \t \r\nq1 Q0 d2 2 0.5 t\r\n")
            assert read_run(path) == {"q1": ["d1", "d2"]}
            # a lone \r ends no line; the skipped line still counts in the error's number
            path.write_bytes(b" \t \nq1 Q0 d1 1 1.0 t\rq1 Q0 d2 2 0.5 t\n")
            with pytest.raises(ValueError, match=r"run\.trec:2: expected 6 columns"):
                read_run(path)


def test_run_file_validation(tmp_path):
    path = tmp_path / "bad.trec"
    path.write_text("q1 Q0 d1 1 0.5 t\nq1 Q0 d2 3 0.4 t\n")
    with pytest.raises(ValueError, match="contiguous"):
        read_run(path)
    path.write_text("q1 Q0 d1 1 0.5 t\nq1 Q0 d1 2 0.4 t\n")
    with pytest.raises(ValueError, match="duplicate"):
        read_run(path)
    path.write_text("q1 Q0 d1 1 0.5 t\nq1 Q0 d2 2 0.9 t\n")
    with pytest.raises(ValueError, match="increase"):
        read_run(path)
    path.write_text("q1 Q0 d1 1\n")
    with pytest.raises(ValueError, match="6 columns"):
        read_run(path)
    for line in ("q1 Q0 d1 one 1.0 t\n", "q1 Q0 d1 1 high t\n"):
        path.write_text(line)
        with pytest.raises(ValueError, match=r"bad\.trec:1: invalid rank or score$"):
            read_run(path)
    path.write_bytes(b"q1 Q0 d1 1 1.0 t\nq1 Q0 d\xff2 2 0.5 t\n")
    with pytest.raises(ValueError, match=r"bad\.trec:2: invalid UTF-8 \(invalid start byte\)$"):
        read_run(path)


def test_report_json_shape():
    import json

    report = evaluate_run({"q1": ["a"]}, {"q1": {"a": 1}}, ["ndcg@10"])
    payload = json.loads(report.to_json())
    assert payload["means"]["ndcg@10"] == 1.0
    assert payload["per_query"]["ndcg@10"]["q1"] == 1.0


def test_run_score_is_reciprocal_rank(tmp_path):
    path = tmp_path / "r.trec"
    write_run(path, {"q": ["a", "b", "d"]}, tag="t")
    assert path.read_text().splitlines()[2] == f"q Q0 d 3 {1 / 3} t"


# no whitespace: run columns are whitespace-split
NAME = st.text("ab09-_.:/#é中𝔸", min_size=1, max_size=6)
RANKING = st.lists(NAME, min_size=1, max_size=6, unique=True)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(NAME, RANKING, min_size=1, max_size=4), NAME)
def test_run_file_roundtrip_property(tmp_path_factory, run, tag):
    path = tmp_path_factory.mktemp("run") / "run.trec"
    write_run(path, run, tag=tag)
    assert read_run(path) == run
    assert {line.split()[5] for line in path.read_text(encoding="utf-8").splitlines()} == {tag}
