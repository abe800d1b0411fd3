"""nDCG / recall metrics and TREC run-file I/O over docno lists, best first."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Mapping

from .corpus_store import read_lines


def _gain(grade: int, exponential: bool) -> float:
    return float(2**grade - 1) if exponential else float(grade)


def ndcg_at(ranking: list[str], grades: Mapping[str, int], cutoff: int = 10, exponential: bool = False) -> float:
    """Normalized discounted cumulative gain at ``cutoff``.

    ``grades`` maps docno -> graded relevance for one query; the ideal DCG
    uses every judged grade, not just the retrieved ones. Returns 0.0 when
    no positive grade exists. Gains are linear by default (gain = grade),
    with the exponential variant (2^grade - 1) behind the flag.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    dcg = 0.0
    for position, docno in enumerate(ranking[:cutoff], start=1):
        grade = grades.get(docno, 0)
        if grade:
            dcg += _gain(grade, exponential) / math.log2(position + 1)
    ideal = 0.0
    for position, grade in enumerate(sorted(grades.values(), reverse=True)[:cutoff], start=1):
        if grade:
            ideal += _gain(grade, exponential) / math.log2(position + 1)
    return dcg / ideal if ideal > 0 else 0.0


def recall_at(
    ranking: list[str], grades: Mapping[str, int], cutoff: int, rel_threshold: int = 1
) -> float | None:
    """Fraction of all relevant docs (grade >= rel_threshold) in the top
    ``cutoff``; None when the query has no relevant docs at this threshold
    (callers exclude such queries from means and report them)."""
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    relevant = {docno for docno, grade in grades.items() if grade >= rel_threshold}
    if not relevant:
        return None
    hits = sum(1 for docno in ranking[:cutoff] if docno in relevant)
    return hits / len(relevant)


def parse_metric(spec: str) -> tuple[str, int]:
    """'ndcg@10' -> ('ndcg', 10); 'recall@50' -> ('recall', 50)."""
    name, _, cutoff_str = spec.partition("@")
    name = name.strip().lower()
    try:
        cutoff = int(cutoff_str)
    except ValueError:  # an empty cutoff too
        cutoff = None
    if name not in ("ndcg", "recall") or cutoff is None:
        raise ValueError(f"unknown metric {spec!r} (expected ndcg@N or recall@N)")
    if cutoff < 1:
        raise ValueError(f"metric cutoff must be >= 1 in {spec!r}")
    return name, cutoff


@dataclass
class MetricReport:
    """Per-query metric values plus arithmetic means.

    Queries with no relevant documents are excluded from recall means and
    listed under ``excluded`` instead.
    """

    metrics: list[str]
    per_query: dict[str, dict[str, float]] = field(default_factory=dict)  # metric -> qid -> value
    means: dict[str, float] = field(default_factory=dict)
    excluded: dict[str, list[str]] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    def format_table(self) -> str:
        qids = sorted({qid for values in self.per_query.values() for qid in values})
        width = max([len("qid")] + [len(q) for q in qids]) + 2
        header = "qid".ljust(width) + "  ".join(m.rjust(10) for m in self.metrics)
        lines = [header]
        for qid in qids:
            cells = []
            for metric in self.metrics:
                value = self.per_query.get(metric, {}).get(qid)
                cells.append(("-" if value is None else f"{value:.4f}").rjust(10))
            lines.append(qid.ljust(width) + "  ".join(cells))
        mean_cells = [
            ("-" if metric not in self.means else f"{self.means[metric]:.4f}").rjust(10)
            for metric in self.metrics
        ]
        lines.append("mean".ljust(width) + "  ".join(mean_cells))
        for metric, qids_out in self.excluded.items():
            if qids_out:
                lines.append(f"# excluded from {metric} mean (no relevant docs): {', '.join(qids_out)}")
        return "\n".join(lines)


def evaluate_run(
    run: dict[str, list[str]],
    qrels: dict[str, dict[str, int]],
    metrics: list[str],
    rel_threshold: int = 1,
    exponential: bool = False,
) -> MetricReport:
    report = MetricReport(metrics=list(metrics))
    for metric, (name, cutoff) in zip(metrics, [parse_metric(m) for m in metrics]):
        values: dict[str, float] = {}
        skipped: list[str] = []
        for qid in sorted(run):
            grades = qrels.get(qid, {})
            if name == "ndcg":
                value = ndcg_at(run[qid], grades, cutoff, exponential=exponential)
            else:
                value = recall_at(run[qid], grades, cutoff, rel_threshold=rel_threshold)
            if value is None:
                skipped.append(qid)
            else:
                values[qid] = value
        report.per_query[metric] = values
        report.excluded[metric] = skipped
        if values:
            report.means[metric] = sum(values.values()) / len(values)
    return report


def write_run(path: str | Path, run: dict[str, list[str]], tag: str) -> None:
    """Standard 6-column TREC run lines, sorted by (qid, rank), scored ``1 / rank``."""
    with open(path, "w", encoding="utf-8") as f:
        for qid in sorted(run):
            for rank, docno in enumerate(run[qid], start=1):
                f.write(f"{qid} Q0 {docno} {rank} {1.0 / rank} {tag}\n")


def read_run(path: str | Path) -> dict[str, list[str]]:
    """Parse and validate a TREC run file.

    Lines are read by ``corpus_store.read_lines``. Within each qid: ranks must be
    contiguous from 1, scores non-increasing, docnos unique. Returns the
    per-qid docno lists; the tag column is not read.
    """
    rows: dict[str, list[tuple[int, str, float]]] = {}
    for numbers, lines in read_lines(path):
        for lineno, line in zip(numbers, lines):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 6:
                raise ValueError(f"{path}:{lineno}: expected 6 columns 'qid Q0 docno rank score tag'")
            qid, _, docno, rank_str, score_str, _ = parts
            try:
                rank, score = int(rank_str), float(score_str)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: invalid rank or score") from None
            rows.setdefault(qid, []).append((rank, docno, score))
    run: dict[str, list[str]] = {}
    for qid, entries in rows.items():
        entries.sort(key=lambda t: t[0])
        ranks = [rank for rank, _, _ in entries]
        if ranks != list(range(1, len(entries) + 1)):
            raise ValueError(f"{path}: qid {qid}: ranks are not contiguous from 1")
        names = [docno for _, docno, _ in entries]
        if len(set(names)) != len(names):
            raise ValueError(f"{path}: qid {qid}: duplicate docnos")
        scores = [score for _, _, score in entries]
        if any(later > earlier for earlier, later in zip(scores, scores[1:])):
            raise ValueError(f"{path}: qid {qid}: scores increase with rank")
        run[qid] = names
    return run
