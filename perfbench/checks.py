"""Output checks and quality metrics, written independently of slidegar.

Nothing here imports the package under test: run files, graphs and
embeddings are parsed from their documented on-disk formats, and Recall@c
and nDCG@10 are computed from the qrels directly.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from pathlib import Path

import numpy as np

SENTINEL = 0xFFFF_FFFF


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def read_qrels(path: Path) -> dict[str, dict[str, int]]:
    qrels: dict[str, dict[str, int]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            qid, _, docno, grade = line.split()
            qrels.setdefault(qid, {})[docno] = int(grade)
    return qrels


def read_docnos(corpus: Path) -> set[str]:
    with open(corpus, encoding="utf-8") as f:
        return {line.split("\t", 1)[0] for line in f if line.strip()}


def check_run(path: Path, qids: list[str], c: int, docnos: set[str]) -> tuple[dict[str, list[str]], dict[str, str]]:
    """Parse a TREC run file and check every query's ranking.

    Returns the rankings (docnos in rank order) and, per failed query, the
    first problem found. A query is failed when it is missing, its ranks are
    not 1..n in file order, it repeats a docno, it ranks more than ``c``
    documents, it names a docno outside the corpus, or a line is malformed.
    """
    lines: dict[str, list[list[str]]] = {}
    problems: dict[str, str] = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        cols = line.split()
        if len(cols) != 6 or cols[1] != "Q0":
            problems[cols[0] if cols else f"line {lineno}"] = f"line {lineno}: malformed"
            continue
        lines.setdefault(cols[0], []).append(cols)
    rankings: dict[str, list[str]] = {}
    for qid in qids:
        rows = lines.get(qid)
        if not rows:
            problems.setdefault(qid, "missing")
            continue
        ranking = [cols[2] for cols in rows]
        if [cols[3] for cols in rows] != [str(rank) for rank in range(1, len(rows) + 1)]:
            problems.setdefault(qid, "ranks not contiguous from 1")
        elif len(set(ranking)) != len(ranking):
            problems.setdefault(qid, "duplicate docno")
        elif len(ranking) > c:
            problems.setdefault(qid, f"{len(ranking)} documents > c={c}")
        elif not docnos.issuperset(ranking):
            problems.setdefault(qid, "docno not in corpus")
        rankings[qid] = ranking
    for qid in set(lines) - set(qids):
        problems.setdefault(qid, "unexpected query")
    return rankings, problems


def replica_problems(rankings: dict[str, list[str]], replicas: dict[str, list[str]]) -> dict[str, str]:
    """Every replica of a query must be ranked like its first replica."""
    problems = {}
    for copies in replicas.values():
        first = rankings.get(copies[0])
        for qid in copies[1:]:
            if qid in rankings and rankings[qid] != first:
                problems[qid] = f"ranked differently from {copies[0]}"
    return problems


def recall_at_c(ranking: list[str], grades: dict[str, int], c: int, threshold: int) -> float:
    relevant = {docno for docno, grade in grades.items() if grade >= threshold}
    return sum(1 for docno in ranking[:c] if docno in relevant) / len(relevant)


def ndcg_at_10(ranking: list[str], grades: dict[str, int]) -> float:
    def dcg(gains: list[int]) -> float:
        return sum(gain / math.log2(position + 1) for position, gain in enumerate(gains[:10], start=1))

    ideal = dcg(sorted(grades.values(), reverse=True))
    return dcg([grades.get(docno, 0) for docno in ranking]) / ideal


def _read_graph(path: Path) -> tuple[dict, np.ndarray, list[str]]:
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        rows = np.frombuffer(f.read(), dtype="<u4").reshape(header["count"], header["k"])
    docnos = (path.parent / "docnos.txt").read_text(encoding="utf-8").splitlines()
    return header, rows, docnos


def _row_problem(i: int, row: list[int], n: int) -> str | None:
    ids = [x for x in row if x != SENTINEL]
    if row[: len(ids)] != ids:
        return "sentinel before a neighbour"
    if any(x >= n for x in ids):
        return "neighbour id out of range"
    if i in ids:
        return "self loop"
    if len(set(ids)) != len(ids):
        return "duplicate neighbour"
    return None


def _read_embeddings(path: Path) -> dict[str, np.ndarray]:
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        blob = f.read()
    vectors, pos, width = {}, 0, 4 * header["dim"]
    for _ in range(header["count"]):
        length = int.from_bytes(blob[pos : pos + 4], "little")
        docno = blob[pos + 4 : pos + 4 + length].decode("utf-8")
        pos += 4 + length
        vectors[docno] = np.frombuffer(blob[pos : pos + width], dtype="<f4")
        pos += width
    return vectors


def dense_graph_problems(graph: Path, embeddings: Path, k: int, sample: int, seed: int) -> list[str]:
    """Sampled rows must hold the k most similar other documents (inner
    product, float64 reference, tolerance for float32 rounding), best first."""
    header, rows, docnos = _read_graph(graph)
    vectors = _read_embeddings(embeddings)
    if header["k"] != k or header["source"] != "dense" or len(docnos) != len(vectors):
        return [f"{graph}: header {header} does not match k={k} and {len(vectors)} documents"]
    matrix = np.stack([vectors[d] for d in docnos]).astype(np.float64)
    problems = []
    for i in random.Random(seed).sample(range(len(docnos)), min(sample, len(docnos))):
        row = rows[i].tolist()
        problem = _row_problem(i, row, len(docnos))
        if problem is None:
            sims = matrix @ matrix[i]
            tol = 1e-4 * max(1.0, float(np.abs(sims).max()))
            sims[i] = -np.inf
            kth = np.sort(sims)[-k]
            got = sims[row]
            if got.min() < kth - tol:
                problem = "a neighbour is not among the k most similar"
            elif np.any(np.diff(got) > tol):
                problem = "neighbours not in similarity order"
        if problem:
            problems.append(f"{graph}: row {i}: {problem}")
    return problems


def lexical_graph_problems(graph: Path, corpus: Path, k: int, sample: int, seed: int) -> list[str]:
    """Sampled rows must be well formed, and every neighbour must share a
    term with its document (BM25 scores only term overlap)."""
    header, rows, docnos = _read_graph(graph)
    with open(corpus, encoding="utf-8") as f:
        texts = dict(line.rstrip("\n").split("\t", 1) for line in f if line.strip())
    if header["k"] != k or header["source"] != "lexical" or len(docnos) != len(texts):
        return [f"{graph}: header {header} does not match k={k} and {len(texts)} documents"]

    def terms(docno: str) -> set[str]:
        return set(re.findall(r"[a-z0-9]+", texts[docno].lower()))

    problems = []
    for i in random.Random(seed).sample(range(len(docnos)), min(sample, len(docnos))):
        row = rows[i].tolist()
        problem = _row_problem(i, row, len(docnos))
        if problem is None and not all(terms(docnos[i]) & terms(docnos[x]) for x in row if x != SENTINEL):
            problem = "a neighbour shares no term with its document"
        if problem:
            problems.append(f"{graph}: row {i}: {problem}")
    return problems
