"""Plain-list reference simulator for the sliding-window strategies.

Deliberately naive transcriptions operating purely on docno lists, kept
free of any engine code so bugs in the two stay uncorrelated. Used by the
randomized-equivalence tests.
"""


def simulate_window_loop(r0, rank_fn, feedback_fn, w, b, c):
    """rank_fn(list[docno]) -> list[docno];
    feedback_fn(batch, blocked, n) -> at most n docnos outside blocked.

    Every window after the first carries the batch's top b and takes b
    fresh docnos: on odd turns (the first included) from feedback, on even
    turns from the unranked part of r0, and a turn one source leaves short
    is filled from the other. The run stops once c - b docnos are dumped or
    ceil((c - w) / b) + 1 windows are ranked, before feedback is asked, or
    when no fresh docno is left.

    Returns (final docnos, ranker calls, every docno feedback ever returned).
    """
    unranked = list(r0)
    ranked = set()
    dumped = []  # (docno, iteration, window_rank)
    offered = set()
    window = unranked[:w]
    iteration = calls = 0
    while True:
        iteration += 1
        batch = rank_fn(window)
        calls += 1
        ranked.update(batch)
        unranked = [d for d in unranked if d not in batch]
        l1 = batch[:b]
        for idx in range(b, len(batch)):
            dumped.append((batch[idx], iteration, idx + 1))
        if len(dumped) >= c - b or calls == -(-(c - w) // b) + 1:
            break
        blocked = set(r0) | ranked
        if iteration % 2 == 1:
            fresh = list(feedback_fn(batch, blocked, b))
            offered.update(fresh)
            fresh += unranked[: b - len(fresh)]
        else:
            fresh = unranked[:b]
            if len(fresh) < b:
                more = list(feedback_fn(batch, blocked, b - len(fresh)))
                offered.update(more)
                fresh += more
        if not fresh:
            break
        window = l1 + fresh
    final = list(l1) + [d for d, _, _ in sorted(dumped, key=lambda t: (-t[1], t[2]))]
    return final[:c], calls, offered


def graph_feedback(neigh_fn, tk):
    """feedback_fn of the graph frontier: the first tk neighbours of each
    batch member in batch order, first occurrence kept, outside blocked.
    neigh_fn(docno) -> list[docno]."""

    def feedback_fn(batch, blocked, n):
        frontier = []
        for src in batch:  # batch order equals pseudo-score order
            for nb in neigh_fn(src)[:tk]:
                if nb in blocked or nb in frontier:
                    continue
                frontier.append(nb)
        return frontier[:n]

    return feedback_fn


def simulate_baseline(r0, rank_fn, w, b, c):
    """Back-to-front in-place window reranking. Returns (docnos, calls)."""
    items = list(r0[:c])
    n = len(items)
    if n <= w:
        spans = [0]
    else:
        spans = []
        start = n - w
        while start > 0:
            spans.append(start)
            start -= b
        spans.append(0)
    calls = 0
    for start in spans:
        start = max(0, start)
        items[start : start + w] = rank_fn(items[start : start + w])
        calls += 1
    return items, calls
