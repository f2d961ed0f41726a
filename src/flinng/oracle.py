"""Exact similarity search and retrieval metrics: the ground truth for everything else.

``exact_topk`` scans the whole dataset; Jaccard queries go through a token
posting index (exact, just faster than the naive double loop), cosine through
one matrix product. Ties are always broken by ascending point id, and a
query hit in ``evaluate`` means the tie-broken true top-1 id was returned.
"""

import re
from dataclasses import dataclass, field

import numpy as np

from . import lsh
from .errors import InputError

GT_SEP = ":"
_ID_MAX = (1 << 63) - 1  # ground-truth ids read back as int64
# a similarity as write_ground_truth's ".17g" writes it
_SIM_FORM = re.compile(r"-?(?:[0-9]+(?:\.[0-9]+)?(?:e[+-][0-9]+)?|inf)|nan")


def jaccard(x, y) -> float:
    """|x & y| / |x | y| for two sorted duplicate-free token arrays."""
    x = lsh._token_ids(x)
    y = lsh._token_ids(y)
    if x.size == 0 or y.size == 0:
        raise InputError("jaccard is undefined for empty token sets")
    inter = np.intersect1d(x, y, assume_unique=True).size
    return inter / (x.size + y.size - inter)


def cosine(x, y) -> float:
    """dot(x, y) / (|x| |y|) for two equal-dimension vectors."""
    x = lsh._finite(lsh._numeric(x))
    y = lsh._finite(lsh._numeric(y))
    if x.shape != y.shape or x.ndim != 1:
        raise InputError(f"dimension mismatch: {x.shape} vs {y.shape}")
    nx = np.linalg.norm(x)
    ny = np.linalg.norm(y)
    if nx == 0.0 or ny == 0.0:
        raise InputError("cosine is undefined for zero vectors")
    return float(np.dot(x, y) / (nx * ny))


class _TokenPostings:
    """token -> point-id posting lists over a token-set corpus."""

    def __init__(self, points):
        sets = [lsh._token_ids(p, f"corpus point {i}: token ids") for i, p in enumerate(points)]
        self.sizes = np.array([s.size for s in sets], dtype=np.int64)
        if (self.sizes == 0).any():
            raise InputError("corpus contains an empty token set")
        owners = np.repeat(np.arange(len(points), dtype=np.int64), self.sizes)
        flat = np.concatenate(sets)
        order = np.argsort(flat, kind="stable")
        flat = flat[order]
        self.owners = owners[order]
        # the first entry of each run of one token in the sorted array, then the end
        starts = np.flatnonzero(np.concatenate(([True], flat[1:] != flat[:-1])))
        self.tokens = flat[starts]
        self.starts = np.append(starts, flat.size)
        self.n = len(points)

    def similarities(self, query):
        q = lsh.token_set(query)
        if q.size == 0:
            raise InputError("query token set is empty")
        loc = np.searchsorted(self.tokens, q)
        inside = loc < self.tokens.size
        loc = loc[inside]
        loc = loc[self.tokens[loc] == q[inside]]
        hits = [self.owners[self.starts[i] : self.starts[i + 1]] for i in loc]
        inter = np.bincount(
            np.concatenate(hits) if hits else np.empty(0, np.int64), minlength=self.n
        ).astype(np.float64)
        union = self.sizes + q.size - inter
        return inter / union


def _select_topk(sims, k):
    n = sims.shape[0]
    if k >= n:
        cand = np.arange(n)
    else:
        head = np.argpartition(-sims, k - 1)[:k]
        cand = np.flatnonzero(sims >= sims[head].min())  # keep every boundary tie
    order = cand[np.lexsort((cand, -sims[cand]))][:k]
    return order.astype(np.int64), sims[order].astype(np.float64)


def exact_topk(points, query, k, metric):
    """One ground-truth row: (ids, similarities), descending, ties by ascending id."""
    return exact_topk_batch(points, [query], k, metric)[0]


def exact_topk_batch(points, queries, k, metric):
    k = lsh._count(k, "k")
    if len(points) == 0:
        raise InputError("cannot search an empty corpus")
    if metric == "jaccard":
        postings = _TokenPostings(points)
        return [_select_topk(postings.similarities(q), k) for q in queries]
    if metric == "cosine":
        mat = lsh._finite(lsh._numeric(points))
        if mat.ndim != 2:
            raise InputError(f"a cosine corpus must be a 2-d matrix, got shape {mat.shape}")
        norms = np.linalg.norm(mat, axis=1)
        if (norms == 0).any():
            raise InputError("corpus contains a zero vector")
        rows = []
        for i, q in enumerate(queries):
            q = lsh._finite(lsh._numeric(q))
            if q.shape != mat.shape[1:]:
                raise InputError(f"query {i}: shape {q.shape} does not match the corpus dim {mat.shape[1]}")
            nq = np.linalg.norm(q)
            if nq == 0.0:
                raise InputError("query is a zero vector")
            rows.append(_select_topk(mat @ q / (norms * nq), k))
        return rows
    raise InputError(f"unknown metric {metric!r}")


@dataclass
class EvalReport:
    """Retrieval quality at each cutoff."""

    recall_at_k: dict = field(default_factory=dict)  # k -> fraction with true top-1 in top k
    precision_at: dict = field(default_factory=dict)  # j -> mean precision vs true top-j
    recall_at: dict = field(default_factory=dict)  # j -> mean recall vs true top-j


def evaluate(results, truth, k_list) -> EvalReport:
    """Score returned id lists against ground-truth rows at each cutoff in k_list."""
    if len(results) != len(truth):
        raise InputError(f"{len(results)} result rows vs {len(truth)} truth rows")
    if not truth:
        raise InputError("cannot evaluate an empty query set")
    k_list = [lsh._count(k, "k") for k in k_list]
    # ids as integers: a cast would truncate a float id of 0.7 to a hit on id 0
    rows = [lsh._token_ids(res, f"result row {i}: ids").astype(np.int64) for i, res in enumerate(results)]
    report = EvalReport()
    for k in k_list:
        hits = prec = rec = 0.0
        for res, (true_ids, _sims) in zip(rows, truth):
            got = res[:k]
            want = true_ids[:k]
            hits += float(true_ids.size > 0 and np.isin(true_ids[0], got).item())
            common = np.intersect1d(got, want).size
            prec += common / got.size if got.size else 0.0
            rec += common / want.size if want.size else 0.0
        n = len(results)
        report.recall_at_k[k] = hits / n
        report.precision_at[k] = prec / n
        report.recall_at[k] = rec / n
    return report


def write_ground_truth(path, rows):
    """One line per query: space-separated id:similarity pairs.

    InputError, before the file is opened, for a row read_ground_truth would
    reject: ids that are not integers in [0, 2**63), similarities that are not
    numbers, or no pair, or not one similarity per id.
    """
    checked = []
    for i, (ids, sims) in enumerate(rows):
        ids = lsh._token_ids(ids, f"row {i}: ids")
        sims = lsh._as_array(sims, f"row {i}: similarities")
        if ids.size == 0 or sims.shape != ids.shape or sims.dtype.kind not in "iuf":
            raise InputError(f"row {i}: needs at least one id and one numeric similarity per id, "
                             f"got {ids.size} ids and {sims.dtype} similarities of shape {sims.shape}")
        if ids.max() > _ID_MAX:
            raise InputError(f"row {i}: ids must lie in [0, 2**63), got {ids.max()}")
        checked.append((ids.tolist(), sims.tolist()))
    with open(path, "w", encoding="utf-8") as fh:
        for ids, sims in checked:
            fh.write(" ".join(f"{i}{GT_SEP}{float(s):.17g}" for i, s in zip(ids, sims)))
            fh.write("\n")


def _similarity(text):
    """A similarity in the ASCII form ``write_ground_truth`` writes, as float; ValueError for any other.

    float() alone also takes "+1", "1_0", surrounding spaces and non-ASCII digits.
    """
    if not _SIM_FORM.fullmatch(text):
        raise ValueError(f"not a similarity as write_ground_truth writes one: {text!r}")
    return float(text)


def read_ground_truth(path):
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                raise InputError(f"{path}:{lineno}: blank ground-truth line")
            ids = []
            sims = []
            for field_i, part in enumerate(line.split(), 1):
                try:
                    id_s, sim_s = part.split(GT_SEP, 1)
                    if not (id_s.isascii() and id_s.isdigit()):  # int() also takes "+5", "1_0" and non-ASCII digits
                        raise ValueError("an id is ASCII digits only")
                    ids.append(lsh._count(int(id_s), "id", 0, _ID_MAX, ValueError))
                    sims.append(_similarity(sim_s))
                except ValueError as exc:
                    raise InputError(f"{path}:{lineno}: field {field_i}: {part!r}") from exc
            rows.append((np.asarray(ids, dtype=np.int64), np.asarray(sims, dtype=np.float64)))
    return rows
