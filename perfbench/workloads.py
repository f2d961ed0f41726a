"""Benchmark workloads: their index parameters and the seeded input generators.

Each workload fixes the index configuration and the query threshold ``t``;
its inputs (points, queries) and the exact ground truth are drawn from the
run seed. Generators run in the parent process only, never in the measured
one, so their time and memory stay out of the end-to-end figures.
"""

from dataclasses import dataclass

import numpy as np

from flinng import dataio, oracle

K = 10  # top-k depth of every query and of the recall metric


@dataclass(frozen=True)
class Workload:
    name: str
    metric: str  # "jaccard" or "cosine"
    n_points: int
    n_queries: int
    m: int
    l_bits: int
    num_cells: int
    repetitions: int
    t: int  # threshold passed to query_threshold
    recall_floor: float  # minimum recall_at_10 a correct build must reach
    threshold_recall_floor: float
    reps: int  # set-ups per run: enough that their median spans the run

    def make_inputs(self, seed):
        """(points, queries, truth) for this seed; truth rows are oracle top-K."""
        if self.name == "jaccard-planted":
            return dataio.generate_synthetic(
                dataio.SyntheticSpec(
                    n_points=self.n_points,
                    universe=(self.n_points + self.n_queries) * 100,
                    tokens_per_point=100,
                    n_queries=self.n_queries,
                    s_high=0.8,
                    seed=seed,
                ),
                truth_depth=K,
            )
        if self.name == "jaccard-graded":
            points, queries = graded_sets(self.n_points, self.n_queries, seed)
        else:
            points, queries = planted_cosine(self.n_points, self.n_queries, seed)
        return points, queries, oracle.exact_topk_batch(points, queries, K, self.metric)


def graded_sets(n_points, n_queries, seed, vocab=50_000, cluster=8, zipf=0.8):
    """Clustered token sets over a shared Zipf-like vocabulary.

    Every cluster has a hidden centre of 30..170 tokens drawn with weight
    rank**-zipf, so frequent tokens are shared by unrelated points. The
    dataset holds ``cluster`` mutated copies per centre, each keeping a
    share of the centre's tokens drawn from U(0.45, 0.95) and refilling the
    rest from the vocabulary. A query is one more copy (keep share 0.85) of
    a random centre, so its true neighbours are ranked by Jaccard at about
    0.2..0.8 and the background sits well above zero.
    """
    rng = np.random.default_rng(seed)
    cdf = np.cumsum(np.arange(1, vocab + 1, dtype=np.float64) ** -zipf)
    cdf /= cdf[-1]

    def draw(size):
        return np.minimum(np.searchsorted(cdf, rng.random(size)), vocab - 1)

    def mutate(centre, keep):
        kept = centre[rng.random(centre.size) < keep]
        return np.unique(np.concatenate([kept, draw(centre.size - kept.size)])).astype(np.uint64)

    n_centres = -(-n_points // cluster)
    centres = [np.unique(draw(int(rng.integers(30, 171)))) for _ in range(n_centres)]
    points = [
        mutate(centres[i // cluster], rng.uniform(0.45, 0.95)) for i in range(n_points)
    ]
    queries = [mutate(centres[c], 0.85) for c in rng.integers(n_centres, size=n_queries)]
    return points, queries


def planted_cosine(n_points, n_queries, seed, dim=128, cos=0.9):
    """Gaussian points; each query sits at exactly cosine ``cos`` to one distinct point."""
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((n_points, dim)).astype(np.float32)
    anchors = points[rng.choice(n_points, size=n_queries, replace=False)].astype(np.float64)
    anchors /= np.linalg.norm(anchors, axis=1, keepdims=True)
    noise = rng.standard_normal((n_queries, dim))
    noise -= np.sum(noise * anchors, axis=1, keepdims=True) * anchors
    noise /= np.linalg.norm(noise, axis=1, keepdims=True)
    queries = (cos * anchors + np.sqrt(1.0 - cos * cos) * noise).astype(np.float32)
    return points, queries


WORKLOADS = {
    w.name: w
    for w in (
        Workload("jaccard-planted", "jaccard", 4000, 500, m=32, l_bits=16, num_cells=256,
                 repetitions=3, t=2, recall_floor=0.95, threshold_recall_floor=0.9, reps=3),
        Workload("cosine-planted", "cosine", 20000, 400, m=32, l_bits=12, num_cells=256,
                 repetitions=3, t=3, recall_floor=0.8, threshold_recall_floor=0.8, reps=9),
        Workload("jaccard-graded", "jaccard", 4000, 1000, m=32, l_bits=12, num_cells=256,
                 repetitions=3, t=2, recall_floor=0.65, threshold_recall_floor=0.6, reps=3),
    )
}
