"""The measured process: one fresh interpreter per benchmark run.

Reads the inputs that ``run.py`` wrote and sets the index up ``reps`` times
(read, build, save, load); after each set-up it answers every query in
whole rounds until its share of the run length is spent. It writes its timings to ``timings.json`` and every
answer it gave to ``answers.npz`` in the work directory; all checks run in
the parent afterwards.

Untraced (default), it calls only the public API the README shows:
``FlinngIndex.build``/``save``/``load``, ``query_topk`` and
``query_threshold``. With ``--trace`` it makes the same steps through the
finer entry points of each layer (``dataio``, ``lsh``, ``index``) and
records a span around every call.

    python3 perfbench/measure.py WORKDIR [--trace]
"""

import time

T_START = time.perf_counter()  # before any heavy import: setup_s counts the imports

import gc  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from flinng import dataio, lsh  # noqa: E402
from flinng.index import FlinngConfig, FlinngIndex, QueryScratch  # noqa: E402
from flinng.lsh import HashFamilySpec  # noqa: E402

T_IMPORTED = time.perf_counter()


class Tracer:
    """Spans kept in memory as (name, start_ns, end_ns, parent, query) tuples."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def span(self, name, query=-1):
        return _Span(self, name, query)

    def durations(self, name):
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, query) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "query": query}))
                fh.write("\n")


class _Span:
    __slots__ = ("tracer", "name", "query", "index", "start")

    def __init__(self, tracer, name, query):
        self.tracer, self.name, self.query = tracer, name, query

    def __enter__(self):
        tr = self.tracer
        self.index = len(tr.spans)
        tr.spans.append(None)  # reserve the id so children can name their parent
        tr._stack.append(self.index)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter_ns()
        tr = self.tracer
        tr._stack.pop()
        parent = tr._stack[-1] if tr._stack else -1
        tr.spans[self.index] = (self.name, self.start, end, parent, self.query)
        return False


def read_inputs(cfg, work):
    if cfg["metric"] == "jaccard":
        return dataio.load_tokens(work / "points.txt"), dataio.load_tokens(work / "queries.txt")
    return dataio.load_dense(work / "points.bin"), dataio.load_dense(work / "queries.bin")


def make_config(cfg):
    kind = "minhash" if cfg["metric"] == "jaccard" else "srp"
    spec = HashFamilySpec(kind, m=cfg["m"], l_bits=cfg["l_bits"], seed=cfg["seed"],
                          dim=cfg["dim"] if kind == "srp" else None)
    return FlinngConfig(num_cells=cfg["num_cells"], repetitions=cfg["repetitions"],
                        hash_spec=spec, metric=cfg["metric"])


def setup_untraced(cfg, work, config, rep):
    t0 = time.perf_counter()
    points, queries = read_inputs(cfg, work)
    t1 = time.perf_counter()
    built = FlinngIndex.build(points, config)
    t2 = time.perf_counter()
    path = work / f"index-{rep}.flinng"
    built.save(path)
    t3 = time.perf_counter()
    loaded = FlinngIndex.load(path)
    t4 = time.perf_counter()
    return queries, built, loaded, {"read": t1 - t0, "build": t2 - t1, "save": t3 - t2,
                                    "load": t4 - t3, "total": t4 - t0}


def setup_traced(cfg, work, config, rep, tracer):
    with tracer.span("setup"):
        with tracer.span("dataio.read"):
            points, queries = read_inputs(cfg, work)
        with tracer.span("lsh.build_hash"):
            family = lsh.build_family(config.hash_spec)
            if config.metric == "jaccard":
                codes = lsh.hash_set_many(family, points)
            else:
                codes = lsh.hash_dense_many(family, points)
        with tracer.span("index.from_codes"):
            built = FlinngIndex.from_codes(codes, config, family=family)
        path = work / f"index-{rep}.flinng"
        with tracer.span("index.save"):
            built.save(path)
        buf = path.read_bytes()
        with tracer.span("index.from_bytes"):
            loaded = FlinngIndex.from_bytes(buf)
    return queries, built, loaded


def untraced_round(index, queries, k, t, scratch, log):
    start = time.perf_counter_ns()
    for q in queries:
        s = time.perf_counter_ns()
        ids = index.query_topk(q, k, scratch)
        log["topk_ns"].append(time.perf_counter_ns() - s)
        log["topk"].append(ids)
    log["topk_wall_ns"] += time.perf_counter_ns() - start
    start = time.perf_counter_ns()
    for q in queries:
        s = time.perf_counter_ns()
        ids = index.query_threshold(q, t)
        log["threshold_ns"].append(time.perf_counter_ns() - s)
        log["threshold"].append(ids)
    log["threshold_wall_ns"] += time.perf_counter_ns() - start


def traced_round(index, queries, k, t, scratch, log, tracer):
    for qi, q in enumerate(queries):
        with tracer.span("query.topk", qi):
            with tracer.span("lsh.query_hash", qi):
                codes = index.hash_query(q)
            with tracer.span("index.topk_codes", qi):
                ids = index.query_topk_codes(codes, k, scratch)
        log["topk"].append(ids)
        with tracer.span("index.cell_counts", qi):
            index.cell_counts(codes, scratch)
        with tracer.span("query.threshold", qi):
            with tracer.span("lsh.query_hash", qi):
                codes = index.hash_query(q)
            with tracer.span("index.threshold_codes", qi):
                ids = index.query_threshold_codes(codes, t)
        log["threshold"].append(ids)
    # the same top-k pass without spans, for the tracing overhead
    for q in queries:
        s = time.perf_counter_ns()
        index.query_topk(q, k, scratch)
        log["topk_ns"].append(time.perf_counter_ns() - s)


def pack(id_lists):
    """Ragged id lists as (flat ids, lengths)."""
    lengths = np.array([len(a) for a in id_lists], dtype=np.int64)
    flat = np.concatenate(id_lists).astype(np.int64) if id_lists else np.empty(0, np.int64)
    return flat, lengths


def vm_hwm_mib():
    """Peak resident memory of this process image, from /proc (MiB).

    ``ru_maxrss`` would also count the parent's pages at exec time, so the
    kernel's per-image high-water mark is read instead.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def p50_us(ns):
    return statistics.median(ns) / 1e3


def main(argv):
    work = Path(argv[0])
    traced = "--trace" in argv[1:]
    cfg = json.loads((work / "config.json").read_text())
    config = make_config(cfg)
    k, t = cfg["k"], cfg["t"]
    tracer = Tracer() if traced else None

    # Set-ups alternate with query time, so that every figure samples the
    # whole run: a shared host's speed can shift by tens of percent within
    # seconds.
    setups = []
    log = {"topk": [], "threshold": [], "topk_ns": [], "threshold_ns": [], "topk_wall_ns": 0,
           "threshold_wall_ns": 0}
    rounds = 0
    for rep in range(cfg["reps"]):
        built = loaded = None  # drop the previous generation before the next build
        if traced:
            queries, built, loaded = setup_traced(cfg, work, config, rep, tracer)
        else:
            queries, built, loaded, times = setup_untraced(cfg, work, config, rep)
            setups.append(times)
        scratch = QueryScratch(loaded)
        loaded.query_topk(queries[0], k, scratch)  # warm-up
        loaded.query_threshold(queries[0], t)
        gc.collect()
        gc.disable()
        start = time.perf_counter()
        first = rounds
        while rounds == first or time.perf_counter() - start < cfg["seconds"] / cfg["reps"]:
            if traced:
                traced_round(loaded, queries, k, t, scratch, log, tracer)
            else:
                untraced_round(loaded, queries, k, t, scratch, log)
            rounds += 1
        gc.enable()

    # save -> load must not change an answer: ask the in-memory build as well
    built_topk = [built.query_topk(q, k) for q in queries]
    built_threshold = [built.query_threshold(q, t) for q in queries]

    out = {"rounds": rounds, "reps": cfg["reps"], "peak_rss_mb": vm_hwm_mib(),
           "import_s": T_IMPORTED - T_START, "setups": setups}
    if traced:
        out["layers"] = layer_metrics(tracer, log["topk_ns"])
        tracer.write(work / "spans.jsonl")
    else:
        out["topk_ns"] = log["topk_ns"]
        out["threshold_ns"] = log["threshold_ns"]
        out["topk_wall_ns"] = log["topk_wall_ns"]
        out["threshold_wall_ns"] = log["threshold_wall_ns"]
    (work / "timings.json").write_text(json.dumps(out))
    arrays = {}
    for key, lists in (("topk", log["topk"]), ("threshold", log["threshold"]),
                       ("built_topk", built_topk), ("built_threshold", built_threshold)):
        arrays[key], arrays[key + "_len"] = pack(lists)
    np.savez(work / "answers.npz", **arrays)
    return 0


def layer_metrics(tracer, untraced_topk_ns):
    def median_s(name):
        return statistics.median(tracer.durations(name)) / 1e9

    cell = tracer.durations("index.cell_counts")
    topk = tracer.durations("index.topk_codes")
    traced_topk = p50_us(tracer.durations("query.topk"))
    untraced_topk = p50_us(untraced_topk_ns)
    metrics = {
        "dataio.read_s": (median_s("dataio.read"), "s"),
        "lsh.build_hash_s": (median_s("lsh.build_hash"), "s"),
        "index.from_codes_s": (median_s("index.from_codes"), "s"),
        "index.save_s": (median_s("index.save"), "s"),
        "index.from_bytes_s": (median_s("index.from_bytes"), "s"),
        "lsh.query_hash_p50_us": (p50_us(tracer.durations("lsh.query_hash")), "us"),
        "index.cell_counts_p50_us": (p50_us(cell), "us"),
        "index.topk_codes_p50_us": (p50_us(topk), "us"),
        # derived: per query, the top-k call minus the gather it repeats
        "index.emit_p50_us": (p50_us([a - b for a, b in zip(topk, cell)]), "us"),
        "index.threshold_codes_p50_us": (p50_us(tracer.durations("index.threshold_codes")), "us"),
        # hash + top-k with spans around both, against query_topk without spans
        "trace.topk_p50_us": (traced_topk, "us"),
        "trace.untraced_topk_p50_us": (untraced_topk, "us"),
        "trace.overhead_pct": (100.0 * (traced_topk / untraced_topk - 1.0), "%"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
