import csv
import json

import numpy as np
import pytest

from flinng import dataio, lsh
from flinng.cli import _pareto_flags, main
from flinng.index import FlinngConfig, FlinngIndex
from tests.conftest import random_token_points

SIX_POINTS = "1 2 3\n4 5 6\n7 8 9\n10 11 12\n13 14 15\n16 17 18\n"


@pytest.fixture
def six(tmp_path):
    data = tmp_path / "six.txt"
    data.write_text(SIX_POINTS)
    return data


def run(*argv):
    return main([str(a) for a in argv])


def test_build_reports_and_writes(six, tmp_path, capsys):
    out = tmp_path / "six.flinng"
    code = run("build", "--dataset", six, "--index", out, "--B", 3, "--R", 2, "--m", 8, "--l-bits", 8)
    assert code == 0
    assert out.exists()
    text = capsys.readouterr().out
    assert "n_points=6" in text
    assert "build_seconds=" in text
    assert f"index_bytes={out.stat().st_size}\n" in text


def test_inspect_reports_header_parts_and_occupancy(six, tmp_path, capsys):
    index = tmp_path / "six.flinng"
    run("build", "--dataset", six, "--index", index, "--B", 3, "--R", 2, "--m", 8, "--l-bits", 8)
    capsys.readouterr()
    assert run("inspect", index) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["version"] == 4
    assert report["cell_id_width"] == 2
    assert (report["num_cells"], report["repetitions"], report["m"], report["l_bits"]) == (3, 2, 8, 8)
    assert report["n_points"] == 6
    parts = report["part_bytes"]
    assert list(parts) == ["header", "bucket_bits", "bucket_offsets", "cell_offsets", "cell_members",
                           "table_payload"]
    assert sum(parts.values()) == index.stat().st_size
    assert report["buckets"] == 8 * 2**8
    assert parts["header"] == 64
    assert parts["bucket_bits"] == 8 * (8 * 2**8 // 64 + 1)  # one word past the last bucket
    assert parts["bucket_offsets"] == 4 * (report["nonempty_buckets"] + 1)
    assert parts["table_payload"] == 2 * report["payload_length"]
    loaded = FlinngIndex.load(index)
    bucket_sizes = np.diff(loaded.table_offsets.astype(np.int64))
    assert report["nonempty_buckets"] == int((bucket_sizes > 0).sum()) > 0
    assert report["min_cell_size"] == report["max_cell_size"] == 2  # 6 points in 3 cells


def test_load_and_inspect_build_no_hash_family(tmp_path, capsys, monkeypatch):
    # an srp family is most of a load's work: only the first query builds it
    points = np.random.default_rng(2).standard_normal((40, 16))
    spec = lsh.HashFamilySpec("srp", m=8, l_bits=6, seed=5, dim=16)
    built = FlinngIndex.build(points, FlinngConfig(num_cells=4, repetitions=2, hash_spec=spec, metric="cosine"))
    path = tmp_path / "dense.flinng"
    built.save(path)

    def refuse(spec):
        raise AssertionError("hash family built")
    monkeypatch.setattr(lsh, "build_family", refuse)
    loaded = FlinngIndex.load(path)
    assert run("inspect", path) == 0
    assert json.loads(capsys.readouterr().out)["hash_kind"] == "srp"

    calls = []
    monkeypatch.setattr(lsh, "build_family", lambda spec: calls.append(spec) or built.family)
    for p in points[:3]:
        assert np.array_equal(loaded.query_topk(p, 5), built.query_topk(p, 5))
    assert calls == [spec]


def test_inspect_missing_and_corrupt_files(six, tmp_path, capsys):
    index = tmp_path / "six.flinng"
    run("build", "--dataset", six, "--index", index, "--B", 3, "--R", 2)
    assert run("inspect", tmp_path / "nope.flinng") == 3
    index.write_bytes(index.read_bytes()[:-1])
    assert run("inspect", index) == 4


def test_build_is_byte_deterministic(six, tmp_path):
    a = tmp_path / "a.flinng"
    b = tmp_path / "b.flinng"
    for out in (a, b):
        assert run("build", "--dataset", six, "--index", out, "--B", 3, "--R", 2) == 0
    assert a.read_bytes() == b.read_bytes()


def test_build_missing_dataset_names_flag(tmp_path, capsys):
    code = run("build", "--dataset", tmp_path / "nope.txt", "--index", tmp_path / "x")
    assert code == 3
    assert "--dataset" in capsys.readouterr().err


@pytest.mark.parametrize("metric, name", [("jaccard", "none.txt"), ("cosine", "none.dense")])
def test_build_on_empty_dataset_names_flag(tmp_path, capsys, metric, name):
    # an empty dense file used to exit 4, and once it loaded, 2 from a dim-0 hash spec
    data = tmp_path / name
    data.write_bytes(b"")
    assert run("build", "--dataset", data, "--index", tmp_path / "x.flinng", "--metric", metric) == 3
    assert "--dataset holds no points" in capsys.readouterr().err
    assert not (tmp_path / "x.flinng").exists()


def test_topk_roundtrip_unique_matches(tmp_path):
    # fixture verified to give every point a unique full-count match:
    # B=10, R=3, seed=0 leaves no point sharing its whole cell triple
    points = random_token_points(30, 60, seed=6)
    data = tmp_path / "pts.txt"
    dataio.save_tokens(data, points)
    index = tmp_path / "pts.flinng"
    assert run("build", "--dataset", data, "--index", index, "--B", 10, "--R", 3, "--m", 24, "--l-bits", 12) == 0
    out = tmp_path / "res.txt"
    assert run("topk", "--index", index, "--queries", data, "--out", out, "--k", 1) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 30
    assert [int(l.split()[0]) for l in lines] == list(range(30))


def test_topk_short_lines_and_latency_column(six, tmp_path):
    index = tmp_path / "six.flinng"
    run("build", "--dataset", six, "--index", index, "--B", 3, "--R", 2, "--m", 8, "--l-bits", 8)
    out = tmp_path / "res.txt"
    assert run("topk", "--index", index, "--queries", six, "--out", out, "--k", 50, "--latency") == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 6
    for line in lines:
        ids_part, latency = line.split("\t")
        assert len(ids_part.split()) <= 6
        assert int(latency) > 0


def test_topk_empty_query_file(six, tmp_path):
    index = tmp_path / "six.flinng"
    run("build", "--dataset", six, "--index", index, "--B", 3, "--R", 2)
    empty = tmp_path / "none.txt"
    empty.write_text("")
    out = tmp_path / "res.txt"
    assert run("topk", "--index", index, "--queries", empty, "--out", out) == 0
    assert out.read_text() == ""


def test_query_threshold_subcommand(six, tmp_path):
    index = tmp_path / "six.flinng"
    run("build", "--dataset", six, "--index", index, "--B", 3, "--R", 2, "--m", 8, "--l-bits", 8)
    out = tmp_path / "res.txt"
    assert run("query", "--index", index, "--queries", six, "--out", out, "--t", 8) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 6
    for qi, line in enumerate(lines):
        assert qi in [int(x) for x in line.split()]


def test_groundtruth_empty_query_file(six, tmp_path):
    empty = tmp_path / "none.txt"
    empty.write_text("")
    out = tmp_path / "truth.txt"
    assert run("groundtruth", "--dataset", six, "--queries", empty, "--out", out) == 0
    assert out.read_text() == ""


def test_query_empty_query_file(six, tmp_path):
    index = tmp_path / "six.flinng"
    run("build", "--dataset", six, "--index", index, "--B", 3, "--R", 2)
    empty = tmp_path / "none.txt"
    empty.write_text("")
    out = tmp_path / "res.txt"
    assert run("query", "--index", index, "--queries", empty, "--out", out, "--t", 1) == 0
    assert out.read_text() == ""


@pytest.mark.parametrize(
    "points, queries, message",
    [(np.empty((0, 3)), np.eye(3), "empty corpus"), (np.eye(3), np.eye(4), "query 0: shape (4,)")],
    ids=["empty-dataset", "dim-mismatch"],
)
def test_groundtruth_bad_dense_input_exits_three(tmp_path, capsys, points, queries, message):
    # unchecked, an empty dense file exited 4 and a dim mismatch raised a bare ValueError (exit 1)
    data = tmp_path / "pts.dense"
    dataio.save_dense(data, points)
    qfile = tmp_path / "q.dense"
    dataio.save_dense(qfile, queries)
    out = tmp_path / "truth.txt"
    assert run("groundtruth", "--dataset", data, "--queries", qfile, "--out", out, "--metric", "cosine") == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_bench_on_empty_query_file_builds_nothing(six, tmp_path, capsys, monkeypatch):
    # groundtruth writes an empty truth file for no queries; bench used to refuse that file and not the queries
    empty = tmp_path / "none.txt"
    empty.write_text("")
    truth = tmp_path / "truth.txt"
    assert run("groundtruth", "--dataset", six, "--queries", empty, "--out", truth) == 0

    def refuse(*args, **kwargs):
        raise AssertionError("index built")
    monkeypatch.setattr(FlinngIndex, "build", refuse)
    out = tmp_path / "bench.csv"
    assert run("bench", "--dataset", six, "--queries", empty, "--truth", truth, "--out", out,
               "--B", 3, "--R", 2, "--m", 8) == 3
    assert "--queries holds no queries" in capsys.readouterr().err
    assert not out.exists()


def test_groundtruth_six_by_six(six, tmp_path):
    out = tmp_path / "truth.txt"
    assert run("groundtruth", "--dataset", six, "--queries", six, "--out", out, "--k", 6) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 6
    for qi, line in enumerate(lines):
        pairs = [p.split(":") for p in line.split()]
        assert len(pairs) == 6
        assert int(pairs[0][0]) == qi and float(pairs[0][1]) == 1.0
        sims = [float(s) for _, s in pairs]
        assert sims == sorted(sims, reverse=True)


PLAN_KEYS = ["n_points", "delta", "gamma", "s_k", "s_k1", "B", "R_raw", "R", "p", "q", "m", "l_bits", "t", "t_int",
             "alpha_bound", "footnote_ok"]


def test_plan_prints_key_values(capsys):
    assert run("plan", "--n", 10000, "--delta", 0.05, "--gamma", 0.25, "--sk", 0.5, "--sk1", 0.125) == 0
    text = capsys.readouterr().out
    assert [line.split("=")[0] for line in text.splitlines()] == PLAN_KEYS
    assert "R=11" in text
    assert "q=0.01" in text
    assert "l_bits=4" in text
    assert "t_int=19" in text


def test_plan_csv_output(tmp_path):
    out = tmp_path / "plan.csv"
    assert run("plan", "--n", 10000, "--delta", 0.05, "--gamma", 0.25, "--sk", 0.5, "--sk1", 0.125, "--out", out) == 0
    rows = list(csv.DictReader(out.open()))
    assert list(rows[0]) == PLAN_KEYS
    assert rows[0]["R"] == "11" and rows[0]["m"] == "487"


def test_plan_domain_errors_exit_five(capsys):
    assert run("plan", "--n", 100, "--delta", 0.05, "--gamma", 0.25, "--sk", 0.5, "--sk1", 0.125) == 5
    assert run("plan", "--n", 10000, "--delta", 1.5, "--gamma", 0.25, "--sk", 0.5, "--sk1", 0.125) == 5
    capsys.readouterr()


def test_plan_past_widest_code_exits_five(capsys):
    # separating 0.5 from 0.45 at n = 10000 takes l_bits = 44; a hash family takes at most 24
    assert run("plan", "--n", 10000, "--delta", 0.05, "--gamma", 0.25, "--sk", 0.5, "--sk1", 0.45) == 5
    assert "no l_bits <= 24" in capsys.readouterr().err


def test_simulate_noiseless(capsys):
    assert run("simulate", "--n", 100, "--K", 1, "--B", 10, "--R", 2, "--p", 1.0, "--q", 0.0, "--trials", 100) == 0
    text = capsys.readouterr().out
    assert "tpr=1.0" in text
    assert "fpr_upper=" in text


def test_simulate_mid_grid_within_bounds(capsys):
    assert run(
        "simulate", "--n", 200, "--K", 1, "--B", 20, "--R", 3,
        "--p", 0.95, "--q", 0.05, "--trials", 5000, "--seed", 7,
    ) == 0
    values = dict(line.split("=") for line in capsys.readouterr().out.splitlines())
    assert float(values["tpr"]) >= float(values["tpr_lower"]) - 0.03
    assert float(values["fpr"]) <= float(values["fpr_upper"]) + 0.03


def test_pareto_flags_hand_pair():
    dominant = {"recall": 0.9, "latency_p50_ns": 100}
    dominated = {"recall": 0.5, "latency_p50_ns": 200}
    assert _pareto_flags([dominant, dominated]) == [True, False]
    # incomparable rows are both kept
    other = {"recall": 0.95, "latency_p50_ns": 400}
    assert _pareto_flags([dominant, other]) == [True, True]
    # exact duplicates are both non-dominated
    assert _pareto_flags([dominant, dict(dominant)]) == [True, True]


def test_bench_pipeline(tmp_path):
    points, queries, truth_rows = dataio.generate_synthetic(
        dataio.SyntheticSpec(
            n_points=200, universe=10**6, tokens_per_point=60,
            n_queries=20, s_high=0.9, seed=4,
        )
    )
    data = tmp_path / "pts.txt"
    qfile = tmp_path / "q.txt"
    dataio.save_tokens(data, points)
    dataio.save_tokens(qfile, queries)
    truth = tmp_path / "truth.txt"
    assert run("groundtruth", "--dataset", data, "--queries", qfile, "--out", truth, "--k", 10) == 0
    out = tmp_path / "bench.csv"
    assert run(
        "bench", "--dataset", data, "--queries", qfile, "--truth", truth, "--out", out,
        "--B", 8, "--R", 2, "--R", 3, "--m", 16, "--l-bits", 10, "--k", 10,
    ) == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 2  # grid: one B x two R x one m
    assert {r["R"] for r in rows} == {"2", "3"}
    assert all(float(r["recall"]) == 1.0 for r in rows)
    assert any(r["pareto"] == "1" for r in rows)
    assert all(int(r["index_bytes"]) > 0 for r in rows)


def test_bench_deterministic_apart_from_timing(tmp_path):
    points = random_token_points(80, 30, seed=2)
    data = tmp_path / "pts.txt"
    dataio.save_tokens(data, points)
    truth = tmp_path / "truth.txt"
    run("groundtruth", "--dataset", data, "--queries", data, "--out", truth, "--k", 5)
    outs = []
    for name in ("one.csv", "two.csv"):
        out = tmp_path / name
        assert run(
            "bench", "--dataset", data, "--queries", data, "--truth", truth, "--out", out,
            "--B", 8, "--R", 2, "--m", 12, "--l-bits", 8, "--k", 5,
        ) == 0
        rows = list(csv.DictReader(out.open()))
        for r in rows:
            r.pop("build_seconds")
            r.pop("latency_p50_ns")
            r.pop("latency_p95_ns")
        outs.append(rows)
    assert outs[0] == outs[1]


def test_bench_four_config_sweep_on_10k(tmp_path):
    import time

    points, queries, _ = dataio.generate_synthetic(
        dataio.SyntheticSpec(
            n_points=10_000, universe=10**7, tokens_per_point=60,
            n_queries=50, s_high=0.8, seed=13,
        )
    )
    data = tmp_path / "pts.txt"
    qfile = tmp_path / "q.txt"
    dataio.save_tokens(data, points)
    dataio.save_tokens(qfile, queries)
    truth = tmp_path / "truth.txt"
    run("groundtruth", "--dataset", data, "--queries", qfile, "--out", truth, "--k", 10)
    out = tmp_path / "bench.csv"
    start = time.perf_counter()
    code = run(
        "bench", "--dataset", data, "--queries", qfile, "--truth", truth, "--out", out,
        "--B", 128, "--B", 256, "--R", 2, "--R", 3, "--m", 16, "--l-bits", 12,
    )
    elapsed = time.perf_counter() - start
    assert code == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 4
    assert elapsed < 120.0


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["build", "--no-such-flag"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["build", "--dataset", "six.txt"], "--index"),
        (["query", "--index", "six.flinng", "--queries", "six.txt", "--out", "res.txt"], "--t"),
        (["bench", "--dataset", "six.txt", "--queries", "six.txt", "--out", "b.csv", "--B", "3", "--R", "2",
          "--m", "8"], "--truth"),
    ],
    ids=["build-index", "query-t", "bench-truth"],
)
def test_missing_required_flag_is_usage_error(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"the following arguments are required: {flag}" in capsys.readouterr().err
