import csv
import json
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest

from nexica import cli
from nexica.cli import main
from nexica.events import EventSeries, extract_events
from nexica.ingest import (
    DriveTimeMatrix, StationMeta, SpeedSeries, load_drive_times, load_speed_csv,
    load_station_meta, write_drive_times, write_speed_csv, write_station_meta,
)
from nexica.mle import MAX_WINDOW
from nexica.pipeline import (
    TOP_K_EDGES, TOPK_HEADER, RunConfig, run_pipeline, sweep, write_counts_csv,
    write_events_csv, write_mle_csv,
)
from nexica.synth import SynthSpec, write_dataset

N_SLOTS = 8 * 2016  # eight weeks keeps the median-week profile robust


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("corpus")
    spec = SynthSpec(
        n_stations=10, n_slots=N_SLOTS, p_s=0.05, seed=21,
        edges=((1, 0, 1, 0.6), (2, 0, 2, 0.7), (5, 3, 2, 0.8), (9, 8, 1, 0.5)),
    )
    paths = write_dataset(spec, tmp)
    spec_path = tmp / "spec.json"
    spec_path.write_text(json.dumps({
        "n_stations": 10, "n_slots": N_SLOTS, "p_s": 0.05, "seed": 21,
        "edges": [[1, 0, 1, 0.6], [2, 0, 2, 0.7], [5, 3, 2, 0.8], [9, 8, 1, 0.5]],
    }))
    paths["spec"] = str(spec_path)
    paths["dir"] = str(tmp)
    return paths


@pytest.fixture(scope="module")
def quiet_corpus(corpus, tmp_path_factory):
    """The corpus plus one constant-speed station, which has no events."""
    tmp = tmp_path_factory.mktemp("quiet")
    series = load_speed_csv(corpus["speeds"])
    series.append(SpeedSeries("S999", series[0].start_time, np.full(N_SLOTS, 60.0),
                              np.zeros(N_SLOTS, dtype=bool)))
    meta = load_station_meta(corpus["meta"])
    meta.append(StationMeta("S999", meta[0].road, meta[0].direction, 0.0, 1.0, "Mainline"))
    drive = load_drive_times(corpus["drive_times"])
    minutes = np.full((len(series), len(series)), 90.0)
    minutes[:-1, :-1] = drive.minutes
    np.fill_diagonal(minutes, 0.0)
    paths = dict(corpus, speeds=str(tmp / "speeds.csv"), meta=str(tmp / "meta.csv"),
                 drive_times=str(tmp / "drive_times.csv"))
    write_speed_csv(paths["speeds"], series)
    write_station_meta(paths["meta"], meta)
    write_drive_times(paths["drive_times"], DriveTimeMatrix(drive.station_ids + ["S999"], minutes))
    return paths


@pytest.fixture(scope="module")
def reversed_corpus(corpus, tmp_path_factory):
    """The corpus with its meta.csv rows in reverse station order."""
    tmp = tmp_path_factory.mktemp("reversed")
    with open(corpus["meta"], "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    (tmp / "meta.csv").write_bytes(b"".join(lines[:1] + lines[:0:-1]))
    return dict(corpus, meta=str(tmp / "meta.csv"))


def make_config(corpus, out_dir, **overrides):
    cfg = {
        "speeds": corpus["speeds"], "meta": corpus["meta"],
        "drive_times": corpus["drive_times"], "out_dir": str(out_dir),
        "truth": corpus["truth"], "alpha": 0.25, "tau": 0, "l_max": 8,
        "min_completeness": 0.9, "ratio": 1, "n_trees": 30, "folds": 5,
        "seed": 3,
    }
    cfg.update(overrides)
    return cfg


def test_synth_command_reproduces_library_output(corpus, tmp_path, capsys):
    assert main(["synth", "--spec", corpus["spec"], "--out", str(tmp_path / "again")]) == 0
    for name in ("speeds.csv", "meta.csv", "drive_times.csv", "truth.csv"):
        a = (tmp_path / "again" / name).read_bytes()
        b = (Path(corpus["dir"]) / name).read_bytes()
        assert a == b, name


def test_stagewise_cli_matches_pipeline(corpus, quiet_corpus, reversed_corpus, tmp_path, capsys):
    for name, paths in (("synth", corpus), ("quiet", quiet_corpus), ("reversed", reversed_corpus)):
        _assert_stagewise_matches_run(paths, tmp_path / name, capsys)
    events = (tmp_path / "quiet" / "events.csv").read_text().splitlines()
    assert "S999,0,0" in events
    assert len((tmp_path / "quiet" / "mle.csv").read_text().splitlines()) == 1 + 11 * 10 * 8


@pytest.mark.parametrize("tau", [0, 1, 2, 3])
def test_stagewise_pairs_and_mle_match_the_sweep(tmp_path, capsys, tau):
    """``pairs`` then ``mle`` write what ``sweep`` gives in memory, with a
    station without events and one whose events lie closer than tau + 1
    slots (clusters, counted by ``lagged_counts``' greedy steps)."""
    m, l_max = 200, 4
    rng = np.random.default_rng(tau)
    bits = {"a": np.zeros(m, dtype=bool), "b": np.zeros(m, dtype=bool)}
    bits["a"][[3, 4, 6, 10, 11, 12, 30, 31, 150]] = True
    bits.update({sid: rng.random(m) < 0.1 for sid in ("c", "d")})
    series = [EventSeries(sid, b) for sid, b in bits.items()]
    write_events_csv(tmp_path / "events.csv", series)
    table = sweep(series, l_max, tau)
    write_counts_csv(tmp_path / "want_counts.csv", table)
    write_mle_csv(tmp_path / "want_mle.csv", table)

    assert main(["pairs", "--events", str(tmp_path / "events.csv"), "--slots", str(m),
                 "--lmax", str(l_max), "--tau", str(tau),
                 "--out", str(tmp_path / "counts.csv")]) == 0
    assert main(["mle", "--counts", str(tmp_path / "counts.csv"), "--tau", str(tau),
                 "--out", str(tmp_path / "mle.csv")]) == 0
    for name in ("counts.csv", "mle.csv"):
        assert (tmp_path / name).read_bytes() == (tmp_path / f"want_{name}").read_bytes(), name


def _assert_stagewise_matches_run(corpus, tmp_path, capsys):
    run_dir = tmp_path / "run"
    config = RunConfig(**make_config(corpus, run_dir))
    metrics = run_pipeline(config)

    events_csv = tmp_path / "events.csv"
    assert main(["events", "--speeds", corpus["speeds"], "--alpha", "0.25",
                 "--out", str(events_csv)]) == 0
    assert events_csv.read_bytes() == (run_dir / "events.csv").read_bytes()

    counts_csv = tmp_path / "counts.csv"
    assert main(["pairs", "--events", str(events_csv), "--slots", str(N_SLOTS),
                 "--lmax", "8", "--tau", "0", "--out", str(counts_csv)]) == 0
    assert counts_csv.read_bytes() == (run_dir / "counts.csv").read_bytes()

    mle_csv = tmp_path / "mle.csv"
    assert main(["mle", "--counts", str(counts_csv), "--out", str(mle_csv)]) == 0
    assert mle_csv.read_bytes() == (run_dir / "mle.csv").read_bytes()

    gt_csv = tmp_path / "dataset.csv"
    assert main(["ground-truth", "--meta", corpus["meta"],
                 "--drive-times", corpus["drive_times"],
                 "--lmax", "8", "--ratio", "1", "--out", str(gt_csv)]) == 0
    assert gt_csv.read_bytes() == (run_dir / "dataset.csv").read_bytes()

    topk_csv = tmp_path / "topk_edges.csv"
    capsys.readouterr()
    assert main(["train", "--features", str(mle_csv), "--labels", str(gt_csv),
                 "--n-trees", str(config.n_trees), "--seed", str(config.seed),
                 "--out", str(topk_csv)]) == 0
    assert topk_csv.read_bytes() == (run_dir / "topk_edges.csv").read_bytes()
    assert f"(hash {metrics['classifier']['model_hash'][:12]})" in capsys.readouterr().out


@pytest.fixture(scope="module")
def run_dir(corpus, tmp_path_factory):
    """A finished ``nexica run`` on the corpus, for the commands that read its CSVs."""
    out = tmp_path_factory.mktemp("run")
    run_pipeline(RunConfig(**make_config(corpus, out)))
    return out


def test_timings_list_every_stage(run_dir):
    """timings.json holds the wall time of every stage, each artifact write included."""
    timings = json.loads((run_dir / "timings.json").read_text())
    assert sorted(timings) == sorted([
        "ingest", "events", "events-write", "sweep", "counts-write", "mle-write",
        "ground-truth", "dataset-write", "dataset-full-write", "classify",
    ])
    assert all(isinstance(t, float) and t >= 0 for t in timings.values())


def test_train_evaluate_ablate_commands(run_dir, tmp_path, capsys):
    """The commands on the run's mle.csv, then on its counts.csv: they read
    only the counts of ``--features``, so both write the same bytes."""
    metrics = json.loads((run_dir / "metrics.json").read_text())
    labels = str(run_dir / "dataset.csv")
    for name in ("mle", "counts"):
        features = str(run_dir / f"{name}.csv")
        out = tmp_path / name
        out.mkdir()

        topk_path = out / "topk_edges.csv"
        assert main(["train", "--features", features, "--labels", labels, "--feature-set", "pc",
                     "--n-trees", "10", "--seed", "5", "--out", str(topk_path)]) == 0
        with open(topk_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == TOPK_HEADER and len(rows) == 1 + TOP_K_EDGES

        metrics_path = out / "eval.json"
        roc_path = out / "roc.csv"
        assert main(["evaluate", "--features", features, "--labels", labels,
                     "--n-trees", "30", "--seed", "3", "--folds", "5",
                     "--metrics-out", str(metrics_path), "--roc-out", str(roc_path)]) == 0
        payload = json.loads(metrics_path.read_text())
        assert payload["auc"] == metrics["classifier"]["ratio_forest"]["auc"]
        assert len(payload["fold_aucs"]) == 5
        assert roc_path.read_bytes() == (run_dir / "roc_ratio.csv").read_bytes()

        assert main(["evaluate", "--features", features, "--labels", labels,
                     "--feature-set", "pc", "--metrics-out", str(out / "pc.json")]) == 0
        pc = json.loads((out / "pc.json").read_text())
        assert pc["auc"] == metrics["classifier"]["ratio_scalar_pc"]["auc"]

        ablate_path = out / "ablate.csv"
        assert main(["ablate", "--features", features, "--labels", labels,
                     "--folds", "3", "--n-trees", "5", "--seed", "1",
                     "--out", str(ablate_path)]) == 0
        with open(ablate_path) as fh:
            rows = fh.read().strip().splitlines()
        assert len(rows) == 16  # header + 15 subsets

    written = sorted(path.name for path in (tmp_path / "mle").iterdir())
    assert written == ["ablate.csv", "eval.json", "pc.json", "roc.csv", "topk_edges.csv"]
    for name in written:
        assert (tmp_path / "counts" / name).read_bytes() == (tmp_path / "mle" / name).read_bytes()


@pytest.mark.parametrize("command", ["train", "evaluate", "ablate"])
def test_unswept_labeled_tuple_names_both_files(run_dir, tmp_path, capsys, command):
    """Features swept to lag 3 against labels up to lag 8: the error names
    the labels, the first labeled tuple the features lack, and the features."""
    with open(run_dir / "counts.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    features = tmp_path / "counts.csv"
    with open(features, "w", newline="") as fh:
        csv.writer(fh).writerows(r for r in rows if r[2] == "lag" or int(r[2]) <= 3)
    labels = run_dir / "dataset.csv"
    with open(labels, newline="") as fh:
        missing = next((c, e, int(lag)) for c, e, lag, *_ in list(csv.reader(fh))[1:] if int(lag) > 3)
    out = {"train": "--out", "evaluate": "--metrics-out", "ablate": "--out"}[command]
    assert main([command, "--features", str(features), "--labels", str(labels),
                 "--n-trees", "5", out, str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        f"nexica: {command}: {labels}: dataset tuple {missing} was not swept in {features}\n"
    )
    assert not (tmp_path / "out").exists()


def test_run_and_report_commands(corpus, tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(make_config(corpus, tmp_path / "out")))
    assert main(["run", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "forest AUC (ratio set)" in out
    assert "planted edges recovered" in out

    assert main(["report", "--run", str(tmp_path / "out")]) == 0
    report = capsys.readouterr().out
    assert "run summary" in report

    # The p_c line counts from the run's mle.csv what an in-memory sweep gives.
    table = sweep([extract_events(s, 0.25) for s in load_speed_csv(corpus["speeds"])], 8, 0)
    with open(corpus["truth"], newline="") as fh:
        planted = {(c, e, int(lag)) for c, e, lag, _ in list(csv.reader(fh))[1:]}
    defined = [k for k in range(len(table)) if not np.isnan(table.p_c[k])]
    by_pc = sorted(defined, key=lambda k: -table.p_c[k])[:len(planted)]
    hits = sum(table.key(k) in planted for k in by_pc)
    assert hits > 0
    assert f"in top {len(planted)} by estimated p_c: {hits} of {len(planted)}\n" in report


def test_pipeline_determinism_byte_identical(corpus, tmp_path):
    m1 = run_pipeline(RunConfig(**make_config(corpus, tmp_path / "a")))
    m2 = run_pipeline(RunConfig(**make_config(corpus, tmp_path / "b")))
    assert m1 == m2
    for name in ("metrics.json", "counts.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_grid_search_single_cell_matches_run(corpus, tmp_path, capsys):
    out = tmp_path / "base"
    metrics = run_pipeline(RunConfig(**make_config(corpus, out)))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(make_config(corpus, tmp_path / "grid_out")))
    grid_csv = tmp_path / "grid.csv"
    assert main(["grid-search", "--config", str(cfg_path), "--alphas", "0.25",
                 "--taus", "0", "--out", str(grid_csv)]) == 0
    with open(grid_csv) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert float(rows[0]["ratio_auc"]) == metrics["classifier"]["ratio_forest"]["auc"]
    assert float(rows[0]["full_auc"]) == metrics["classifier"]["full_forest"]["auc"]


def test_grid_search_cells_match_their_runs(corpus, tmp_path, capsys):
    """Across cells of several alphas and taus, the per-alpha events, the
    per-tau sweeps and the shared ratio and full sets give each cell the AUCs
    of a run at its (alpha, tau)."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(make_config(corpus, "", n_trees=8, seed=2)))
    grid_csv = tmp_path / "grid.csv"
    assert main(["grid-search", "--config", str(cfg_path), "--alphas", "0.2,0.3",
                 "--taus", "0,2", "--out", str(grid_csv)]) == 0
    with open(grid_csv) as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["alpha"], r["tau"]) for r in rows] == [
        ("0.2", "0"), ("0.2", "2"), ("0.3", "0"), ("0.3", "2")]
    for r in rows:
        out = tmp_path / f"run_{r['alpha']}_{r['tau']}"
        run_pipeline(RunConfig(**make_config(corpus, out, n_trees=8, seed=2,
                                             alpha=float(r["alpha"]), tau=int(r["tau"]))))
        metrics = json.loads((out / "metrics.json").read_text())["classifier"]
        assert float(r["ratio_auc"]) == metrics["ratio_forest"]["auc"], r
        assert float(r["full_auc"]) == metrics["full_forest"]["auc"], r


def test_grid_search_checks_its_config_before_reading_the_speeds(
    corpus, tmp_path, capsys, monkeypatch
):
    def unread(path):
        raise AssertionError(f"read {path}")

    monkeypatch.setattr("nexica.pipeline.load_speed_csv", unread)
    cfg_path = tmp_path / "config.json"
    # The config's own settings, then every (alpha, tau) cell it sweeps.
    for settings, alphas, taus, message in [
        ({"folds": 1}, "0.25", "0", "folds must be >= 2"),
        ({}, "0.25,0.3", "0,-1", "tau must be >= 0, got -1"),
        ({}, "0.25,0", "0", "alpha must be > 0, got 0.0"),
    ]:
        cfg_path.write_text(json.dumps(make_config(corpus, "", **settings)))
        assert main(["grid-search", "--config", str(cfg_path), "--alphas", alphas,
                     "--taus", taus, "--out", str(tmp_path / "grid.csv")]) == 1
        assert capsys.readouterr().err == f"nexica: grid-search: {message}\n"
        assert list(tmp_path.iterdir()) == [cfg_path]


def test_grid_search_honours_full_dataset_cv(corpus, tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(
        make_config(corpus, tmp_path / "grid_out", n_trees=5, full_dataset_cv=False)
    ))
    grid_csv = tmp_path / "grid.csv"
    assert main(["grid-search", "--config", str(cfg_path), "--alphas", "0.25",
                 "--taus", "0", "--out", str(grid_csv)]) == 0
    with open(grid_csv) as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["ratio_auc"] != "" and rows[0]["full_auc"] == ""


def test_grid_search_needs_no_out_dir(corpus, tmp_path, capsys):
    """A grid search writes only its CSV, so its config may omit ``out_dir``."""
    cfg = make_config(corpus, "", n_trees=5)
    del cfg["out_dir"]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    grid_csv = tmp_path / "grid.csv"
    assert main(["grid-search", "--config", str(cfg_path), "--alphas", "0.25",
                 "--taus", "0", "--out", str(grid_csv)]) == 0
    with open(grid_csv) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1 and rows[0]["ratio_auc"] != "" and rows[0]["full_auc"] != ""
    assert sorted(path.name for path in tmp_path.iterdir()) == ["config.json", "grid.csv"]


def test_run_without_out_dir_exits_1(corpus, tmp_path, capsys):
    cfg = make_config(corpus, "")
    del cfg["out_dir"]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == "nexica: run: config.out_dir is required\n"
    assert list(tmp_path.iterdir()) == [cfg_path]


def test_run_without_full_dataset_cv(corpus, run_dir, tmp_path, capsys):
    """With ``full_dataset_cv`` off a run skips the full set's cross-validation
    alone: the ratio set's results, the final model and its ranked edges keep
    the bytes of the run with it on."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(make_config(corpus, tmp_path / "out", full_dataset_cv=False)))
    assert main(["run", "--config", str(cfg_path)]) == 0
    report = capsys.readouterr().out
    assert "forest AUC (ratio set)" in report and "full set" not in report

    out = tmp_path / "out"
    assert not (out / "roc_full.csv").exists()
    full_on = json.loads((run_dir / "metrics.json").read_text())["classifier"]
    full_off = json.loads((out / "metrics.json").read_text())["classifier"]
    assert "full_forest" in full_on and "full_forest" not in full_off
    assert full_off == {k: v for k, v in full_on.items() if k != "full_forest"}
    for name in ("topk_edges.csv", "roc_ratio.csv"):
        assert (out / name).read_bytes() == (run_dir / name).read_bytes(), name


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"thread_count": 1}, "unknown config keys: ['thread_count']"),
        ({"l_max": "8"}, "config.l_max: expected int, got '8'"),
        ({"n_trees": True}, "config.n_trees: expected int, got True"),
        ({"alpha": "0.25"}, "config.alpha: expected float"),
        ({"truth": 3}, "config.truth: expected str | None"),
        ({"full_dataset_cv": 1}, "config.full_dataset_cv: expected bool"),
        (None, "config must be a JSON object"),
        ({"alpha": 0.0}, "alpha must be > 0, got 0.0"),
        ({"tau": -1}, "tau must be >= 0, got -1"),
        ({"l_max": 0}, "l_max must be >= 1, got 0"),
        ({"min_completeness": 2}, "min_completeness 2 outside [0, 1]"),
        ({"ratio": 0}, "ratio must be >= 1"),
        ({"n_trees": 0}, "n_trees must be >= 1"),
        ({"folds": 1}, "folds must be >= 2"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
    ],
    ids=["thread_count", "str-int", "bool-int", "str-float", "int-path", "int-bool", "not-object",
         "alpha", "tau", "l_max", "min_completeness", "ratio", "n_trees", "folds", "seed"],
)
def test_run_rejects_bad_config_values(corpus, tmp_path, capsys, edit, message):
    cfg_path = tmp_path / "config.json"
    config = [1, 2] if edit is None else dict(make_config(corpus, tmp_path / "out"), **edit)
    cfg_path.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg_path)]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv", [["pairs", "--events", "e.csv", "--slots", "10", "--out", "c.csv", "--threads", "2"],
             ["run", "--config", "config.json", "--threads", "2"],
             ["train", "--features", "mle.csv", "--labels", "dataset.csv",
              "--out", "topk_edges.csv", "--model-out", "m.json"],
             *(["run", "--config", "config.json", flag, "2"]
               for flag in ("--alpha", "--tau", "--ratio", "--seed", "--n-trees"))],
    ids=["pairs", "run", "train-model-out",
         "run-alpha", "run-tau", "run-ratio", "run-seed", "run-n-trees"],
)
def test_threads_flag_is_rejected(argv, capsys):
    """A removed flag (``--threads``, ``train --model-out``, a method setting
    of ``run``, which its config file holds) is an argparse error."""
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "evaluate", "ablate", "run", "grid-search"])
def test_negative_seed_exits_1_naming_the_command(corpus, run_dir, tmp_path, capsys, command):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(make_config(corpus, tmp_path / "out", seed=-1, n_trees=5)))
    inputs = ["--features", str(run_dir / "mle.csv"), "--labels", str(run_dir / "dataset.csv"),
              "--seed", "-1", "--n-trees", "5"]
    argv = {
        "train": ["train", *inputs, "--out", str(tmp_path / "topk.csv")],
        "evaluate": ["evaluate", *inputs, "--metrics-out", str(tmp_path / "eval.json")],
        "ablate": ["ablate", *inputs, "--out", str(tmp_path / "ablate.csv")],
        "run": ["run", "--config", str(cfg_path)],
        "grid-search": ["grid-search", "--config", str(cfg_path), "--alphas", "0.25",
                        "--taus", "0", "--out", str(tmp_path / "grid.csv")],
    }[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"nexica: {command}: ") and "seed must be >= 0, got -1" in err


def test_config_accepts_int_as_float_and_null_truth(corpus, tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(make_config(corpus, tmp_path / "out", alpha=1, truth=None)))
    config = RunConfig.from_file(cfg_path, tau=2)
    assert (config.alpha, config.truth, config.tau) == (1, None, 2)


def test_run_and_report_name_the_line_of_a_malformed_truth_file(corpus, tmp_path, capsys):
    truth = tmp_path / "truth.csv"
    truth.write_text("cause,effect,lag,p_c\nS001,S000,1,0.6\nS002,S000,two,0.7\n")
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(make_config(corpus, tmp_path / "out", truth=str(truth),
                                               n_trees=5)))
    assert main(["run", "--config", str(cfg_path)]) == 1
    assert f"nexica: run: {truth}: line 3: invalid literal" in capsys.readouterr().err
    assert main(["report", "--run", str(tmp_path / "out")]) == 1
    assert f"nexica: report: {truth}: line 3:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"p_s": "x"}, "spec.p_s: expected float, got 'x'"),
        ({"bogus": 1}, "unknown spec keys: ['bogus']"),
        ({"station_spacing_km": 2.0}, "unknown spec keys: ['station_spacing_km']"),
        ({"edges": [[1, 0, "2", 0.5]]}, "spec.edges: expected"),
        ({"edges": [[1, 0, 2]]}, "spec.edges: expected"),
        ({"n_stations": None}, "missing spec keys: ['n_stations']"),
        ({"start_time": "2024-01-01T00:00:00"}, "unknown spec keys: ['start_time']"),
        ({"base_speed": 70.0}, "unknown spec keys: ['base_speed']"),
        ({"n_slots": 10**20}, f"n_slots must be in 1..{MAX_WINDOW}, got {10**20}"),
    ],
    ids=["str-float", "unknown-key", "removed-key", "str-lag", "short-edge", "missing-key",
         "removed-start-time", "removed-base-speed", "huge-n-slots"],
)
def test_synth_rejects_bad_spec_values(tmp_path, capsys, edit, message):
    spec = {"n_stations": 3, "n_slots": 100, "p_s": 0.1, **edit}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({k: v for k, v in spec.items() if v is not None}))
    assert main(["synth", "--spec", str(path), "--out", str(tmp_path / "out")]) == 1
    assert f"nexica: synth: {path}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, value", [("--alphas", "0.25,x"), ("--taus", "0,0.5")])
def test_grid_search_rejects_a_bad_list_item(tmp_path, capsys, flag, value):
    lists = {"--alphas": "0.25", "--taus": "0", flag: value}
    with pytest.raises(SystemExit) as info:
        main(["grid-search", "--config", str(tmp_path / "config.json"),
              *(arg for item in lists.items() for arg in item), "--out", str(tmp_path / "g.csv")])
    assert info.value.code == 2
    assert f"argument {flag}: invalid comma-separated" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, content, message",
    [
        (["events", "--alpha", "0.25", "--out", "e.csv", "--speeds"],
         b"station_id,timestamp_iso8601,mean_speed,imputed\na,2024-01-01T00:00:00,x,0\n",
         "line 2: bad speed 'x'"),
        (["events", "--alpha", "0.25", "--out", "e.csv", "--speeds"],
         b"station_id,timestamp_iso8601,mean_speed,imputed\n"
         b"a,2024-01-01T00:00:00+00:00,60,0\na,2024-01-01T00:05:00+00:02:30,60,0\n",
         "line 3: station a: timestamp 2024-01-01T00:05:00+00:02:30 not on the 5-minute grid "
         "anchored at 2024-01-01T00:00:00+00:00"),
        (["mle", "--out", "m.csv", "--counts"], b"\xff\xfecause,effect\n", "not UTF-8 text"),
        (["mle", "--out", "m.csv", "--counts"],
         b"cause,effect,lag,a00,a01,a10,a11\na,b,1," + b"x" * 200_000 + b"\n",
         "line 2: field larger than field limit"),
        (["mle", "--out", "m.csv", "--counts"],
         b"cause,effect,lag,a00,a01,a10,a11\na,b,1,0,0,0,0\n",
         f"line 2: window 0 outside 1..{MAX_WINDOW}"),
        (["run", "--config"], b"", "Expecting value"),
    ],
    ids=["bad-speed", "off-grid-aware", "not-utf8", "long-field", "zero-window", "empty-config"],
)
def test_bad_input_exits_1_naming_the_file(tmp_path, monkeypatch, capsys, argv, content, message):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "input"
    path.write_bytes(content)
    assert main(argv + [str(path)]) == 1
    assert f"nexica: {argv[0]}: {path}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("slots", [0, MAX_WINDOW + 1, 2**40])
def test_slot_count_outside_the_window_bound_exits_1_before_reading(tmp_path, capsys, slots):
    """The events file does not exist: the bound is checked before it is read."""
    assert main(["pairs", "--events", str(tmp_path / "nope.csv"), "--slots", str(slots),
                 "--out", str(tmp_path / "counts.csv")]) == 1
    message = f"nexica: pairs: slots must be in 1..{MAX_WINDOW}, got {slots}"
    assert message in capsys.readouterr().err
    assert not (tmp_path / "counts.csv").exists()


def test_out_of_memory_exits_1_naming_the_command(corpus, tmp_path, monkeypatch, capsys):
    def label_pairs(*args):
        raise MemoryError("Unable to allocate 8.00 TiB")

    monkeypatch.setattr(cli, "label_pairs", label_pairs)
    assert main(["ground-truth", "--meta", corpus["meta"], "--drive-times",
                 corpus["drive_times"], "--out", str(tmp_path / "dataset.csv")]) == 1
    assert ("nexica: ground-truth: out of memory (Unable to allocate 8.00 TiB)"
            in capsys.readouterr().err)


def test_mle_rejects_a_negative_tau(tmp_path, capsys):
    counts = tmp_path / "counts.csv"
    counts.write_text("cause,effect,lag,a00,a01,a10,a11\n")
    out = tmp_path / "mle.csv"
    assert main(["mle", "--counts", str(counts), "--tau", "-1", "--out", str(out)]) == 1
    assert "nexica: mle: tau must be >= 0, got -1" in capsys.readouterr().err


def test_missing_input_exits_nonzero(tmp_path, capsys):
    rc = main(["events", "--speeds", str(tmp_path / "nope.csv"),
               "--alpha", "0.25", "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert "nexica: events:" in capsys.readouterr().err


def test_report_incomplete_dir(tmp_path, capsys):
    rc = main(["report", "--run", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "metrics.json" in err and "config.json" in err


@pytest.mark.parametrize("metrics", ["[]", "{}", '{"n_stations": "x"}'])
def test_report_rejects_metrics_of_the_wrong_shape(tmp_path, capsys, metrics):
    (tmp_path / "metrics.json").write_text(metrics)
    (tmp_path / "config.json").write_text("{}")
    assert main(["report", "--run", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert f"nexica: report: {tmp_path / 'metrics.json'}: not the metrics of a run" in err


def test_run_without_positives_skips_evaluation(tmp_path, capsys):
    # four stations, each on its own road and direction: every tuple is
    # an immediate negative and no ground-truth positives exist
    start = datetime(2024, 1, 1)
    n = 2 * 2016
    series = []
    meta = []
    roads = [("I-5", "N"), ("I-10", "E"), ("CA-1", "S"), ("US-101", "W")]
    rng = np.random.default_rng(0)
    for k, (road, d) in enumerate(roads):
        speeds = 60.0 + rng.normal(0, 1, n).clip(-5, 5)
        series.append(SpeedSeries(f"s{k}", start, speeds, np.zeros(n, dtype=bool)))
        meta.append(StationMeta(f"s{k}", road, d, 0.0, float(k), ""))
    minutes = rng.uniform(60, 200, (4, 4))
    np.fill_diagonal(minutes, 0.0)
    write_speed_csv(tmp_path / "speeds.csv", series)
    write_station_meta(tmp_path / "meta.csv", meta)
    write_drive_times(tmp_path / "drive.csv", DriveTimeMatrix([m.station_id for m in meta], minutes))

    config = RunConfig(
        speeds=str(tmp_path / "speeds.csv"), meta=str(tmp_path / "meta.csv"),
        drive_times=str(tmp_path / "drive.csv"), out_dir=str(tmp_path / "out"),
        n_trees=5, seed=0,
    )
    metrics = run_pipeline(config)
    assert metrics["ground_truth"]["positives"] == 0
    assert "skipped_reason" in metrics["classifier"]

    # Without negatives the ratio set has no shortest negative drive time:
    # metrics.json holds null, not NaN, which is not JSON.
    def no_constant(name):
        raise ValueError(f"{name} is not JSON")

    written = json.loads((tmp_path / "out" / "metrics.json").read_text(), parse_constant=no_constant)
    assert written["ground_truth"]["min_negative_drive_time"] is None
    assert main(["report", "--run", str(tmp_path / "out")]) == 0
    report = capsys.readouterr().out
    assert "evaluation skipped" in report
    assert "ratio dataset: n=0  min negative drive time=none\n" in report
    gt_csv = tmp_path / "dataset.csv"
    assert main(["ground-truth", "--meta", str(tmp_path / "meta.csv"),
                 "--drive-times", str(tmp_path / "drive.csv"), "--out", str(gt_csv)]) == 0
    assert capsys.readouterr().out.endswith("; min negative drive time none\n")


def test_station_missing_from_the_drive_times_is_dropped(corpus, tmp_path, caplog):
    series = load_speed_csv(corpus["speeds"])
    series.append(SpeedSeries("S999", series[0].start_time, np.full(N_SLOTS, 60.0),
                              np.zeros(N_SLOTS, dtype=bool)))
    speeds = tmp_path / "speeds.csv"
    write_speed_csv(speeds, series)
    config = RunConfig(**make_config(corpus, tmp_path / "out", speeds=str(speeds), n_trees=5))
    metrics = run_pipeline(config)
    assert metrics["n_stations"] == 10
    assert "station S999 missing from drive-time matrix" in caplog.text
    assert "S999" not in (tmp_path / "out" / "events.csv").read_text()


def test_station_without_metadata_exits_1(corpus, tmp_path, capsys):
    """A speeds station without a meta.csv row is an error, not a dropped station."""
    with open(corpus["meta"], "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    meta = tmp_path / "meta.csv"
    meta.write_bytes(b"".join(lines[:-1]))  # S009's row
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(make_config(corpus, tmp_path / "out", meta=str(meta))))
    assert main(["run", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == "nexica: run: [ingest] station S009 has no metadata\n"


def test_misaligned_stations_fail_with_stage_name(tmp_path):
    start = datetime(2024, 1, 1)
    s1 = SpeedSeries("a", start, np.full(2016, 60.0), np.zeros(2016, dtype=bool))
    s2 = SpeedSeries("b", start, np.full(2020, 60.0), np.zeros(2020, dtype=bool))
    write_speed_csv(tmp_path / "speeds.csv", [s1, s2])
    write_station_meta(tmp_path / "meta.csv", [
        StationMeta("a", "I-5", "N", 0.0, 0.0, ""),
        StationMeta("b", "I-5", "N", 0.0, 0.1, ""),
    ])
    write_drive_times(tmp_path / "drive.csv", DriveTimeMatrix(
        ["a", "b"], np.array([[0.0, 5.0], [7.0, 0.0]])
    ))
    config = RunConfig(
        speeds=str(tmp_path / "speeds.csv"), meta=str(tmp_path / "meta.csv"),
        drive_times=str(tmp_path / "drive.csv"), out_dir=str(tmp_path / "out"),
    )
    from nexica.errors import StageError

    with pytest.raises(StageError, match="ingest"):
        run_pipeline(config)
