"""Command-line interface; each subcommand wraps one pipeline stage."""

from __future__ import annotations

import argparse
import math
import sys

from . import classify as cls
from . import pipeline as pl
from .errors import ConsistencyError, NexicaError, ParameterError
from .groundtruth import DatasetSpec, build_dataset, full_dataset, label_pairs
from .ingest import load_drive_times, load_speed_csv, load_station_meta, write_csv
from .events import extract_events
from .synth import SynthSpec, write_dataset


FEATURE_SETS = {
    "counts": pl.COUNT_MASK,
    "counts+pc": pl.COUNT_MASK + (pl.PC_COLUMN,),
    "pc": (pl.PC_COLUMN,),
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (NexicaError, OSError) as exc:
        print(f"nexica: {args.command}: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        detail = str(exc) or type(exc).__name__
        print(f"nexica: {args.command}: out of memory ({detail})", file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nexica",
        description="Event-based causal discovery for road-sensor speed series",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("events", help="extract slowdown leading edges from speeds")
    p.add_argument("--speeds", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_events)

    p = sub.add_parser("pairs", help="correspondence counts for all pairs and lags")
    p.add_argument("--events", required=True)
    p.add_argument("--slots", type=int, required=True, help="series length in slots")
    p.add_argument("--lmax", type=int, default=8)
    p.add_argument("--tau", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_pairs)

    p = sub.add_parser("mle", help="append causal-probability estimates to counts")
    p.add_argument("--counts", required=True)
    p.add_argument("--tau", type=int, default=0,
                   help="checked to be >= 0; the estimates do not depend on it")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_mle)

    p = sub.add_parser("ground-truth", help="rule-derived labels for candidate tuples")
    p.add_argument("--meta", required=True)
    p.add_argument("--drive-times", required=True)
    p.add_argument("--lmax", type=int, default=8)
    p.add_argument("--ratio", type=int, default=1)
    p.add_argument("--full", action="store_true", help="emit the full dataset instead")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_ground_truth)

    p = sub.add_parser("synth", help="generate a synthetic corpus with planted edges")
    p.add_argument("--spec", required=True, help="JSON spec file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("train", help="train a forest and write the ranked causal edges")
    _add_model_args(p)
    p.add_argument("--out", required=True, help="topk_edges.csv, as nexica run writes it")
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("evaluate", help="cross-validated ROC/AUC of the forest")
    _add_model_args(p)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--metrics-out", required=True)
    p.add_argument("--roc-out")
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("ablate", help="AUC for every subset of the four counts")
    p.add_argument("--features", required=True, help="counts.csv or mle.csv")
    p.add_argument("--labels", required=True, help="dataset.csv from ground-truth")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--n-trees", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_ablate)

    p = sub.add_parser("grid-search", help="pipeline AUC over an (alpha, tau) grid")
    p.add_argument("--config", required=True)
    p.add_argument("--alphas", required=True, type=_comma_list(float),
                   help="comma-separated, e.g. 0.05,0.25")
    p.add_argument("--taus", required=True, type=_comma_list(int),
                   help="comma-separated, e.g. 0,1")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_grid_search)

    p = sub.add_parser("report", help="summarize a completed run directory")
    p.add_argument("--run", required=True)
    p.set_defaults(handler=cmd_report)

    p = sub.add_parser("run", help="full pipeline from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir")
    p.set_defaults(handler=cmd_run)

    return parser


def _comma_list(kind):
    """An argparse ``type``; its ``__name__`` goes into argparse's error."""
    def parse(text: str) -> list:
        return [kind(v) for v in text.split(",") if v]
    parse.__name__ = f"comma-separated {kind.__name__}"
    return parse


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--features", required=True, help="counts.csv or mle.csv")
    p.add_argument("--labels", required=True, help="dataset.csv from ground-truth")
    p.add_argument(
        "--feature-set",
        choices=list(FEATURE_SETS),
        default="counts",
    )
    p.add_argument("--n-trees", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)


def cmd_events(args) -> int:
    series = load_speed_csv(args.speeds)
    extracted = [extract_events(s, args.alpha) for s in series]
    pl.write_events_csv(args.out, extracted)
    n = sum(s.count() for s in extracted)
    print(f"{len(extracted)} stations, {n} events -> {args.out}")
    return 0


def cmd_pairs(args) -> int:
    series = pl.read_events_csv(args.events, args.slots)
    table = pl.sweep(series, args.lmax, args.tau)
    pl.write_counts_csv(args.out, table)
    print(f"{len(table)} tuples -> {args.out}")
    return 0


def cmd_mle(args) -> int:
    if args.tau < 0:
        raise ParameterError(f"tau must be >= 0, got {args.tau}")
    table = pl.read_counts_table(args.counts)
    pl.write_mle_csv(args.out, table)
    print(f"{len(table)} estimates -> {args.out}")
    return 0


def cmd_ground_truth(args) -> int:
    meta = load_station_meta(args.meta)
    matrix = load_drive_times(args.drive_times)
    spec = DatasetSpec(ratio=args.ratio, l_max=args.lmax)
    truth = label_pairs(meta, matrix, spec)
    dataset = full_dataset(truth) if args.full else build_dataset(truth, args.ratio)
    pl.write_dataset_csv(args.out, dataset)
    pos = len(dataset.pairs.positives())
    gap = dataset.min_negative_drive_time  # NaN without negatives
    print(
        f"{len(dataset.pairs)} labeled tuples ({pos} positive) -> {args.out}; "
        f"min negative drive time {'none' if math.isnan(gap) else f'{gap:.1f} min'}"
    )
    return 0


def cmd_synth(args) -> int:
    spec = SynthSpec.from_json(args.spec)
    paths = write_dataset(spec, args.out)
    print("\n".join(f"{k}: {v}" for k, v in sorted(paths.items())))
    return 0


def _labeled_features(args):
    """The ``--features`` table, and the feature rows and labels of the
    ``--labels`` tuples in it; a labeled tuple the table lacks names both files."""
    table = pl.read_counts_table(args.features)
    try:
        x, y = pl.dataset_features(table, pl.read_dataset_csv(args.labels))
    except ConsistencyError as exc:
        raise ConsistencyError(f"{args.labels}: {exc} in {args.features}") from None
    return table, x, y


def cmd_train(args) -> int:
    table, x, y = _labeled_features(args)
    model = cls.train_forest(
        x, y, n_trees=args.n_trees, seed=args.seed, feature_mask=FEATURE_SETS[args.feature_set]
    )
    pl.write_topk_csv(args.out, table, model)
    print(f"trained {model.n_trees} trees (hash {model.model_hash()[:12]}) -> {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    _, x, y = _labeled_features(args)
    if args.feature_set == "pc":
        roc = cls.roc_auc(x[:, pl.PC_COLUMN], y)
        payload = {"feature_set": args.feature_set, "auc": roc.auc}
    else:
        roc = cls.cross_validate(
            x, y, folds=args.folds, n_trees=args.n_trees, seed=args.seed,
            feature_mask=FEATURE_SETS[args.feature_set],
        )
        payload = {
            "feature_set": args.feature_set,
            "auc": roc.auc,
            "auc_std": roc.auc_std,
            "fold_aucs": roc.fold_aucs,
        }
    pl.dump_json(args.metrics_out, payload)
    if args.roc_out:
        pl.write_roc_csv(args.roc_out, roc)
    print(f"AUC {roc.auc:.4f} -> {args.metrics_out}")
    return 0


def cmd_ablate(args) -> int:
    _, x, y = _labeled_features(args)
    rows = cls.feature_ablation(
        x[:, pl.COUNT_MASK], y, folds=args.folds, n_trees=args.n_trees, seed=args.seed
    )
    write_csv(args.out, ["features", "auc"], (["+".join(names), repr(auc)] for names, auc in rows))
    best = max(rows, key=lambda r: r[1])
    print(f"15 subsets -> {args.out}; best {'+'.join(best[0])} at {best[1]:.4f}")
    return 0


def cmd_grid_search(args) -> int:
    config = pl.RunConfig.from_file(args.config)
    rows = pl.grid_search(args.alphas, args.taus, config)
    pl.write_grid_csv(args.out, rows)
    for r in rows:
        ratio_auc = "-" if r["ratio_auc"] is None else f"{r['ratio_auc']:.4f}"
        full_auc = "-" if r["full_auc"] is None else f"{r['full_auc']:.4f}"
        print(
            f"alpha={r['alpha']:<5} tau={r['tau']:<2} ratio_auc={ratio_auc} "
            f"full_auc={full_auc} ({r['seconds']}s)"
        )
    return 0


def cmd_report(args) -> int:
    print(pl.report(args.run))
    return 0


def cmd_run(args) -> int:
    config = pl.RunConfig.from_file(args.config, out_dir=args.out_dir)
    pl.run_pipeline(config)
    print(pl.report(config.out_dir))
    return 0


if __name__ == "__main__":
    sys.exit(main())
