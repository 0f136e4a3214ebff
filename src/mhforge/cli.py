"""Command-line pipeline: generate data, build variants, train, evaluate, analyze, bench, compare.

Every command that writes files also writes a run manifest (run_<command>.json)
recording the arguments, the seed, and the artifact paths, so a run directory
is self-describing. MHFORGE_THREADS (default 1) caps BLAS thread pools; it
must be set before numpy loads, which is why it is applied at import time.
A value that is not a positive integer caps nothing, and `main` refuses it.
"""

from __future__ import annotations

import os

_DEFAULT_THREADS = os.environ.get("MHFORGE_THREADS", "1")
_THREADS_VALID = _DEFAULT_THREADS.isascii() and _DEFAULT_THREADS.isdigit() and int(_DEFAULT_THREADS) >= 1
if _THREADS_VALID:
    for _var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    ):
        os.environ.setdefault(_var, _DEFAULT_THREADS)

import argparse
import contextlib
import dataclasses
import json
import sys
import time

from . import __version__
from .analysis import REPORT_FORMATS, VariantMetrics, compare_variants, count_macc, sum_breakdowns, write_report
from .bench import measure_latency, timings_csv
from .dataset import (
    SyntheticConfig,
    generate_synthetic,
    load_images,
    parse_categories,
    parse_manifest,
    serialize_categories,
    serialize_manifest,
    with_base,
)
from .errors import MhforgeError
from .fileio import write_atomic
from .modelfile import load_model, new_bundle, save_model
from .netspec import bind_categories, parse_netspec, serialize_netspec
from .tensor_ops import Tensor
from .surgery import (
    HARD_CODED,
    PROPOSED,
    TWO_MODEL,
    attach_heads,
    build_hard_coded,
    build_two_model,
    convert_manifest_hc,
    hc_categories,
    parse_hc_map,
    serialize_hc_map,
)
from .training import TrainConfig, evaluate, split_entries, train

VARIANT_CHOICES = ("2m", "hc", "proposed")  # build --variant: 2m builds two_model, hc hard_coded


def _write_text(path: str, text: str) -> None:
    write_atomic(path, [text.encode("utf-8")])


def _write_json(path: str, payload) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise MhforgeError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None


def _run_manifest(out_dir: str, command: str, args: argparse.Namespace, artifacts: list[str]) -> None:
    config = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    payload = {
        "command": command,
        "version": __version__,
        "seed": getattr(args, "seed", None),
        "config": config,
        "artifacts": [os.path.relpath(p, out_dir) for p in artifacts],
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    _write_json(os.path.join(out_dir, f"run_{command.replace('-', '_')}.json"), payload)


def _load_manifest_entries(manifest_path: str, categories):
    entries = parse_manifest(_read_text(manifest_path), categories)
    return with_base(entries, os.path.dirname(os.path.abspath(manifest_path)))


def _apply_side(entries, side: str, split_fraction: float, seed: int):
    if side == "all":
        return entries
    config = TrainConfig(split_fraction=split_fraction, seed=seed)  # refuses the splits `train` refuses
    train_side, val_side = split_entries(entries, config.split_fraction, config.seed)
    return train_side if side == "train" else val_side


def cmd_gen_data(args: argparse.Namespace) -> int:
    config = SyntheticConfig(
        image_size=args.image_size,
        samples_per_combo=args.samples,
        noise_std=args.noise,
        seed=args.seed,
    )
    os.makedirs(args.out, exist_ok=True)
    entries, cats = generate_synthetic(config, args.out)
    manifest_path = os.path.join(args.out, "manifest.txt")
    categories_path = os.path.join(args.out, "categories.txt")
    _write_text(manifest_path, serialize_manifest(entries))
    _write_text(categories_path, serialize_categories(cats))
    _run_manifest(args.out, "gen-data", args, [manifest_path, categories_path])
    print(f"wrote {len(entries)} images, manifest, and categories to {args.out}")
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    backbone = parse_netspec(_read_text(args.netspec))
    cats = parse_categories(_read_text(args.categories))
    feature_layer = args.feature_layer or backbone.layers[-1].name
    os.makedirs(args.out, exist_ok=True)
    artifacts = []
    if args.variant == "proposed":
        spec = attach_heads(backbone, cats, feature_layer)
        path = os.path.join(args.out, "model.ns")
        _write_text(path, serialize_netspec(spec))
        artifacts.append(path)
    elif args.variant == "2m":
        for spec in build_two_model(backbone, cats, feature_layer):
            name = spec.categories.names[0]
            path = os.path.join(args.out, f"model_{name}.ns")
            _write_text(path, serialize_netspec(spec))
            artifacts.append(path)
    else:
        entries = parse_manifest(_read_text(args.manifest), cats)
        spec, hc_map = build_hard_coded(backbone, cats, [e.labels for e in entries], feature_layer)
        spec_path = os.path.join(args.out, "model.ns")
        map_path = os.path.join(args.out, "hc_map.txt")
        _write_text(spec_path, serialize_netspec(spec))
        _write_text(map_path, serialize_hc_map(hc_map))
        artifacts += [spec_path, map_path]
    _run_manifest(args.out, "build", args, artifacts)
    print(f"wrote {len(artifacts)} file(s) to {args.out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    spec = parse_netspec(_read_text(args.netspec))
    cats = parse_categories(_read_text(args.categories))
    config = TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch,
        learning_rate=args.lr,
        momentum=args.momentum,
        seed=args.seed,
        split_fraction=args.split,
    )
    entries = _load_manifest_entries(args.manifest, cats)
    if args.hc_map:
        hc_map = parse_hc_map(_read_text(args.hc_map))
        cats, entries = hc_categories(cats, hc_map), convert_manifest_hc(entries, hc_map)
    bundle = new_bundle(bind_categories(spec, cats), seed=args.seed)
    bundle, log = train(bundle, entries, config, manifest_categories=cats)

    os.makedirs(args.out, exist_ok=True)
    stem = os.path.splitext(os.path.basename(args.netspec))[0]
    model_path = os.path.join(args.out, f"{stem}.mhf")
    log_path = os.path.join(args.out, f"{stem}_trainlog.csv")
    written = save_model(bundle, model_path)
    _write_text(log_path, log.to_csv())
    _run_manifest(args.out, "train", args, [model_path, log_path])
    if log.records:
        last = log.records[-1]
        summary = "  ".join(f"{c}={last.val_acc[c]:.3f}" for c in bundle.spec.categories.names)
        print(f"saved {model_path} ({written} bytes); final val accuracy: {summary}")
    else:
        print(f"saved {model_path} ({written} bytes); no epochs run")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    full_cats = parse_categories(_read_text(args.categories))
    entries = _load_manifest_entries(args.manifest, full_cats)
    entries = _apply_side(entries, args.side, args.split, args.seed)
    hc_map = parse_hc_map(_read_text(args.hc_map)) if args.hc_map else None
    payload: dict = {"categories": {}}
    scored_by: dict[str, str] = {}  # category -> the model file that scores it
    for model_path in args.model:
        bundle = load_model(model_path)
        cats = full_cats.names if hc_map else bundle.spec.categories.names
        for cat in cats:
            if cat in scored_by:
                raise MhforgeError(f"category {cat!r} is scored by both {scored_by[cat]} and {model_path}")
            scored_by[cat] = model_path
        scores = evaluate(bundle, entries, manifest_categories=full_cats, hc_map=hc_map)
        for cat in cats:
            payload["categories"][cat] = dict(zip(("loss", "accuracy"), scores[cat]))
        if hc_map:
            payload["combined"] = dict(zip(("loss", "accuracy"), scores[bundle.spec.categories.names[0]]))
    out_path = args.out or os.path.join(os.path.dirname(os.path.abspath(args.model[0])), "eval.json")
    _write_json(out_path, payload)
    _run_manifest(os.path.dirname(out_path), "eval", args, [out_path])
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    spec = parse_netspec(_read_text(args.netspec))
    if args.categories:
        spec = bind_categories(spec, parse_categories(_read_text(args.categories)))
    breakdown = count_macc(spec)
    payload = {
        "per_layer": [
            {"name": c.name, "kind": c.kind, "macc": c.macc, "params": c.params}
            for c in breakdown.layers
        ],
        "macc_total": breakdown.macc_total,
        "macc_trained": breakdown.macc_trained,
        "params_total": breakdown.params_total,
        "size_bytes": breakdown.size_bytes_estimate,
        "coverage": breakdown.coverage,
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        _write_text(args.out, text)
        _run_manifest(os.path.dirname(os.path.abspath(args.out)), "analyze", args, [args.out])
    print(text, end="")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    if args.limit < 1:
        raise MhforgeError(f"--limit must be >= 1, got {args.limit}")
    full_cats = parse_categories(_read_text(args.categories))
    entries = _load_manifest_entries(args.manifest, full_cats)[: args.limit]
    bundles = [load_model(p) for p in args.model]
    stacked = load_images(entries)
    images = [Tensor(stacked.data[i : i + 1]) for i in range(stacked.shape[0])]
    stats = measure_latency(bundles, images, args.repeats, args.variant)
    out_dir = args.out or os.path.dirname(os.path.abspath(args.model[0]))
    os.makedirs(out_dir, exist_ok=True)
    bench_path = os.path.join(out_dir, "bench.json")
    csv_path = os.path.join(out_dir, "timings.csv")
    _write_json(bench_path, dataclasses.asdict(stats))
    _write_text(csv_path, timings_csv(stats))
    _run_manifest(out_dir, "bench", args, [bench_path, csv_path])
    print(
        f"{stats.images} images x {stats.runs} runs: total {stats.total_seconds:.4f}s, "
        f"median {stats.median_ms:.3f}ms/run"
    )
    return 0


def _dir_breakdown(run_dir: str):
    models = sorted(
        os.path.join(run_dir, f) for f in os.listdir(run_dir) if f.endswith(".mhf")
    )
    if not models:
        raise MhforgeError(f"{run_dir}: no model files (*.mhf) found")
    return sum_breakdowns([count_macc(load_model(p).spec) for p in models])


@contextlib.contextmanager
def _run_file(path: str):
    """Yields a run file's JSON; text that is not JSON, or a field the block lacks or cannot use, names the file."""
    text = _read_text(path)
    try:
        yield json.loads(text)
    except KeyError as exc:
        raise MhforgeError(f"{path}: no {exc} field") from None
    except ZeroDivisionError:  # bench.json's images is the one divisor read
        raise MhforgeError(f"{path}: images is 0") from None
    except (AttributeError, TypeError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        raise MhforgeError(f"{path}: {type(exc).__name__}: {exc}") from None


def _dir_metrics(run_dir: str) -> VariantMetrics:
    accuracy: dict[str, float] = {}
    loss: dict[str, float] = {}
    latency_total = None
    latency_per_image = None
    eval_path = os.path.join(run_dir, "eval.json")
    if os.path.exists(eval_path):
        with _run_file(eval_path) as payload:
            for cat, cell in payload.get("categories", {}).items():
                accuracy[cat] = cell["accuracy"]
                loss[cat] = cell["loss"]
    bench_path = os.path.join(run_dir, "bench.json")
    if os.path.exists(bench_path):
        with _run_file(bench_path) as payload:
            latency_total = payload["total_seconds"]
            latency_per_image = payload["mean_ms"] / payload["images"]
    return VariantMetrics(accuracy, loss, latency_total, latency_per_image)


def cmd_compare(args: argparse.Namespace) -> int:
    dirs = {PROPOSED: args.proposed, TWO_MODEL: args.two_model, HARD_CODED: args.hard_coded}
    breakdowns = {kind: _dir_breakdown(d) for kind, d in dirs.items()}
    metrics = {kind: _dir_metrics(d) for kind, d in dirs.items()}
    report = compare_variants(breakdowns, metrics)
    os.makedirs(args.out, exist_ok=True)
    formats = tuple(REPORT_FORMATS) if args.format == "all" else (args.format,)
    artifacts = []
    for fmt in formats:
        path = os.path.join(args.out, f"report.{REPORT_FORMATS[fmt][0]}")
        write_report(report, fmt, path)
        artifacts.append(path)
    _run_manifest(args.out, "compare", args, artifacts)
    print(_read_text(artifacts[0]))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mhforge",
        description="Build, train, and cost-compare multi-head CNN classifier variants.",
    )
    parser.add_argument("--version", action="version", version=f"mhforge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate the synthetic shapes-and-positions dataset")
    p.add_argument("--out", required=True, help="output directory for images, manifest, categories")
    p.add_argument(
        "--image-size", type=int, default=SyntheticConfig.image_size, help="square image side (default %(default)s)"
    )
    p.add_argument(
        "--samples", type=int, default=SyntheticConfig.samples_per_combo, help="images per combo (default %(default)s)"
    )
    p.add_argument(
        "--noise", type=float, default=SyntheticConfig.noise_std, help="Gaussian pixel noise std (default %(default)s)"
    )
    p.add_argument("--seed", type=int, default=SyntheticConfig.seed, help="(default %(default)s)")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("build", help="derive a variant network description from a backbone")
    p.add_argument("--netspec", required=True, help="backbone network description file")
    p.add_argument("--categories", required=True, help="label categories file")
    p.add_argument("--variant", required=True, choices=VARIANT_CHOICES)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--manifest", help="training manifest (required for --variant hc)")
    p.add_argument("--feature-layer", help="backbone layer feeding the heads (default: last layer)")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("train", help="train a built variant and save the model file")
    p.add_argument("--netspec", required=True, help="variant network description file")
    p.add_argument("--categories", required=True, help="label categories file")
    p.add_argument("--manifest", required=True, help="training manifest")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--hc-map", help="hard-coded label map (hc variant only)")
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs, help="(default %(default)s)")
    p.add_argument("--batch", type=int, default=TrainConfig.batch_size, help="batch size (default %(default)s)")
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate, help="learning rate (default %(default)s)")
    p.add_argument("--momentum", type=float, default=TrainConfig.momentum, help="(default %(default)s)")
    p.add_argument("--seed", type=int, default=TrainConfig.seed, help="(default %(default)s)")
    p.add_argument(
        "--split", type=float, default=TrainConfig.split_fraction, help="training split fraction (default %(default)s)"
    )
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate saved model(s) against a manifest")
    p.add_argument("--model", required=True, action="append", help="model file; repeat for the two-model pair")
    p.add_argument("--categories", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--hc-map", help="decode hard-coded predictions back to per-category labels")
    p.add_argument("--side", choices=("all", "train", "val"), default="all", help="which split side to score")
    p.add_argument("--split", type=float, default=TrainConfig.split_fraction, help="as in train (default %(default)s)")
    p.add_argument("--seed", type=int, default=TrainConfig.seed, help="split seed, as in train (default %(default)s)")
    p.add_argument("--out", help="metrics JSON path (default: eval.json next to the first model)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("analyze", help="report per-layer MACC/parameter/size costs of a description")
    p.add_argument("--netspec", required=True)
    p.add_argument("--categories", help="bind label categories before sizing")
    p.add_argument("--out", help="write the JSON here as well as printing it")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("bench", help="measure forward-pass latency over test images")
    p.add_argument("--model", required=True, action="append", help="model file; repeat for the two-model pair")
    p.add_argument("--categories", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--limit", type=int, default=100, help="number of test images (default 100)")
    p.add_argument("--repeats", type=int, default=5, help="timed passes over the test set (default 5)")
    p.add_argument("--variant", default="", help="tag recorded in the stats")
    p.add_argument("--out", help="output directory (default: the first model's directory)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("compare", help="side-by-side cost and metric report over three run directories")
    p.add_argument("--proposed", required=True, help="run directory of the multi-head variant")
    p.add_argument("--two-model", required=True, help="run directory holding both single-head models")
    p.add_argument("--hard-coded", required=True, help="run directory of the merged-label variant")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("all", *REPORT_FORMATS), default="all")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not _THREADS_VALID:
        print(f"error: MHFORGE_THREADS must be a positive integer, got {_DEFAULT_THREADS!r}", file=sys.stderr)
        return 1
    if args.command == "build" and args.variant == "hc" and not args.manifest:
        parser.error("--variant hc requires --manifest (observed combinations come from data)")
    try:
        return args.func(args)
    except (MhforgeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
