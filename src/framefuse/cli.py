"""Command-line front end: gen, select, compress, bench, synth.

Every command is reproducible from its inputs and flags; primary output
files are written atomically and byte-identical across reruns. Exit codes:
0 success, 1 runtime or validation error, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections.abc import Iterable
from itertools import chain
from pathlib import Path

from .captions import (
    DEFAULT_RECORD_FRAMES,
    _records_json_parts,
    dataset_stats,
    load_clip_manifest,
    pack_clips,
)
from .errors import FrameFuseError, _read_json
from .features import (
    generate_synthetic,
    load_features,
    save_features,
    uniform_sample_indices,
    _atomic_write,
    _read_checked,
)
from .merge import STRATEGIES
from .pipeline import SELECTIONS, CompressConfig, _check_input_frames, bench, compress
from .select import SUPPLEMENT_MODES, select_scenes_bsm, select_scenes_kmeans


class _UsageError(Exception):
    """Bad command usage discovered after argparse (exit code 2)."""


def _emit_json(obj, output: str | None) -> None:
    _emit_text([json.dumps(obj, indent=2, sort_keys=True)], output)


def _emit_text(parts: Iterable[str], output: str | None) -> None:
    """Write the text *parts* and a newline to *output*, or to stdout."""
    if output:
        _atomic_write(Path(output), (part.encode() for part in chain(parts, ["\n"])))
        print(f"wrote {output}")
    else:
        sys.stdout.writelines(chain(parts, ["\n"]))


def _table(rows: list[dict], columns: list[str]) -> str:
    widths = {c: max(len(c), *(len(str(r[c])) for r in rows)) for c in columns}
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    lines = [header, "  ".join("-" * widths[c] for c in columns)]
    for r in rows:
        lines.append("  ".join(str(r[c]).ljust(widths[c]) for c in columns))
    return "\n".join(lines)


def _check_table_output(args) -> None:
    if args.format == "table" and args.output:
        raise _UsageError("--format table prints to stdout; it cannot be written with -o")


def cmd_gen(args) -> int:
    features = generate_synthetic(args.frames, args.patches, args.dim, args.scenes,
                                  args.noise, args.seed)
    save_features(features, args.output)
    print(f"wrote {args.output} shape={features.n_frames}x{features.n_patches}x{features.dim}")
    return 0


def cmd_select(args) -> int:
    # flags left unset take select_scenes_kmeans's defaults
    kmeans_opts = {name: getattr(args, name) for name in ("seed", "mode", "max_iters", "tol")
                   if getattr(args, name) is not None}
    if args.method == "bsm" and kmeans_opts:
        flags = ", ".join("--" + name.replace("_", "-") for name in kmeans_opts)
        raise _UsageError(f"--method bsm does not use {flags}")
    _check_table_output(args)
    features = load_features(args.input)
    if args.method == "kmeans":
        scene_set = select_scenes_kmeans(features, args.k, args.r, **kmeans_opts)
    else:
        scene_set = select_scenes_bsm(features, args.k, args.r)
    doc = scene_set.to_dict()
    if args.format == "table":
        rows = [
            {"scene": i, "representative": s["representative"],
             "members": " ".join(map(str, s["members"]))}
            for i, s in enumerate(doc["scenes"])
        ]
        print(_table(rows, ["scene", "representative", "members"]))
        for w in doc["warnings"]:
            print(f"warning: {w}", file=sys.stderr)
    else:
        _emit_json(doc, args.output)
    return 0


def cmd_compress(args) -> int:
    if args.weights is not None and args.merge != "fusion":
        raise _UsageError(f"--merge {args.merge} does not use --weights")
    input_frames = args.k * (args.r + 1) if args.frames is None else args.frames
    # One read of the file keeps only the frames compress samples. A count
    # outside the file's frames keeps none, yet the file is still read and
    # checked, so that a corrupt file is reported before the config or the
    # count is rejected.
    n_frames, features = _read_checked(
        args.input,
        lambda n: uniform_sample_indices(n, input_frames) if 1 <= input_frames <= n else ())
    cfg = CompressConfig(
        input_frames=input_frames,
        scenes_k=args.k,
        supplements_r=args.r,
        selection=args.select,
        merging=args.merge,
        seed=args.seed,
    )
    weights = None
    if args.weights is not None:
        weights = load_features(args.weights).data
    if features is None:  # a valid config here wants more frames than the file has
        _check_input_frames(cfg, n_frames)
    out = compress(features, cfg, weights)
    save_features(out, args.output)
    print(f"wrote {args.output} shape={out.n_frames}x{out.n_patches}x{out.dim}")
    return 0


def cmd_bench(args) -> int:
    _check_table_output(args)
    features = load_features(args.input)
    doc = _read_json(args.configs)
    if not isinstance(doc, list):
        raise _UsageError(f"{args.configs}: expected a JSON array of configs")
    if not doc:
        raise _UsageError(f"{args.configs}: config list is empty")
    configs = [CompressConfig.from_dict(entry) for entry in doc]
    report = bench(features, configs)
    if args.format == "json":
        _emit_json(report, args.output)
    else:
        rows = [
            {
                "selection": r["config"]["selection"],
                "merging": r["config"]["merging"],
                "in": r["config"]["input_frames"],
                "out": r["out_frames"],
                "wall_ms": f"{r['wall_ms']:.2f}",
                "recon_mse": f"{r['recon_mse']:.6g}",
            }
            for r in report
        ]
        print(_table(rows, ["selection", "merging", "in", "out", "wall_ms", "recon_mse"]))
    return 0


def cmd_synth(args) -> int:
    if args.stats and args.frames is not None:
        raise _UsageError("--stats does not use --frames")
    columns = load_clip_manifest(args.manifest)
    if args.stats:
        _emit_json(dataset_stats(*columns, args.min_s, args.max_s, args.seed), args.output)
        return 0
    n_frames = DEFAULT_RECORD_FRAMES if args.frames is None else args.frames
    # every record is built before the first byte is written
    records = pack_clips(*columns, args.min_s, args.max_s, args.seed, n_frames)
    _emit_text(_records_json_parts(records), args.output)
    print(f"packed {len(columns[0])} clips into {len(records)} records", file=sys.stderr)
    return 0


# parse_args leaves the parser as it found it, so a process builds the tree
# once: building it took 0.78-0.88 ms, parsing a command 0.05-0.07 ms
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framefuse",
        description="Scene-based compression of frame-feature tensors and "
                    "long-video caption synthesis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, output_required=False, seed=True, table=False):
        if seed:
            p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
        p.add_argument("-o", "--output", required=output_required,
                       help="output path" + ("" if output_required else " (default stdout)"))
        if table:
            p.add_argument("--format", choices=("json", "table"), default="json")

    p = sub.add_parser("gen", help="generate a synthetic feature tensor (FVT1)")
    p.add_argument("--frames", type=int, required=True, help="number of frames")
    p.add_argument("--patches", type=int, default=16, help="patch tokens per frame")
    p.add_argument("--dim", type=int, default=32, help="embedding dimension")
    p.add_argument("--scenes", type=int, default=4, help="planted scene blocks")
    p.add_argument("--noise", type=float, default=0.1, help="per-element noise std")
    common(p, output_required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("select", help="select scenes from a feature tensor")
    p.add_argument("input", help="FVT1 feature file")
    p.add_argument("--method", choices=("kmeans", "bsm"), default="kmeans")
    p.add_argument("--k", type=int, required=True, help="number of scenes")
    p.add_argument("--r", type=int, required=True, help="supplement frames per scene")
    p.add_argument("--mode", choices=SUPPLEMENT_MODES,
                   help="kmeans: rank supplements by highest or lowest similarity "
                        "(default similar)")
    p.add_argument("--max-iters", type=int, help="kmeans: Lloyd iterations (default 100)")
    p.add_argument("--tol", type=float, help="kmeans: center shift to stop at (default 1e-6)")
    common(p, table=True)
    p.set_defaults(func=cmd_select, seed=None)

    p = sub.add_parser("compress", help="compress a feature tensor to k merged frames")
    p.add_argument("input", help="FVT1 feature file")
    p.add_argument("--k", type=int, required=True, help="number of output frames")
    p.add_argument("--r", type=int, required=True, help="supplement frames per scene")
    p.add_argument("--select", choices=SELECTIONS, default="uniform")
    p.add_argument("--merge", choices=STRATEGIES, default="tavg")
    p.add_argument("--frames", type=int,
                   help="frames to sample before grouping (default k*(r+1))")
    p.add_argument("--weights", help="FVT1 fusion-weight tensor for --merge fusion")
    common(p, output_required=True)
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("bench", help="run compression configs and report quality/timing")
    p.add_argument("input", help="FVT1 feature file")
    p.add_argument("--configs", required=True, help="JSON array of compression configs")
    common(p, seed=False, table=True)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("synth", help="pack a clip manifest into long-video records")
    p.add_argument("manifest", help="JSON array of {id, duration, caption}")
    p.add_argument("--min-s", type=float, default=300.0, help="minimum record seconds")
    p.add_argument("--max-s", type=float, default=1800.0, help="maximum record seconds")
    p.add_argument("--frames", type=int,
                   help="frame count in each record's instruction string "
                        f"(default {DEFAULT_RECORD_FRAMES}; not with --stats)")
    p.add_argument("--stats", action="store_true",
                   help="emit duration/caption histograms instead of records")
    common(p)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (FrameFuseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
