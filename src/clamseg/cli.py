"""Command-line entry point.

Subcommands cover the full pipeline: gen-data, preprocess, train, eval,
infer, prune, dump-pairs, and the gradcheck verification harness.  Exit
codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

import argparse
import os
import sys

from . import augment, config, gradcheck, metrics, pgm, phantoms, preprocess, trainer
from .errors import DataError, NonFiniteLossError, NumericError, UsageError


def build_parser():
    parser = argparse.ArgumentParser(
        prog="clamseg",
        description="Weakly supervised marker segmentation: twin UNet++ models "
                    "trained contrastively on image-level labels.",
        epilog=config.config_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("gen-data", help="generate a synthetic phantom dataset")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--count", required=True, type=int, help="number of images")
    p.add_argument("--positive-frac", required=True, type=float,
                   help="fraction of images with lesions")
    p.add_argument("--seed", required=True, type=int, help="master seed")
    p.add_argument("--difficulty", choices=("easy", "hard"), default="easy",
                   help="phantom contrast preset (default easy)")
    p.add_argument("--size", type=int, default=256,
                   help="image side in pixels (default 256)")

    p = sub.add_parser("preprocess", help="mask, crop and resize a dataset")
    p.add_argument("--in", dest="in_dir", required=True, help="input dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--mask-mode", choices=("threshold", "external"),
                   default="external",
                   help="organ mask source (default external)")
    p.add_argument("--size", type=int, default=256,
                   help="output side in pixels (default 256)")

    p = sub.add_parser("train", help="run the twin-model training loop")
    p.add_argument("--data", required=True, help="preprocessed dataset directory")
    p.add_argument("--config", help="key = value config file (defaults if omitted)")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--steps", required=True, type=int, help="total training steps")
    p.add_argument("--seed", required=True, type=int, help="master seed")
    p.add_argument("--resume", help="checkpoint to continue from")

    p = sub.add_parser("eval", help="score a checkpoint against hidden masks")
    p.add_argument("--ckpt", required=True, help="checkpoint path")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--split", default="test", choices=("train", "val", "test"),
                   help="manifest split (default test)")
    p.add_argument("--threshold", type=float, default=0.5,
                   help="marker probability threshold (default 0.5)")
    p.add_argument("--depth", type=int, help="head depth (default deepest)")
    p.add_argument("--trials", type=int, default=200,
                   help="random-baseline trials (default 200)")
    p.add_argument("--seed", type=int, default=0,
                   help="random-baseline seed (default 0)")

    p = sub.add_parser("infer", help="segment one image with a checkpoint")
    p.add_argument("--ckpt", required=True, help="checkpoint path")
    p.add_argument("--image", required=True, help="input PGM image")
    p.add_argument("--out", required=True, help="output mask PGM path")
    p.add_argument("--depth", type=int, help="head depth (default deepest)")
    p.add_argument("--threshold", type=float, default=0.5,
                   help="marker probability threshold (default 0.5)")

    p = sub.add_parser("prune", help="truncate a checkpoint to a shallower head")
    p.add_argument("--ckpt", required=True, help="input checkpoint")
    p.add_argument("--out", required=True, help="pruned checkpoint path")
    p.add_argument("--depth", required=True, type=int, help="head depth to keep")

    p = sub.add_parser("dump-pairs", help="write one step's pair samples for "
                                          "manual inspection")
    p.add_argument("--data", required=True, help="preprocessed dataset directory")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", help="key = value config file (defaults if omitted)")
    p.add_argument("--seed", required=True, type=int, help="pair-draw seed")

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--module", choices=("all", "tensor", "loss", "model"),
                   default="all", help="which suite to run (default all)")
    p.add_argument("--seeds", type=int, default=20,
                   help="number of seeds per case (default 20)")

    return parser


def _load_run_config(path):
    if path is None:
        return config.RunConfig()
    return config.load_config(path)


def _cmd_gen_data(args):
    params = phantoms.PRESETS[args.difficulty](size=args.size)
    summary = phantoms.generate_phantoms(args.out, args.count, args.positive_frac,
                                         args.seed, params=params)
    print(f"wrote {summary['count']} images ({summary['n_pos']} positive) to "
          f"{args.out}; splits: " +
          ", ".join(f"{k}={v}" for k, v in sorted(summary["splits"].items())))
    return 0


def _cmd_preprocess(args):
    report = preprocess.preprocess_dataset(args.in_dir, args.out,
                                           mask_mode=args.mask_mode,
                                           out_size=args.size)
    for w in report["warnings"]:
        print(f"warning: {w}", file=sys.stderr)
    for split, c in sorted(report["splits"].items()):
        print(f"{split}: {c['out']}/{c['in']} images preprocessed")
    return 0


def _cmd_train(args):
    rc = _load_run_config(args.config)
    state, metrics_rows = trainer.run_training(
        data_dir=args.data,
        model_config=config.to_model_config(rc),
        opt_config=config.to_optimizer_config(rc),
        policy=config.to_policy(rc),
        steps=args.steps, seed=args.seed, out_path=args.out,
        checkpoint_every=rc.checkpoint_every, siamese=rc.siamese,
        resume_from=args.resume)
    if metrics_rows:
        print(f"trained to step {state.step}; "
              f"final total loss {metrics_rows[-1]['total_loss']:.6f}")
    else:
        print(f"checkpoint already at step {state.step}; re-saved")
    print(f"checkpoint: {args.out}")
    print(f"metrics log: {args.out}.log")
    return 0


def _cmd_eval(args):
    report = metrics.evaluate(args.ckpt, args.data, split=args.split,
                              threshold=args.threshold, depth=args.depth,
                              seed=args.seed, trials=args.trials)
    print(f"{report['n_images']} images on split {report['split']} "
          f"(depth {report['depth']})")
    print(f"mean dice {report['mean_dice']:.6f} (std {report['std_dice']:.6f})")
    print(f"mean iou  {report['mean_iou']:.6f} (std {report['std_iou']:.6f})")
    print(f"random baseline {report['baseline_dice']:.6f} at matched rate "
          f"{report['baseline_rate']:.6f}")
    return 0


def _check_out_dir(path):
    """Fail before any work when ``path`` has no directory to be written in."""
    out_dir = os.path.dirname(path) or "."
    if not os.path.isdir(out_dir):
        raise DataError(f"cannot write {path}: no directory {out_dir}")


def _cmd_infer(args):
    _check_out_dir(args.out)
    image = pgm.read_unit(args.image)
    mask = trainer.infer(args.ckpt, image, depth=args.depth,
                         threshold=args.threshold)
    pgm.write_mask(args.out, mask)
    print(f"wrote {args.out} ({int(mask.sum())} marker pixels)")
    return 0


def _cmd_prune(args):
    _check_out_dir(args.out)
    pruned = trainer.prune_state(trainer.load_state(args.ckpt), args.depth)
    trainer.save_state(pruned, args.out)
    print(f"pruned to depth {args.depth}: "
          f"{pruned.model_a.parameter_count()} parameters per model")
    return 0


def _draws_text(draws):
    """``side.name=value`` pairs of a pair's augmentation draws, ';'-joined."""
    return ";".join(f"{side}.{k}={v}" for side in sorted(draws)
                    for k, v in sorted(draws[side].items()))


def _cmd_dump_pairs(args):
    rc = _load_run_config(args.config)
    policy = config.to_policy(rc)
    batch = augment.load_batch(args.data, "train")
    pairs = augment.make_pairs(batch, args.seed, policy)
    os.makedirs(args.out, exist_ok=True)
    lines = []
    for i, p in enumerate(pairs):
        stem = f"pair_{i:03d}_{p.kind}"
        pgm.write_unit(os.path.join(args.out, stem + "_a.pgm"), p.slice_a)
        pgm.write_unit(os.path.join(args.out, stem + "_b.pgm"), p.slice_b)
        lines.append(f"{i}\t{p.kind}\t{p.source_a}\t{p.source_b}"
                     f"\t{p.coords[0]},{p.coords[1]}\t{p.eta:.6g}\t{_draws_text(p.draws)}")
    with open(os.path.join(args.out, "pairs.tsv"), "w", encoding="ascii") as fh:
        fh.write("index\tkind\tsource_a\tsource_b\ttile\teta\tdraws\n")
        for line in lines:
            fh.write(line + "\n")
    print(f"wrote {len(pairs)} pairs to {args.out}")
    return 0


def _cmd_gradcheck(args):
    if args.seeds < 1:
        raise UsageError("--seeds must be at least 1")
    results = gradcheck.run_suite(module=args.module, seeds=range(args.seeds))
    worst = 0.0
    failures = 0
    for name, report in results:
        status = "pass" if report["pass"] else "FAIL"
        if not report["pass"]:
            failures += 1
        worst = max(worst, report["max_rel_err"])
        print(f"{status}  {name}  max_rel_err={report['max_rel_err']:.3e}  "
              f"checked={report['n_checked']} skipped={report['n_skipped']}")
    print(f"{len(results)} checks, {failures} failures, worst {worst:.3e}")
    if failures:
        raise NumericError(f"{failures} gradient checks failed")
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "preprocess": _cmd_preprocess,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "infer": _cmd_infer,
    "prune": _cmd_prune,
    "dump-pairs": _cmd_dump_pairs,
    "gradcheck": _cmd_gradcheck,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if not e.code else 1
    try:
        return _COMMANDS[args.command](args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (DataError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        if isinstance(e, NonFiniteLossError):
            for i, p in enumerate(e.provenance or ()):
                print(f"pair {i}: kind={p['kind']} sources={p['source_a']},{p['source_b']}"
                      f" tile={p['coords'][0]},{p['coords'][1]} eta={p['eta']:.6g}"
                      f" draws={_draws_text(p['draws'])}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
