"""Command-line interface.

Exit codes:
  0  success.
  1  an input or output file could not be read, parsed or written: a
     missing or malformed WAV, manifest, dictionary or confusion matrix,
     refs/hyps files that are not line-aligned, or a clip that `batch`
     skipped (each skipped clip is logged once on stderr).  A text input
     is also rejected, as `path:line: reason`, for bytes that are not
     UTF-8, JSON nested too deep, or a JSON string with a lone surrogate.
  2  the command line is wrong; this is detected before any file is opened.

Diagnostics go to stderr, data to files or stdout.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from itertools import zip_longest
from pathlib import Path

# each command imports the modules it runs, so that `score` and `--help`
# never load numpy
from .manifest import SEVERITIES, _check_plan, _read_text, read_manifest, write_records

log = logging.getLogger("dysaug")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dysaug",
        description="Synthesize dysarthric speech from healthy recordings and "
        "evaluate/correct ASR output.",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for all random choices")
    parser.add_argument("--quiet", action="store_true", help="suppress progress logging")

    # lets --seed/--quiet also appear after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    common.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS,
                        help=argparse.SUPPRESS)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("perturb", parents=[common],
                       help="perturb one WAV at a severity preset or explicit factors")
    p.set_defaults(run=_cmd_perturb)
    p.add_argument("--in", dest="in_path", required=True, metavar="WAV")
    p.add_argument("--out", dest="out_path", required=True, metavar="WAV")
    p.add_argument("--severity", choices=SEVERITIES)
    p.add_argument("--r1", type=float, help="speed factor")
    p.add_argument("--r2", type=float, help="tempo factor")

    p = sub.add_parser("batch", parents=[common],
                       help="augment a whole JSONL manifest")
    p.set_defaults(run=_cmd_batch)
    p.add_argument("--manifest", required=True, metavar="JSONL")
    p.add_argument("--out-dir", required=True, metavar="DIR")
    p.add_argument("--severities", default=",".join(SEVERITIES),
                   help="comma-separated subset of S1,S2,S3,S4")
    p.add_argument("--replication", type=int, default=2,
                   help="severity draws per utterance")
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                   help="parallel workers")

    p = sub.add_parser("confusion", parents=[common],
                       help="estimate a character confusion matrix from ref/hyp files")
    p.set_defaults(run=_cmd_confusion)
    p.add_argument("--refs", required=True, metavar="TXT")
    p.add_argument("--hyps", required=True, metavar="TXT")
    p.add_argument("--out", dest="out_path", required=True, metavar="JSON")

    p = sub.add_parser("correct", parents=[common],
                       help="correct hypothesis text against a dictionary")
    p.set_defaults(run=_cmd_correct)
    p.add_argument("--dict", dest="dict_path", required=True, metavar="TXT")
    p.add_argument("--confusion", metavar="JSON", help="confusion matrix for weighting")
    p.add_argument("--in", dest="in_path", required=True, metavar="TXT")
    p.add_argument("--out", dest="out_path", required=True, metavar="TXT")

    p = sub.add_parser("score", parents=[common],
                       help="WER/CER with substitution/insertion/deletion breakdown")
    p.set_defaults(run=_cmd_score)
    p.add_argument("--refs", required=True, metavar="TXT")
    p.add_argument("--hyps", required=True, metavar="TXT")
    p.add_argument("--unit", choices=("word", "char"), default="word")

    return parser


def _read_aligned(refs_path: str, hyps_path: str):
    """Yield (ref, hyp) line pairs, reading one line of each file at a time."""
    refs, hyps = _read_text(refs_path), _read_text(hyps_path)
    for n, pair in enumerate(zip_longest(refs, hyps), 1):
        if None in pair:
            # the shorter file ended at line n - 1; count the rest of the longer
            r, h = (n - 1 if line is None else n + sum(1 for _ in lines)
                    for line, lines in zip(pair, (refs, hyps)))
            raise ValueError(f"refs and hyps are not line-aligned: {refs_path} has {r} "
                             f"lines, {hyps_path} has {h}")
        yield pair


def _cmd_perturb(parser, args) -> int:
    from .pipeline import PerturbationParams, _load_clip, _write_perturbed, params_for

    if args.severity and (args.r1 is not None or args.r2 is not None):
        parser.error("--severity and --r1/--r2 are mutually exclusive")
    if args.severity:
        params = params_for(args.severity)
    elif args.r1 is None or args.r2 is None:
        parser.error("provide either --severity or both --r1 and --r2")
    else:
        try:
            params = PerturbationParams(speed=args.r1, tempo=args.r2)
        except ValueError as exc:
            parser.error(str(exc))
    out = _write_perturbed(_load_clip(args.in_path), params, args.out_path)
    log.info("wrote %s (%d samples at %d Hz)", args.out_path, len(out), out.sample_rate)
    return 0


def _cmd_batch(parser, args) -> int:
    from .pipeline import run_batch

    labels = [s for s in map(str.strip, args.severities.split(",")) if s]
    try:
        labels = _check_plan(labels, args.replication, args.jobs)
    except ValueError as exc:
        parser.error(str(exc))
    result = run_batch(read_manifest(args.manifest), labels, args.replication, args.seed,
                       args.out_dir, jobs=args.jobs)
    out_manifest = Path(args.out_dir) / "manifest.jsonl"
    write_records(result.records, out_manifest)
    log.info("wrote %d records to %s", len(result.records), out_manifest)
    # run_batch has already logged each failure
    return 1 if result.failures else 0


def _cmd_confusion(parser, args) -> int:
    from .correction import build_confusion

    matrix = build_confusion(_read_aligned(args.refs, args.hyps))
    matrix.save(args.out_path)
    log.info("wrote %dx%d confusion matrix to %s",
             len(matrix.symbols), len(matrix.symbols), args.out_path)
    return 0


def _cmd_correct(parser, args) -> int:
    from .correction import ConfusionMatrix, correct_sentence, load_dictionary

    dictionary = load_dictionary(args.dict_path)
    matrix = ConfusionMatrix.load(args.confusion) if args.confusion else None
    # read all of --in before --out is opened, so that a bad line late in the
    # input leaves no partial output file behind
    lines = list(_read_text(args.in_path))
    with open(args.out_path, "w", encoding="utf-8") as fout:
        fout.writelines(correct_sentence(line, dictionary, matrix) + "\n" for line in lines)
    log.info("corrected %d lines into %s", len(lines), args.out_path)
    return 0


def _cmd_score(parser, args) -> int:
    from .scoring import score

    report = score(_read_aligned(args.refs, args.hyps), unit=args.unit)
    print("Sub.\tIns.\tDel.\trate")
    print(f"{report.substitutions}\t{report.insertions}\t{report.deletions}"
          f"\t{report.error_rate:.3f}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(message)s",
    )
    try:
        return args.run(parser, args)
    except (OSError, ValueError) as exc:
        print(f"dysaug: {exc}", file=sys.stderr)
        return 1


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
