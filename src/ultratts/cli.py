"""Command line interface.

One subcommand per pipeline stage plus ``run-all``, a synthetic corpus
generator, and a report merger. ``prepare`` and ``run-all`` start a run: they
take the config and its overrides, clear the run directory's stage outputs
and echo the resolved config there. The other stage subcommands take only
the run directory and run under that echo. Exit code is 0 on success, 1 with
a stage-tagged diagnostic otherwise, and 2 for a usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import metrics, pipeline, synthetic
from .config import SYSTEMS, ExperimentConfig, read_config, write_config
from .errors import UltraTtsError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ultratts",
        description="Train and evaluate acoustic models from ultrasound and text inputs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for command in (*pipeline.STAGES, "run-all"):
        summary = "run every stage in order" if command == "run-all" else f"run the {command} stage"
        p = sub.add_parser(command, help=summary)
        p.add_argument("--output", type=Path, required=True, help="run directory")
        if command in ("prepare", "run-all"):
            p.add_argument("--config", type=Path, required=True, help="experiment config file")
            p.add_argument("--system", choices=SYSTEMS, help="override the configured system")
            p.add_argument("--seed", type=int, help="override the configured seed")
            # accepted and ignored: the bench harness still passes --workers 1 on every call
            p.add_argument("--workers", type=int, choices=[1], help=argparse.SUPPRESS)

    p = sub.add_parser("synth-corpus", help="generate a synthetic corpus and sample config")
    p.add_argument("--output", type=Path, required=True, help="corpus directory")
    p.add_argument("--utterances", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--drift", type=float, default=0.0,
                   help="grayscale offset applied to the last 15%% of the session")

    p = sub.add_parser("report", help="merge evaluation CSVs from run directories into tables")
    p.add_argument("runs", type=Path, nargs="+", help="run directories with evaluate/report.csv")
    p.add_argument("--output", type=Path, help="write tables here instead of stdout")
    return parser


def _resolve_config(args: argparse.Namespace):
    overrides = {
        name: getattr(args, name)
        for name in ("system", "seed")
        if getattr(args, name) is not None
    }
    return read_config(args.config).with_overrides(**overrides)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "synth-corpus":
            # resolve so the emitted config carries absolute corpus paths
            layout = synthetic.generate_corpus(
                args.output.resolve(),
                n_utterances=args.utterances,
                seed=args.seed,
                drift_magnitude=args.drift,
            )
            cfg = ExperimentConfig(
                ultrasound_dir=layout.ultrasound_dir,
                label_dir=layout.label_dir,
                acoustic_dir=layout.acoustic_dir,
                question_file=layout.question_file,
            )
            write_config(cfg, layout.root / "experiment.cfg")
            print(f"corpus written to {layout.root}")
            return 0

        if args.command == "report":
            reports = []
            for run_dir in args.runs:
                reports.extend(metrics.read_report_csv(pipeline.RunPaths(run_dir).report_csv))
            text = metrics.render_tables(reports)
            if args.output:
                args.output.write_text(text)
            else:
                sys.stdout.write(text)
            return 0

        if args.command == "run-all":
            pipeline.run_experiment(_resolve_config(args), args.output)
            print(f"run complete: {args.output}")
            return 0
        if args.command == "prepare":
            pipeline.start_run(_resolve_config(args), args.output)
        pipeline.run_stage(args.command, args.output)
        print(f"stage {args.command} complete: {args.output}")
        return 0
    except UltraTtsError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
