"""Command-line entry point regenerating every paper table and figure.

Usage (installed as ``repro-experiments``)::

    repro-experiments all --quick          # everything, scaled-down
    repro-experiments table2               # one artifact, paper settings
    repro-experiments fig3 --csv lognormal # raw series for plotting

``--quick`` uses the QUICK preset (~25x cheaper, same shapes); the default
is the paper's exact hyperparameters (a full run takes a few minutes).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict

from repro.experiments.ablations import (
    format_ablation_bruteforce_grid,
    format_ablation_evaluator,
    format_ablation_tail,
    format_ablation_truncation,
    run_ablation_bruteforce_grid,
    run_ablation_evaluator,
    run_ablation_tail,
    run_ablation_truncation,
)
from repro.experiments.common import (
    PAPER,
    QUICK,
    ExperimentConfig,
    metrics_summary_line,
    observed_experiment,
    write_experiment_metrics,
)
from repro.experiments.extensions_exp import (
    format_checkpoint_experiment,
    format_convex_experiment,
    run_checkpoint_experiment,
    run_convex_experiment,
)
from repro.experiments.deadline_exp import (
    format_deadline_experiment,
    run_deadline_experiment,
)
from repro.experiments.fig1 import format_fig1, run_fig1
from repro.experiments.invivo_exp import (
    format_invivo_experiment,
    run_invivo_experiment,
)
from repro.experiments.misspecification_exp import (
    format_misspecification_experiment,
    run_misspecification_experiment,
)
from repro.experiments.multiresource_exp import (
    format_multiresource_experiment,
    run_multiresource_experiment,
)
from repro.experiments.fig2 import format_fig2, run_fig2
from repro.experiments.fig2sim import format_fig2sim, run_fig2sim
from repro.experiments.fig3 import fig3_csv, format_fig3, run_fig3
from repro.experiments.fig4 import format_fig4, run_fig4
from repro.experiments.pricing_exp import (
    format_pricing_experiment,
    run_pricing_experiment,
)
from repro.experiments.table2 import format_table2, run_table2
from repro.experiments.variability_exp import (
    format_variability_experiment,
    run_variability_experiment,
)
from repro.experiments.table3 import format_table3, run_table3
from repro.experiments.table4 import format_table4, run_table4

__all__ = ["main", "EXPERIMENTS"]


def _table2(cfg: ExperimentConfig) -> str:
    return format_table2(run_table2(cfg))


def _table3(cfg: ExperimentConfig) -> str:
    return format_table3(run_table3(cfg))


def _table4(cfg: ExperimentConfig) -> str:
    return format_table4(run_table4(cfg))


def _fig1(cfg: ExperimentConfig) -> str:
    return format_fig1(run_fig1(cfg))


def _fig2(cfg: ExperimentConfig) -> str:
    return format_fig2(run_fig2(cfg))


def _fig2sim(cfg: ExperimentConfig) -> str:
    n_jobs = 1500 if cfg.m_grid < 5000 else 3000
    return format_fig2sim(run_fig2sim(cfg, n_jobs=n_jobs))


def _fig3(cfg: ExperimentConfig) -> str:
    return format_fig3(run_fig3(cfg))


def _fig4(cfg: ExperimentConfig) -> str:
    return format_fig4(run_fig4(cfg))


def _ablation_evaluator(cfg: ExperimentConfig) -> str:
    return format_ablation_evaluator(run_ablation_evaluator(cfg))


def _ablation_bruteforce(cfg: ExperimentConfig) -> str:
    sizes = (10, 50, 100, 500) if cfg.m_grid < 5000 else None
    kwargs = {"grid_sizes": sizes} if sizes else {}
    return format_ablation_bruteforce_grid(
        run_ablation_bruteforce_grid(config=cfg, **kwargs)
    )


def _ablation_truncation(cfg: ExperimentConfig) -> str:
    return format_ablation_truncation(run_ablation_truncation(config=cfg))


def _variability(cfg: ExperimentConfig) -> str:
    n_seeds = 5 if cfg.m_grid < 5000 else 10
    return format_variability_experiment(
        run_variability_experiment(n_seeds=n_seeds, config=cfg)
    )


def _ablation_tail(cfg: ExperimentConfig) -> str:
    return format_ablation_tail(run_ablation_tail(config=cfg))


def _ext_convex(cfg: ExperimentConfig) -> str:
    return format_convex_experiment(run_convex_experiment(config=cfg))


def _ext_checkpoint(cfg: ExperimentConfig) -> str:
    return format_checkpoint_experiment(run_checkpoint_experiment(config=cfg))


def _ext_multiresource(cfg: ExperimentConfig) -> str:
    return format_multiresource_experiment(run_multiresource_experiment(config=cfg))


def _ext_invivo(cfg: ExperimentConfig) -> str:
    n_jobs = 300 if cfg.m_grid < 5000 else 600
    return format_invivo_experiment(run_invivo_experiment(cfg, n_jobs=n_jobs))


def _ext_deadline(cfg: ExperimentConfig) -> str:
    return format_deadline_experiment(run_deadline_experiment(config=cfg))


def _spot_market(cfg: ExperimentConfig) -> str:
    from repro.experiments.spot_market_exp import (
        format_spot_market_experiment,
        run_spot_market_experiment,
    )

    quick = cfg.m_grid < 5000
    cells = run_spot_market_experiment(
        mean_hours_sweep=(0.5, 8.0, 72.0) if quick else (0.5, 2.0, 8.0, 24.0, 72.0),
        config=cfg,
    )
    return format_spot_market_experiment(cells)


def _pricing(cfg: ExperimentConfig) -> str:
    return format_pricing_experiment(run_pricing_experiment(config=cfg))


def _ext_misspecification(cfg: ExperimentConfig) -> str:
    n_trace = 1000 if cfg.m_grid < 5000 else 3000
    return format_misspecification_experiment(
        run_misspecification_experiment(n_trace=n_trace, config=cfg)
    )


EXPERIMENTS: Dict[str, Callable[[ExperimentConfig], str]] = {
    "table2": _table2,
    "table3": _table3,
    "table4": _table4,
    "fig1": _fig1,
    "fig2": _fig2,
    "fig2sim": _fig2sim,
    "fig3": _fig3,
    "fig4": _fig4,
    "pricing": _pricing,
    "variability": _variability,
    "ablation-evaluator": _ablation_evaluator,
    "ablation-bruteforce": _ablation_bruteforce,
    "ablation-truncation": _ablation_truncation,
    "ablation-tail": _ablation_tail,
    "ext-convex": _ext_convex,
    "ext-checkpoint": _ext_checkpoint,
    "ext-multiresource": _ext_multiresource,
    "ext-invivo": _ext_invivo,
    "ext-misspecification": _ext_misspecification,
    "ext-deadline": _ext_deadline,
    "spot-market": _spot_market,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables and figures of 'Reservation "
        "Strategies for Stochastic Jobs' (IPDPS 2019).",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which artifact to regenerate",
    )
    parser.add_argument(
        "--quick", action="store_true", help="use the scaled-down QUICK preset"
    )
    parser.add_argument("--seed", type=int, default=None, help="override base seed")
    parser.add_argument(
        "--csv",
        metavar="DISTRIBUTION",
        default=None,
        help="(fig3 only) dump the raw (t1, cost) series for one distribution",
    )
    parser.add_argument(
        "--save",
        metavar="DIR",
        default=None,
        help="also write each artifact to DIR/<experiment>.txt",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker threads across experiments (with 'all'); 1 (default) "
        "preserves the exact serial behavior and per-experiment metrics",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")

    cfg = QUICK if args.quick else PAPER
    if args.seed is not None:
        cfg = cfg.with_seed(args.seed)

    if args.csv is not None:
        if args.experiment != "fig3":
            parser.error("--csv is only supported with the fig3 experiment")
        print(fig3_csv(run_fig3(cfg), args.csv))
        return 0

    save_dir = None
    if args.save is not None:
        import os

        save_dir = args.save
        os.makedirs(save_dir, exist_ok=True)

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]

    if args.jobs > 1 and len(names) > 1:
        # Parallel mode: the metrics registry is process-global, so the
        # per-experiment reset/summary/snapshot would interleave across
        # workers; run with shared instrumentation and skip the per-name
        # metrics artifacts.  Outputs are printed in deterministic order.
        from repro import observability as obs
        from repro.service.pool import get_backend

        obs.enable()
        obs.get_registry().reset()

        def run_one(name: str):
            start = time.perf_counter()
            output = EXPERIMENTS[name](cfg)
            return output, time.perf_counter() - start

        with get_backend("thread", args.jobs) as backend:
            results = backend.map(run_one, names)
        for name, (output, elapsed) in zip(names, results):
            print(output)
            print(f"[{name}: {elapsed:.1f}s]\n")
            if save_dir is not None:
                import os

                path = os.path.join(save_dir, f"{name}.txt")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(output + "\n")
        print(
            f"[parallel run, jobs={args.jobs}: per-experiment metrics "
            "summaries skipped (shared registry)]"
        )
        return 0

    for name in names:
        start = time.perf_counter()
        with observed_experiment(name):
            output = EXPERIMENTS[name](cfg)
        elapsed = time.perf_counter() - start
        print(output)
        print(f"[{name}: {elapsed:.1f}s]")
        print(metrics_summary_line(name) + "\n")
        if save_dir is not None:
            import os

            path = os.path.join(save_dir, f"{name}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(output + "\n")
            # Machine-readable record of the work done, next to the artifact.
            write_experiment_metrics(name, save_dir)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
