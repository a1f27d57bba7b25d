"""The benchmark's workloads: a generated surveillance CSV plus CLI flags.

Each workload stresses a different layer, so that an optimisation of one
layer shows on one workload and shows no change on another.  The program
sees only the CSV (made by ``smoothbench.synthetic`` from an input seed) and
the flags; ``--seed`` passed to the CLI is that input seed too.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    samples: int  # series length T
    step_days: int
    with_gaps: bool
    flags: tuple[str, ...]

    def cli_args(self, csv_path: str, out_dir: str, seed: int) -> list[str]:
        return ["benchmark", "--input", csv_path, "--out", out_dir,
                "--seed", str(seed), *self.flags]


# GA budgets are cut from the CLI defaults so that one CLI run takes a few
# seconds and a run of the benchmark holds several.  A large population with
# few generations keeps the number of unique GA evaluations, and so the work,
# nearly the same for every seed.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "desk_t30",
            "all 13 methods on the NH4-normalized signal, T=30 with gaps: the "
            "per-deletion LOOCV loop of the nonlinear smoothers dominates",
            samples=30, step_days=3, with_gaps=True,
            flags=("--signal", "normalized", "--f-nh4", "10.71",
                   "--ga-pop", "40", "--ga-iters", "2"),
        ),
        Workload(
            "long_t365_linear",
            "linear methods plus fft at T=365 daily, combined objective: operator "
            "construction and the full TxT matrix dominate; no per-deletion loop",
            samples=365, step_days=1, with_gaps=False,
            flags=("--signal", "raw", "--objective", "combined",
                   "--methods", "fft,spl,ker,sma,sgf,pol", "--ga-pop", "30", "--ga-iters", "1"),
        ),
        Workload(
            "paper_t60_discrete",
            "discrete-parameter methods at the paper GA population (100) for 250 "
            "generations, T=60: the fitness cache saturates, so GA bookkeeping dominates",
            samples=60, step_days=3, with_gaps=True,
            flags=("--signal", "raw", "--paper-fidelity", "--ga-iters", "250",
                   "--methods", "tuk,sma,sgf,ari"),
        ),
    )
}


def write_input(workload: Workload, seed: int, path: str) -> None:
    """Write the workload's surveillance CSV for ``seed``."""
    from smoothbench.csvio import write_surveillance_csv
    from smoothbench.synthetic import synthetic_records

    records, _truth = synthetic_records(
        site="synthetic", n=workload.samples, seed=seed,
        step_days=workload.step_days, with_gaps=workload.with_gaps,
    )
    write_surveillance_csv(records, path)
