"""The benchmark's workloads.

Each module exposes ``build(seed, workdir) -> Workload``. A workload is
one round of cases, run again and again in the same order; each case is
one operation with an independent check of its output. Inputs depend on
the seed only through their values: sizes and the mix of operations are
fixed, so every seed asks for the same amount of work.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable

NAMES = ("single-shot", "lp-oracle", "many-copy", "cli")


@dataclass(eq=False)
class Case:
    """One operation: ``run`` calls the program, ``check`` judges its output.

    ``fault`` names the known program fault the case exhibits (see the
    README); such a case is expected to fail its check every time.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    fault: str | None = None


@dataclass(eq=False)
class Workload:
    cases: list
    warmup: list
    # The cases as the traced run runs them: the CLI calls cli.main in
    # process, and many-copy adds a sorted test after each finite_n_gap.
    traced_cases: list
    # Peak resident set in MB of what the cases ran; None means this
    # process's own.
    peak_rss_mb: Callable[[], float] | None = None
    # Which quantile of a case's durations over the rounds is its time.
    # The host this was built on slows by a third to a half for spells of
    # a second to a minute. Rounds of a few seconds average over those
    # spells and the median sets aside the rounds they hit. Rounds far
    # shorter than a spell each sit in one speed, so a case's times are
    # bimodal and their median flips with the share of slow spells in the
    # run; their 90th percentile reads the slow speed, which every run
    # visits.
    case_quantile: float = 0.5


def build(name: str, seed: int, workdir):
    module = importlib.import_module("workloads." + name.replace("-", "_"))
    return module.build(seed, workdir)
