"""Running experiments and writing EXPERIMENTS.md."""

from __future__ import annotations

import datetime
import inspect
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional

import repro.obs as obs_mod
from repro.obs import names as metric_names
from repro.experiments.registry import (
    EXPERIMENTS,
    ExperimentResult,
    get_experiment,
)

MD_HEADER = """\
# EXPERIMENTS — paper vs. measured

Reproduction of *A BGP-based mechanism for lowest-cost routing*
(Feigenbaum, Papadimitriou, Sami, Shenker; PODC 2002 / Distributed
Computing 2005).

The paper is analytic: its artifacts are two worked examples (Fig. 1,
Fig. 2), an algorithm (Fig. 3), and four results (Theorem 1, Lemma 1,
Lemma 2/Corollary 1, Theorem 2) plus the Section 7 overcharging
discussion.  Each experiment below reproduces one artifact; *PASS*
means the measured values satisfy the paper's claim (worked examples
match digit for digit; bounds hold with zero slack; mechanisms agree to
float precision).

Regenerate any table with `repro-experiments run <id>` or
`pytest benchmarks/ --benchmark-only`; this file was generated by
`repro-experiments all --write-md EXPERIMENTS.md --scale {scale}`.

Generated: {timestamp}
"""


def run_experiment(
    experiment_id: str,
    scale: str = "small",
    seed: int = 0,
    engine: Optional[str] = None,
    protocol: Optional[str] = None,
) -> ExperimentResult:
    """Run one experiment by id.

    *engine* (a :mod:`repro.routing.engines` registry name) and
    *protocol* (``delta`` | ``full``, the BGP transport) are forwarded
    to experiments whose ``run`` accepts them -- and ignored by the
    rest, so ``repro-experiments all --engine flat`` and
    ``--protocol full`` stay valid across the board.

    While observability is enabled the experiment runs under an
    ``experiment.run`` span labelled with its id, so a recorded trace
    attributes every stage/message/price metric to the experiment that
    produced it.
    """
    func = get_experiment(experiment_id)
    kwargs: Dict[str, Any] = {"scale": scale, "seed": seed}
    parameters = inspect.signature(func).parameters
    if engine is not None and "engine" in parameters:
        kwargs["engine"] = engine
    if protocol is not None and "protocol" in parameters:
        kwargs["protocol"] = protocol
    observer = obs_mod.active()
    if observer is None:
        return func(**kwargs)
    with observer.span(metric_names.SPAN_EXPERIMENT, experiment=experiment_id):
        return func(**kwargs)


def run_all(
    scale: str = "small",
    seed: int = 0,
    only: Optional[Iterable[str]] = None,
    engine: Optional[str] = None,
    protocol: Optional[str] = None,
) -> List[ExperimentResult]:
    """Run every registered experiment (or the *only* subset), in order."""
    wanted = list(only) if only is not None else list(EXPERIMENTS)
    return [
        run_experiment(eid, scale=scale, seed=seed, engine=engine, protocol=protocol)
        for eid in wanted
    ]


def write_experiments_md(
    path: Path,
    results: Iterable[ExperimentResult],
    scale: str = "small",
) -> None:
    """Render results into the EXPERIMENTS.md artifact."""
    results = list(results)
    parts = [
        MD_HEADER.format(
            scale=scale,
            timestamp=datetime.datetime.now().strftime("%Y-%m-%d %H:%M"),
        )
    ]
    passed = sum(1 for result in results if result.passed)
    parts.append(f"\n**Summary: {passed}/{len(results)} experiments PASS.**\n")
    parts.extend(result.to_markdown() for result in results)
    Path(path).write_text("\n".join(parts))
