"""Empirical validation harness for the what-if replay engine.

The replay engine (:mod:`repro.obs.whatif`) answers capacity-planning
questions analytically from a recorded trace.  This module keeps it
honest: for every fig9/fig10 cell it records a causally-traced baseline,
re-times it under each validation perturbation, then *re-simulates* the
same cell with the knob actually changed in the simulator and compares
the two walls.  The truth knobs map onto the simulator exactly:

* ``link_rate`` — a scaled :class:`~repro.simnet.interconnect.Fabric`
  line rate (every transport derives its ``per_byte_s`` from it);
* ``poll_tax`` — the Basic event loop's poll constants
  (``SELECT_NOW_COST_S`` / ``IPROBE_COST_S`` / ``BASIC_POLL_PERIOD_S``);
* ``serializer_rate`` / ``local_read_rate`` — the ramdisk shuffle
  write/read bandwidths.

Module-global patching follows the ablation-harness idiom: constants are
swapped under ``try/finally`` inside the worker process, so parallel
truth cells never see each other's knobs (each cell owns its process or
runs serially; nothing is patched across an ``await``-style boundary).
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Iterable, Sequence

from repro.obs.whatif import IDENTITY, Perturbation, ReplayModel
from repro.util.units import GiB

# The three perturbation kinds the acceptance gate requires (link rate,
# poll tax, serializer cost), one decisive step each.
WHATIF_PERTURBATIONS: tuple[Perturbation, ...] = (
    Perturbation(name="2x NIC", link_rate=2.0),
    Perturbation(name="zero poll-tax", poll_tax=0.0),
    Perturbation(name="2x serializer", serializer_rate=2.0),
)

# Prediction-vs-simulation agreement gate (relative error).
WHATIF_TOLERANCE = 0.10


def perturbed_system(system, link_rate: float):
    """``system`` with its fabric line rate scaled by ``link_rate``."""
    if link_rate == 1.0:
        return system
    fabric = dataclasses.replace(
        system.fabric, line_rate_Bps=system.fabric.line_rate_Bps * link_rate
    )
    return dataclasses.replace(system, fabric=fabric)


def run_whatif_truth_cell(spec: tuple) -> tuple[float, dict[str, float], float]:
    """Worker: one ground-truth re-simulation with the knobs applied.

    ``spec`` is ``(workload_name, n_workers, data_bytes, transport,
    fidelity, system_name, link_rate, poll_tax, serializer_rate,
    local_read_rate)`` — primitives only, so specs pickle across the
    parallel harness.  Returns ``(total_seconds, stage_seconds,
    sim_wall_elapsed_s)``; the last element is host wall-clock spent
    simulating, used for the replay-vs-resim speed comparison.
    """
    (
        workload_name,
        n_workers,
        data_bytes,
        transport,
        fidelity,
        system_name,
        link_rate,
        poll_tax,
        serializer_rate,
        local_read_rate,
    ) = spec
    import repro.core.mpi_netty as mpi_netty
    import repro.spark.deploy as deploy
    from repro.harness.systems import system_by_name
    from repro.spark.deploy import SparkSimCluster
    from repro.workloads.ohb import GROUP_BY, SORT_BY

    workloads = {w.name: w for w in (GROUP_BY, SORT_BY)}
    system = perturbed_system(system_by_name(system_name), link_rate)

    saved = (
        mpi_netty.SELECT_NOW_COST_S,
        mpi_netty.IPROBE_COST_S,
        mpi_netty.BASIC_POLL_PERIOD_S,
        deploy.RAMDISK_WRITE_BPS,
        deploy.RAMDISK_READ_BPS,
    )
    t0 = time.perf_counter()
    try:
        # Poll-tax scaling: cheaper polls *and* a proportionally shorter
        # poll period — poll_tax=0.0 is a free, instantly-reactive poll
        # loop, the simulator's closest realization of "no polling tax".
        mpi_netty.SELECT_NOW_COST_S = saved[0] * poll_tax
        mpi_netty.IPROBE_COST_S = saved[1] * poll_tax
        mpi_netty.BASIC_POLL_PERIOD_S = saved[2] * poll_tax
        deploy.RAMDISK_WRITE_BPS = saved[3] * serializer_rate
        deploy.RAMDISK_READ_BPS = saved[4] * local_read_rate
        sim = SparkSimCluster(system, n_workers, transport, obs_enabled=True)
        sim.launch()
        profile = workloads[workload_name].build_profile(
            system, n_workers, data_bytes, fidelity=fidelity
        )
        result = sim.run_profile(profile)
        sim.shutdown()
    finally:
        (
            mpi_netty.SELECT_NOW_COST_S,
            mpi_netty.IPROBE_COST_S,
            mpi_netty.BASIC_POLL_PERIOD_S,
            deploy.RAMDISK_WRITE_BPS,
            deploy.RAMDISK_READ_BPS,
        ) = saved
    elapsed = time.perf_counter() - t0
    return result.total_seconds, dict(result.stage_seconds), elapsed


def truth_spec(
    cell: dict[str, Any], p: Perturbation, fidelity: float, system_name: str
) -> tuple:
    """Primitive spec for :func:`run_whatif_truth_cell`."""
    if p.compute != 1.0 or p.executors is not None:
        raise ValueError(
            f"no simulator ground truth for perturbation {p.name!r}: compute "
            "and executor re-width knobs are analytic-only"
        )
    return (
        cell["workload"],
        cell["n_workers"],
        cell["data_bytes"],
        cell["transport"],
        fidelity,
        system_name,
        p.link_rate,
        p.poll_tax,
        p.serializer_rate,
        p.local_read_rate,
    )


def whatif_cells(workers: Sequence[int] = (2, 4, 8)) -> list[dict[str, Any]]:
    """The validation matrix: the union of the fig9 and fig10 cell grids.

    fig9 (Basic vs Optimized) runs 2/4 workers at 28/56 GiB over
    ``nio``/``mpi-basic``/``mpi-opt``; fig10 (weak scaling) runs
    ``workers`` at 14 GiB/worker over ``nio``/``rdma``/``mpi-opt``.  The
    grids overlap (both scale 14 GiB per worker), so shared cells are
    simulated once and tagged with both figures.
    """
    from repro.harness.experiments import OHB_TRANSPORTS
    from repro.workloads.ohb import GROUP_BY, SORT_BY

    cells: dict[tuple, dict[str, Any]] = {}

    def add(figure: str, workload: str, n_workers: int, data: int, transport: str):
        key = (workload, n_workers, data, transport)
        cell = cells.setdefault(
            key,
            {
                "workload": workload,
                "n_workers": n_workers,
                "data_bytes": data,
                "transport": transport,
                "figures": [],
            },
        )
        if figure not in cell["figures"]:
            cell["figures"].append(figure)

    for workload in (GROUP_BY, SORT_BY):
        for n_workers, data in ((2, 28 * GiB), (4, 56 * GiB)):
            for transport in ("nio", "mpi-basic", "mpi-opt"):
                add("fig9", workload.name, n_workers, data, transport)
    for workload in (GROUP_BY, SORT_BY):
        for n_workers in workers:
            for transport in OHB_TRANSPORTS:
                add("fig10", workload.name, n_workers, n_workers * 14 * GiB, transport)
    return list(cells.values())


def validate_matrix(
    cells: Iterable[dict[str, Any]] | None = None,
    perturbations: Sequence[Perturbation] = WHATIF_PERTURBATIONS,
    fidelity: float = 0.25,
    jobs: int | None = None,
    system_name: str = "Frontera",
    tolerance: float = WHATIF_TOLERANCE,
) -> dict[str, Any]:
    """Record, replay and re-simulate every cell; return the BENCH payload.

    For each cell: one causally-traced baseline run, an identity replay
    (must reproduce the recorded wall exactly), and per perturbation an
    analytic prediction plus a ground-truth re-simulation.  The payload's
    ``cells`` rows carry ``predicted_s`` / ``simulated_s`` / ``error``
    (relative, prediction vs truth); ``summary`` aggregates the gate
    verdict and ``replay`` the analytic-vs-simulated speed comparison.
    """
    from repro.harness.parallel import parallel_map, run_ohb_cells

    cells = list(whatif_cells() if cells is None else cells)
    perturbations = list(perturbations)

    base_specs = [
        (
            c["workload"],
            c["n_workers"],
            c["data_bytes"],
            c["transport"],
            fidelity,
            system_name,
            True,
        )
        for c in cells
    ]
    recorded = run_ohb_cells(base_specs, jobs)

    t0 = time.perf_counter()
    models = [ReplayModel.from_result(r.result) for r in recorded]
    model_build_s = time.perf_counter() - t0

    truth_specs = [
        truth_spec(c, p, fidelity, system_name) for c in cells for p in perturbations
    ]
    truths = parallel_map(run_whatif_truth_cell, truth_specs, jobs)

    out_cells: list[dict[str, Any]] = []
    retime_total_s = 0.0
    resim_total_s = 0.0
    errors: list[float] = []
    ti = 0
    for c, rec, model in zip(cells, recorded, models):
        t0 = time.perf_counter()
        identity = model.retime(IDENTITY)
        rows = []
        for p in perturbations:
            pred = model.retime(p)
            rows.append((p, pred))
        retime_total_s += time.perf_counter() - t0

        row_dicts = []
        for p, pred in rows:
            sim_wall, _sim_stages, elapsed = truths[ti]
            ti += 1
            resim_total_s += elapsed
            error = pred.wall_s / sim_wall - 1.0
            errors.append(abs(error))
            row_dicts.append(
                {
                    "perturbation": p.name,
                    "knobs": p.describe(),
                    "predicted_s": pred.wall_s,
                    "simulated_s": sim_wall,
                    "error": error,
                    "within_tolerance": abs(error) <= tolerance,
                    "predicted_speedup": rec.total_seconds / pred.wall_s,
                    "simulated_speedup": rec.total_seconds / sim_wall,
                }
            )
        out_cells.append(
            {
                "workload": c["workload"],
                "n_workers": c["n_workers"],
                "data_bytes": c["data_bytes"],
                "transport": c["transport"],
                "figures": list(c["figures"]),
                "recorded_s": rec.total_seconds,
                "identity_replay_s": identity.wall_s,
                "identity_exact": identity.wall_s == rec.total_seconds,
                "rows": row_dicts,
            }
        )

    return {
        "fidelity": fidelity,
        "tolerance": tolerance,
        "perturbations": [
            {"name": p.name, "knobs": p.describe()} for p in perturbations
        ],
        "cells": out_cells,
        "summary": {
            "n_cells": len(out_cells),
            "n_rows": len(errors),
            "max_abs_error": max(errors) if errors else 0.0,
            "mean_abs_error": sum(errors) / len(errors) if errors else 0.0,
            "all_within_tolerance": all(
                r["within_tolerance"] for c in out_cells for r in c["rows"]
            ),
            "identity_all_exact": all(c["identity_exact"] for c in out_cells),
        },
        # Host wall-clock, machine-dependent: excluded from golden
        # comparisons, kept for the "why replay instead of resim" story.
        "replay": {
            "model_build_s": model_build_s,
            "retime_total_s": retime_total_s,
            "resim_total_s": resim_total_s,
            "speedup": (
                resim_total_s / retime_total_s if retime_total_s > 0 else float("inf")
            ),
        },
    }
