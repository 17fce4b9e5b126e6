"""The benchmark's three workloads: seeded input generation and one operation.

Each workload has two halves:

* ``generate(seed)`` is set-up.  It builds every input the program is
  given (profiles with a cold sample-trace cache, the cluster seed, the
  job-server arrival trace, the fault plan) from the workload seed and
  nothing else.
* ``run(inputs)`` is one operation.  It builds fresh clusters, drives them
  to completion and returns an :class:`Outcome`: the simulated answers
  (which must repeat exactly), layer counts that are not in the metrics
  registry, and a list of failed output checks.

Only public entry points of ``repro`` are called, and always through their
module attribute, so the tracer in ``layers.py`` can wrap them.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass, field
from typing import Any, Callable

# One shuffle block may lose at most this many bytes to float rounding in
# the profile's fetch matrix (remote + local read vs the matrix total).
BYTES_PER_BLOCK_TOLERANCE = 1.0
# Largest |critical-path total - simulated job time| / simulated time the
# causal analyzer may report on a complete recording.
CRITPATH_GAP_LIMIT = 0.01


@dataclass
class Outcome:
    """What one operation produced."""

    sim: dict[str, Any]  # simulated answers; identical across operations
    counts: dict[str, float] = field(default_factory=dict)  # layer counts
    problems: list[str] = field(default_factory=list)  # failed checks


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[int], dict]
    run: Callable[[dict], Outcome]


def _cluster_seed(seed: int) -> int:
    return random.Random(f"cluster:{seed}").randrange(1 << 31)


def expected_read_bytes(profile) -> tuple[float, int]:
    """(bytes, blocks) a per-block-fetch run of ``profile`` must read.

    The bytes are the fetch-matrix total plus the chunk framing the shuffle
    server adds: ``PER_BLOCK_WIRE_BYTES`` for every block after the first in
    one chunk, chunks being at most ``TARGET_REQUEST_BYTES`` of one
    source's bytes for one reduce task.
    """
    from repro.harness.profile import ShuffleReadStage
    from repro.spark import deploy

    total = 0.0
    blocks = 0
    extra_blocks = 0
    for stage in profile.stages:
        if not isinstance(stage, ShuffleReadStage):
            continue
        total += float(stage.fetch_bytes.sum())
        blocks += int(stage.blocks.sum())
        n_exec = stage.fetch_bytes.shape[1]
        for t in range(stage.n_tasks):
            for src in range(n_exec):
                nbytes = int(stage.fetch_bytes[t][src])
                if src == t % n_exec or nbytes <= 0:
                    continue
                chunks = -(-nbytes // deploy.TARGET_REQUEST_BYTES)
                base, rem = divmod(int(stage.blocks[t][src]), chunks)
                extra_blocks += sum(
                    max(base + (i < rem) - 1, 0) for i in range(chunks)
                )
    return total + extra_blocks * deploy.PER_BLOCK_WIRE_BYTES, blocks


def _check_read_bytes(expected, snap, prefix: str, problems: list[str]) -> None:
    """Remote + local shuffle-read bytes equal ``expected_read_bytes``."""
    want, blocks = expected
    got = snap.total("spark.*remote_fetch_bytes") + snap.total(
        "spark.*local_read_bytes"
    )
    if abs(got - want) > BYTES_PER_BLOCK_TOLERANCE * max(blocks, 1):
        problems.append(
            f"{prefix}: read {got:.0f} B, fetch matrix holds {want:.0f} B "
            f"over {blocks} blocks"
        )


# -- the two big jobs ----------------------------------------------------------

def _big_job(n_workers: int, transport: str, build: Callable[[], Any]):
    def generate(seed: int) -> dict:
        profile = build()
        return {
            "profile": profile,
            "read_bytes": expected_read_bytes(profile),
            "cluster_seed": _cluster_seed(seed),
        }

    def run(inputs: dict) -> Outcome:
        from repro.harness.systems import FRONTERA
        from repro.spark import deploy

        profile = inputs["profile"]
        sim = deploy.SparkSimCluster(
            FRONTERA, n_workers, transport,
            seed=inputs["cluster_seed"], obs_enabled=True,
        )
        sim.launch()
        result = sim.run_profile(profile)
        sim.shutdown()
        out = Outcome(
            sim={
                "job_s": result.total_seconds,
                "shuffle_read_s": result.shuffle_read_seconds(),
                "jct_s": result.launch_seconds + result.total_seconds,
                "launch_s": result.launch_seconds,
                "stage_s": dict(result.stage_seconds),
            }
        )
        _check_read_bytes(inputs["read_bytes"], result.metrics, transport, out.problems)
        return out

    return generate, run


def _groupby_profile():
    from repro.harness.systems import FRONTERA
    from repro.util.units import GiB
    from repro.workloads import ohb

    return ohb.GROUP_BY.build_profile(FRONTERA, 8, 8 * 14 * GiB, fidelity=0.25)


def _terasort_profile():
    from repro.harness.systems import FRONTERA
    from repro.workloads import hibench

    return hibench.SPECS["TeraSort"].build_profile(FRONTERA, 16, fidelity=0.25)


# -- interactive mix -------------------------------------------------------------

# (transport, MPI fault mode, job expected to complete) — the outcomes the
# fault-recovery matrix asserts for these cells.
FAULT_CELLS = (
    ("nio", "abort", True),
    ("mpi-opt", "abort", False),
    ("mpi-opt", "shrink", True),
    ("mpi-coll", "shrink", True),
)
FAULT_WORKERS = 4
JOBSERVER_JOBS = 20


def _fault_plan(seed: int):
    """Crash one executor and degrade one NIC, early in the shuffle read.

    The seed picks the victims and the degradation factor; the timing is
    fixed so the crash always lands while blocks are in flight.
    """
    from repro.faults import plan

    rng = random.Random(f"faults:{seed}")
    return (
        plan.FaultPlan(seed=_cluster_seed(seed), name="crash+degrade")
        .add(
            plan.NicDegradation(
                at_s=0.002,
                node_index=rng.randrange(FAULT_WORKERS),
                factor=rng.uniform(2.0, 6.0),
                duration_s=0.5,
            )
        )
        .add(plan.ExecutorCrash(at_s=0.005, exec_id=1 + rng.randrange(FAULT_WORKERS - 1)))
    )


def _arrivals(seed: int):
    """A Poisson job-server trace with a fixed job mix in seeded order.

    ``poisson_trace`` draws every job independently, so the work in 20 jobs
    (and the host time to simulate it) swings by a factor of two between
    seeds.  Here the jobs are fixed -- the default mix's proportions, sizes
    at the log-uniform quantiles of 64-256 MiB, parallelism 8/16/24 -- and
    so are the inter-arrival gaps, the quantiles of an exponential with a
    1 s mean.  The seed shuffles the order the jobs arrive in and which gap
    precedes each one.
    """
    from repro.jobserver import arrivals
    from repro.util.units import MiB

    n = JOBSERVER_JOBS
    total_w = sum(w for _, w in arrivals.DEFAULT_MIX)
    kinds = [
        name
        for name, w in arrivals.DEFAULT_MIX
        for _ in range(round(n * w / total_w))
    ]
    if len(kinds) != n:
        raise ValueError(f"default job mix does not split into {n} jobs")
    quantiles = [(k + 0.5) / n for k in range(n)]
    lo, hi = math.log(64 * MiB), math.log(256 * MiB)
    # Stride 7 (coprime with 20) spreads every workload over the size range.
    jobs = [
        (kind, int(math.exp(lo + quantiles[(7 * k) % n] * (hi - lo))), (8, 16, 24)[k % 3])
        for k, kind in enumerate(kinds)
    ]
    gaps = [-math.log(1.0 - q) for q in quantiles]
    rng = random.Random(f"arrivals:{seed}")
    rng.shuffle(jobs)
    rng.shuffle(gaps)
    t = 0.0
    rows = []
    for i, ((kind, size, parallelism), gap) in enumerate(zip(jobs, gaps)):
        t += gap
        rows.append(
            {
                "app_id": i,
                "workload": kind,
                "submit_s": t,
                "nominal_bytes": size,
                "parallelism": parallelism,
                "fidelity": 0.25,
            }
        )
    return arrivals.trace_from_rows(seed, rows)


def _mix_generate(seed: int) -> dict:
    from repro.harness.systems import FRONTERA
    from repro.util.units import GiB
    from repro.workloads import ohb

    trace = _arrivals(seed)
    # The job server builds its applications' profiles as they arrive; build
    # the OHB sample traces they scale from here, with the cache cold.
    ohb.SORT_BY.build_profile(FRONTERA, 4, 4 * GiB, fidelity=0.25)
    fig9 = ohb.GROUP_BY.build_profile(FRONTERA, 2, 28 * GiB, fidelity=0.25)
    return {
        "cluster_seed": _cluster_seed(seed),
        "arrivals": trace,
        "fault_plan": _fault_plan(seed),
        "fig9_profile": fig9,
        "fig9_read_bytes": expected_read_bytes(fig9),
    }


def _pingpong(sim: dict) -> None:
    from repro.harness import experiments, pingpong, systems

    sizes = experiments.FIG8_SMALL_SIZES + experiments.FIG8_LARGE_SIZES
    for transport in ("nio", "mpi-basic"):
        res = pingpong.run_pingpong(
            transport, sizes, systems.INTERNAL_CLUSTER.fabric, iterations=4
        )
        for size, secs in res.latency_s.items():
            sim[f"pingpong.{transport}.{size}B_us"] = secs * 1e6


def _faults(inputs: dict, out: Outcome) -> None:
    from repro.faults import chaos
    from repro.harness.systems import INTERNAL_CLUSTER
    from repro.util.units import MiB

    recovery = retries = resubmits = lost = 0.0
    for transport, mode, should_complete in FAULT_CELLS:
        scenario = chaos.ChaosScenario(
            name="fault-recovery",
            system=INTERNAL_CLUSTER,
            n_workers=FAULT_WORKERS,
            transport=transport,
            plan=inputs["fault_plan"],
            mpi_fault_mode=mode,
            cores_per_executor=4,
            # The collective drains 64 MiB before the crash lands; it needs
            # the larger shuffle for the fault to hit mid-exchange.
            shuffle_bytes=(256 if transport == "mpi-coll" else 64) * MiB,
            deadline_s=120.0,
        )
        report = chaos.run_scenario(scenario)
        key = f"faults.{transport}.{mode}"
        out.sim[f"{key}.completed"] = report.job_completed
        out.sim[f"{key}.faulted_s"] = report.faulted_seconds
        out.sim[f"{key}.recovery_s"] = report.recovery_seconds
        if report.job_completed != should_complete:
            out.problems.append(
                f"{key}: job_completed={report.job_completed}, expected "
                f"{should_complete} ({report.job_failure})"
            )
        recovery += report.recovery_seconds
        retries += report.task_retries
        resubmits += report.stage_resubmissions
        lost += report.executors_lost
    out.sim["recovery_s"] = recovery
    out.counts["faults.task_retries"] = retries
    out.counts["faults.stage_resubmissions"] = resubmits
    out.counts["faults.executors_lost"] = lost


def _jobserver(inputs: dict, out: Outcome) -> None:
    from repro.harness.systems import FRONTERA
    from repro.jobserver import schedulers, server
    from repro.spark import deploy

    cluster = deploy.SparkSimCluster(
        FRONTERA, 4, "mpi-opt", cores_per_executor=8,
        seed=inputs["cluster_seed"], obs_enabled=True,
    )
    result = server.run_trace(
        cluster, schedulers.FairShareScheduler(), inputs["arrivals"]
    )
    failed = [r.request.name for r in result.records if r.failed]
    if failed or len(result.finished) != len(inputs["arrivals"]):
        out.problems.append(
            f"jobserver: {len(result.finished)}/{len(inputs['arrivals'])} "
            f"jobs finished, failed: {failed}"
        )
    jcts = result.jcts()
    out.sim["jobserver.makespan_s"] = result.makespan_s
    out.sim["jobserver.jct_p50_s"] = statistics.median(jcts) if jcts else 0.0
    out.sim["jobserver.jct_sum_s"] = sum(jcts)
    delays = result.queue_delays()
    out.counts["jobserver.queue_delay_p50_s"] = (
        statistics.median(delays) if delays else 0.0
    )


def _causal(inputs: dict, out: Outcome) -> None:
    from repro.harness.systems import FRONTERA
    from repro.obs import critpath, diff, whatif
    from repro.spark import deploy

    profile = inputs["fig9_profile"]
    results = {}
    events = dropped = 0
    gap = 0.0
    for transport in ("mpi-basic", "mpi-opt"):
        sim = deploy.SparkSimCluster(
            FRONTERA, 2, transport, seed=inputs["cluster_seed"], obs_causal=True
        )
        sim.launch()
        result = sim.run_profile(profile)
        sim.shutdown()
        results[transport] = result
        _check_read_bytes(
            inputs["fig9_read_bytes"], result.metrics, f"causal {transport}",
            out.problems,
        )
        flight = result.flight
        events += len(flight)
        dropped += flight.dropped
        if flight.dropped:
            out.problems.append(f"causal {transport}: flight dropped {flight.dropped}")
        report = critpath.analyze(flight, transport)
        cell_gap = abs(report.total_seconds - result.total_seconds) / result.total_seconds
        gap = max(gap, cell_gap)
        if cell_gap > CRITPATH_GAP_LIMIT:
            out.problems.append(
                f"causal {transport}: critical path {report.total_seconds:.6f} s "
                f"vs simulated {result.total_seconds:.6f} s"
            )
        model = whatif.ReplayModel.from_flight(flight, transport=transport)
        retimed = model.retime()
        if retimed.wall_s != model.wall_s:
            out.problems.append(
                f"causal {transport}: identity retime {retimed.wall_s!r} != "
                f"recorded {model.wall_s!r}"
            )
        out.sim[f"causal.{transport}.job_s"] = result.total_seconds
        out.sim[f"causal.{transport}.shuffle_read_s"] = result.shuffle_read_seconds()
        out.sim[f"causal.{transport}.critpath_s"] = report.total_seconds
        out.sim[f"causal.{transport}.retime_s"] = retimed.wall_s
    report = diff.diff_runs(
        results["mpi-basic"], results["mpi-opt"],
        a_label="mpi-basic", b_label="mpi-opt",
    )
    try:
        report.check()
    except AssertionError as exc:
        out.problems.append(f"causal diff: {exc}")
    out.sim["causal.diff.wall_delta_s"] = report.wall_delta_s
    # The Fig-9 pair is the mix's fixed-input part: its answers are the
    # same on every seed, unlike the job server's and the fault cells'.
    out.sim["job_s"] = sum(r.total_seconds for r in results.values())
    out.sim["shuffle_read_s"] = sum(
        r.shuffle_read_seconds() for r in results.values()
    )
    out.counts["obs.flight_events"] = events
    out.counts["obs.flight_dropped"] = dropped
    out.counts["obs.critpath_gap"] = gap


def _mix_run(inputs: dict) -> Outcome:
    out = Outcome(sim={})
    _pingpong(out.sim)
    _faults(inputs, out)
    _jobserver(inputs, out)
    _causal(inputs, out)
    out.sim["jct_s"] = out.sim["jobserver.jct_p50_s"]
    return out


_gb_generate, _gb_run = _big_job(8, "mpi-basic", _groupby_profile)
_ts_generate, _ts_run = _big_job(16, "mpi-opt", _terasort_profile)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("groupby-basic-8w", _gb_generate, _gb_run),
        Workload("terasort-opt-16w", _ts_generate, _ts_run),
        Workload("interactive-mix", _mix_generate, _mix_run),
    )
}
