#!/usr/bin/env python3
"""The repository benchmark: three workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 bench/run.py --workload groupby-basic-8w --seed 0 --seconds 30 --trace 0

One process runs one workload serially (no process pool, no threads):

1. set-up, repeated ``SETUP_REPEATS`` times: a fresh interpreter imports the
   program, then the workload's inputs are generated from ``--seed`` with a
   cold sample-trace cache in a private directory;
2. one untimed warm-up operation;
3. ``--trace 0``: operations for ``--seconds`` seconds (at least
   ``MIN_OPS``; no operation is started that would, at the last one's
   pace, end later), each after a run of the host-speed probe; reports the
   end-to-end metrics.
   ``--trace 1``: one traced set-up, then pairs of an untraced and a
   traced operation (wrapped by ``layers.py``) for ``--seconds`` seconds;
   reports the per-layer metrics.

Every operation is checked (``ops.py`` lists the checks; the simulated
answers and event count must also match the first operation and, at
``DEFAULT_SEED``, ``reference.json``).  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 only if every check passed.  Metric names and units come from
``BENCHMARK.json``; ``metrics.json`` beside this file says where each one
comes from and which end-to-end metric it should move.

Caches, ledger and sample traces go to a private directory under
``.bench_tmp/`` that is removed at exit; traced runs write their spans to
``.bench_out/``.  Apart from Python's bytecode caches, nothing else in the
tree is written.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fnmatch import fnmatchcase
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
REFERENCE_PATH = HERE / "reference.json"

DEFAULT_SEED = 0
SETUP_REPEATS = 5
MIN_OPS = 3
MIN_PAIRS = 1
# Size of the host-speed probe (about 1 s on a 2-CPU shared host).
PROBE_PROCS = 5000
PROBE_EVENTS = 640_000
# Largest share of a traced operation's wall its span self times may leave
# unexplained before the trace is declared broken.
RESIDUAL_LIMIT = 0.01

IMPORTS = (
    "repro.spark.deploy",
    "repro.harness.experiments",
    "repro.harness.pingpong",
    "repro.harness.systems",
    "repro.workloads.ohb",
    "repro.workloads.hibench",
    "repro.jobserver",
    "repro.faults",
    "repro.obs",
)

# Simulated counters summed over every engine an operation built.
COUNTERS = {
    "simnet.fluid.rerates": "simnet.fluid.rerate.calls",
    "simnet.link.tx_bytes": "simnet.link.*.tx_bytes",
    "mpi.iprobe_calls": "mpi.rank.*.iprobe_calls",
    "mpi.unexpected_matches": "mpi.rank.*.unexpected_matches",
    "mpi.sends": "mpi.world.sends_*",
    "mpi.sends_rendezvous": "mpi.world.sends_rendezvous",
    "core.poll_rounds": "netty.loop.*.poll_rounds",
    "core.poll_tax_s": "netty.loop.*.poll_tax_s",
    "netty.messages_read": "netty.loop.*.messages_read",
    "netty.loop_busy_s": "netty.loop.*.busy_s",
    "transport.basic_messages": "transport.mpi-basic.messages",
    "transport.basic_bytes": "transport.mpi-basic.bytes",
    "transport.body_messages": "transport.mpi-opt.body.messages",
    "transport.body_bytes": "transport.mpi-opt.body.bytes",
    "transport.socket_messages": "transport.socket.messages",
    "spark.tasks": "spark.*tasks_finished",
    "spark.fetch_wait_s": "spark.*fetch_wait_s",
    "spark.remote_fetch_bytes": "spark.*remote_fetch_bytes",
}
HISTOGRAM_TOTALS = {"mpi.match_wait_s": "mpi.rank.*.recv_match_wait_s"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--update-reference", action="store_true",
        help="store this run's simulated answers as the default-seed reference",
    )
    return p.parse_args(argv)


# -- process-level helpers -------------------------------------------------------

class EngineLog:
    """Every SimEngine built since the last ``take()`` (wraps ``__init__``)."""

    def __init__(self) -> None:
        from repro.simnet import engine

        self.cls = engine.SimEngine
        self.original = self.cls.__init__
        self.engines: list = []
        log, original = self.engines, self.original

        def init(env, *args, **kwargs):
            original(env, *args, **kwargs)
            log.append(env)

        self.cls.__init__ = init

    def take(self) -> list:
        engines = list(self.engines)
        self.engines.clear()
        return engines

    def close(self) -> None:
        self.cls.__init__ = self.original


def sim_counts(engines) -> dict[str, float]:
    """Events and registry totals summed over the operation's engines."""
    out = dict.fromkeys(["simnet.events", *COUNTERS, *HISTOGRAM_TOTALS], 0.0)
    for env in engines:
        out["simnet.events"] += env.events_processed
        snap = env.metrics.snapshot()
        for name, pattern in COUNTERS.items():
            out[name] += snap.total(pattern)
        for name, pattern in HISTOGRAM_TOTALS.items():
            out[name] += sum(
                h.total for n, h in snap.histograms.items()
                if h is not None and fnmatchcase(n, pattern)
            )
    return out


def import_seconds(env: dict) -> float:
    """Import time of the program in a fresh interpreter."""
    code = (
        "import time\nt = time.perf_counter()\n"
        + "".join(f"import {m}\n" for m in IMPORTS)
        + "print(time.perf_counter() - t)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def host_probe() -> float:
    """Wall seconds of a fixed pure-Python workload: the host-speed probe.

    A small discrete-event loop -- generators resumed off a heap, dict
    updates -- the same kind of work as the simulator's kernel but none of
    its code.  On a shared host the speed of such code drifts by up to a
    third over minutes; run between operations, the probe drifts with the
    program and ``wall_rel`` divides the drift out.
    """
    def proc(pid: int, state: dict):
        recent = []
        while True:
            state["n"] += 1
            recent.append(state["n"] & 7)
            if len(recent) > 8:
                recent.pop(0)
            yield 0.5 + (pid % 13) * 0.1 + recent[-1] * 0.01

    gc.collect()
    t0 = time.perf_counter()
    procs = [proc(pid, {"n": 0, "pid": pid}) for pid in range(PROBE_PROCS)]
    heap = [((pid * 7919) % PROBE_PROCS / PROBE_PROCS, pid, pid) for pid in range(PROBE_PROCS)]
    heapq.heapify(heap)
    seq = PROBE_PROCS
    for _ in range(PROBE_EVENTS):
        t, _seq, pid = heapq.heappop(heap)
        seq += 1
        heapq.heappush(heap, (t + next(procs[pid]), seq, pid))
    return time.perf_counter() - t0


def median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


# -- the run -------------------------------------------------------------------------

class Run:
    def __init__(self, args, workdir: Path) -> None:
        import ops

        self.args = args
        self.workdir = workdir
        if args.workload not in ops.WORKLOADS:
            raise SystemExit(
                f"unknown workload {args.workload!r}; choose from "
                f"{', '.join(ops.WORKLOADS)}"
            )
        self.workload = ops.WORKLOADS[args.workload]
        self.engines = EngineLog()
        self.attempted = 0
        self.failures: list[str] = []  # one entry per failed operation
        self.problems: list[str] = []  # failed checks of the run as a whole
        self.first: tuple | None = None  # (sim answers, events) of op 1
        self.reference = self._reference()
        self._cache_seq = 0

    def _reference(self):
        if self.args.seed != DEFAULT_SEED or not REFERENCE_PATH.exists():
            return None
        refs = json.loads(REFERENCE_PATH.read_text())
        return refs.get("workloads", {}).get(self.args.workload)

    # -- set-up ----------------------------------------------------------------
    def fresh_trace_cache(self) -> None:
        from repro.harness import tracecache

        self._cache_seq += 1
        os.environ["REPRO_TRACE_CACHE_DIR"] = str(
            self.workdir / f"tracecache-{self._cache_seq}"
        )
        tracecache.clear_memory_cache()

    def generate(self) -> tuple[dict, float, dict]:
        """One cold set-up: (inputs, seconds, trace-cache stats delta)."""
        from repro.harness import tracecache

        self.fresh_trace_cache()
        before = tracecache.trace_cache_stats()
        t0 = time.perf_counter()
        inputs = self.workload.generate(self.args.seed)
        secs = time.perf_counter() - t0
        after = tracecache.trace_cache_stats()
        stats = {k: after[k] - before[k] for k in after}
        return inputs, secs, stats

    def setup(self) -> tuple[dict, list[float]]:
        child_env = dict(os.environ, PYTHONPATH=str(SRC))
        times = []
        inputs = None
        for _ in range(SETUP_REPEATS):
            imp = import_seconds(child_env)
            inputs, gen, _stats = self.generate()
            times.append(imp + gen)
        return inputs, times

    # -- operations ------------------------------------------------------------
    def op(self, inputs: dict, run=None):
        """One checked operation: (wall s, cpu s, outcome | None, counts)."""
        run = run or self.workload.run
        gc.collect()
        self.engines.take()
        self.attempted += 1
        problems: list[str] = []
        outcome = None
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            outcome = run(inputs)
        except Exception:  # noqa: BLE001 - a raising operation is a failure
            problems.append(traceback.format_exc(limit=4).strip())
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        counts = sim_counts(self.engines.take())
        if outcome is not None:
            problems.extend(outcome.problems)
            problems.extend(self._compare(outcome.sim, counts["simnet.events"]))
        from repro.harness.runcache import run_cache_stats

        rstats = run_cache_stats()
        if rstats["hits_mem"] + rstats["hits_disk"]:
            problems.append("an operation was served from the run cache")
        if problems:
            self.failures.append(
                f"op {self.attempted}: " + "; ".join(problems)
            )
        return wall, cpu, outcome, counts

    def _compare(self, sim: dict, events: float) -> list[str]:
        problems = []
        if self.first is None:
            self.first = (sim, events)
        else:
            if sim != self.first[0]:
                problems.append(
                    "simulated answers differ from the first operation: "
                    + _diff_keys(self.first[0], sim)
                )
            if events != self.first[1]:
                problems.append(f"events {events:.0f} != first {self.first[1]:.0f}")
        if self.reference is not None:
            ref_sim = self.reference["sim"]
            if sim != ref_sim:
                problems.append(
                    "simulated answers differ from reference.json: "
                    + _diff_keys(ref_sim, sim)
                )
            if events != self.reference["events"]:
                problems.append(
                    f"events {events:.0f} != reference {self.reference['events']}"
                )
        return problems

    def measure(self, inputs: dict, seconds: float, min_ops: int):
        """At least ``min_ops`` operations, each after a host-speed probe;
        more while the next pair (as long as the last) ends within
        ``seconds``.  Returns (operation rows, probe seconds)."""
        rows, probes = [], []
        start = time.perf_counter()
        while len(rows) < min_ops or (
            time.perf_counter() - start + rows[-1][0] + probes[-1] <= seconds
        ):
            probes.append(host_probe())
            rows.append(self.op(inputs))
        return rows, probes


def _diff_keys(a: dict, b: dict) -> str:
    keys = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
    shown = ", ".join(f"{k}: {a.get(k)!r} -> {b.get(k)!r}" for k in keys[:4])
    return shown + (f" (+{len(keys) - 4} more)" if len(keys) > 4 else "")


# -- metric assembly ---------------------------------------------------------------

def sim_answers(run: Run) -> dict[str, float]:
    """The simulated answers, as metrics (0 where a workload has none)."""
    sim = run.first[0] if run.first else {}
    return {
        "sim_job_s": sim.get("job_s", 0.0),
        "sim_shuffle_read_s": sim.get("shuffle_read_s", 0.0),
        "sim_jct_p50_s": sim.get("jct_s", 0.0),
        "jobserver.makespan_s": sim.get("jobserver.makespan_s", 0.0),
        "sim_recovery_s": sim.get("recovery_s", 0.0),
        "sim_pingpong_1B_us": sim.get("pingpong.mpi-basic.1B_us", 0.0),
        "sim_pingpong_4MiB_us": sim.get(f"pingpong.mpi-basic.{4 << 20}B_us", 0.0),
    }


def end_to_end(run: Run, setup_times, rows, probes) -> dict[str, float]:
    walls = [r[0] for r in rows]
    # Means, not medians: the host flips between a fast and a slow state
    # every few seconds, so a short probe lands in one state or the other
    # and only its mean estimates how long the run spent in each.
    return {
        "wall_rel": statistics.fmean(walls) / statistics.fmean(probes),
        "host.wall_s": median(walls),
        "host.probe_s": statistics.fmean(probes),
        "setup_s": median(setup_times),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **sim_answers(run),
    }


def per_layer(run: Run, inputs: dict, seconds: float) -> tuple[dict, dict]:
    """One traced set-up, then untraced and traced operations alternately.

    Alternating pairs the two kinds of operation in time, so host-speed
    drift cancels out of ``trace.overhead``.  The wrappers go in before each
    traced operation builds its clusters and come out after it.  Returns
    (metrics, span dump).
    """
    import layers

    rec = layers.Recorder()
    rec.install()
    try:
        before = rec.totals()
        _inputs, _secs, cache_stats = rec.wrap(run.generate, "bench:setup", "bench")()
        setup_spans = layers.delta(rec.totals(), before)
    finally:
        rec.uninstall()
    traced_op = rec.wrap(run.workload.run, "bench:op", "bench")
    gc_per_op, rows, walls, per_op = [], [], [], []

    def untraced(inputs):
        before = gct.seconds
        try:
            return run.workload.run(inputs)
        finally:
            gc_per_op.append(gct.seconds - before)

    start = time.perf_counter()
    with layers.GcTimer() as gct:
        while len(walls) < MIN_PAIRS or (
            time.perf_counter() - start + rows[-1][0] + walls[-1] <= seconds
        ):
            rows.append(run.op(inputs, untraced))
            rec.install()
            try:
                before = rec.totals()
                walls.append(run.op(inputs, traced_op)[0])
                per_op.append(layers.delta(rec.totals(), before))
            finally:
                rec.uninstall()
    wall0 = median([r[0] for r in rows])
    outcome0, counts = rows[0][2], rows[0][3]

    def layer_sum(spans, layer, field):
        return sum(v[field] for k, v in spans.items() if rec.layer_of[k] == layer)

    def inclusive(spans, keys):
        return sum(spans[k][1] for k in keys if k in spans)

    m: dict[str, float] = {}
    for layer in layers.LAYERS:
        m[f"{layer}.calls"] = median([layer_sum(s, layer, 0) for s in per_op])
        m[f"{layer}.self_s"] = median([layer_sum(s, layer, 2) for s in per_op])
    m["bench.self_s"] = median([layer_sum(s, "bench", 2) for s in per_op])
    residuals = [
        abs(w - sum(v[2] for v in s.values())) / w for w, s in zip(walls, per_op)
    ]
    extra = outcome0.counts if outcome0 is not None else {}
    events = counts["simnet.events"]
    sends = counts["mpi.sends"]
    m.update(
        {
            "simnet.events": events,
            "simnet.events_per_s": events / wall0 if wall0 > 0 else 0.0,
            "host.wall_s": wall0,
            "simnet.fluid.rerates": counts["simnet.fluid.rerates"],
            "simnet.link.tx_bytes": counts["simnet.link.tx_bytes"],
            "mpi.iprobe_calls": counts["mpi.iprobe_calls"],
            "mpi.iprobe_hit_ratio": (
                counts["mpi.unexpected_matches"] / counts["mpi.iprobe_calls"]
                if counts["mpi.iprobe_calls"] else 0.0
            ),
            "mpi.sends": sends,
            "mpi.rendezvous_share": (
                counts["mpi.sends_rendezvous"] / sends if sends else 0.0
            ),
            "mpi.match_wait_s": counts["mpi.match_wait_s"],
            "core.poll_rounds": counts["core.poll_rounds"],
            "core.poll_tax_s": counts["core.poll_tax_s"],
            "netty.messages_read": counts["netty.messages_read"],
            "netty.loop_busy_s": counts["netty.loop_busy_s"],
            "transport.messages": (
                counts["transport.basic_messages"] + counts["transport.body_messages"]
            ),
            "transport.bytes": (
                counts["transport.basic_bytes"] + counts["transport.body_bytes"]
            ),
            "transport.socket_messages": counts["transport.socket_messages"],
            "spark.launch_s": median(
                [inclusive(s, ["repro.spark.deploy:SparkSimCluster.launch"])
                 for s in per_op]
            ),
            "spark.tasks": counts["spark.tasks"],
            "spark.fetch_wait_s": counts["spark.fetch_wait_s"],
            "spark.remote_fetch_bytes": counts["spark.remote_fetch_bytes"],
            "workloads.build_profile_s": inclusive(
                setup_spans,
                ["repro.workloads.ohb:OhbWorkload.build_profile",
                 "repro.workloads.hibench.suite:HiBenchSpec.build_profile"],
            ),
            "harness.trace_cache.hits": cache_stats["hits_mem"] + cache_stats["hits_disk"],
            "harness.trace_cache.misses": cache_stats["misses"],
            "harness.trace_cache.sample_runs": cache_stats["sample_runs"],
            "jobserver.queue_delay_p50_s": extra.get("jobserver.queue_delay_p50_s", 0.0),
            "faults.task_retries": extra.get("faults.task_retries", 0.0),
            "faults.stage_resubmissions": extra.get("faults.stage_resubmissions", 0.0),
            "faults.executors_lost": extra.get("faults.executors_lost", 0.0),
            "obs.analyze_s": median([inclusive(s, layers.OBS_ANALYZERS) for s in per_op]),
            "obs.flight_events": extra.get("obs.flight_events", 0.0),
            "obs.flight_dropped": extra.get("obs.flight_dropped", 0.0),
            "obs.critpath_gap": extra.get("obs.critpath_gap", 0.0),
            "host.gc_s": median(gc_per_op),
            "host.cpu_s": median([r[1] for r in rows]),
            "trace.overhead": median([t / r[0] for t, r in zip(walls, rows)]),
            "trace.residual_share": median(residuals),
            **sim_answers(run),
        }
    )
    from repro.harness.runcache import run_cache_stats

    rstats = run_cache_stats()
    m["harness.run_cache.hits"] = rstats["hits_mem"] + rstats["hits_disk"]
    if max(residuals) > RESIDUAL_LIMIT:
        run.problems.append(
            f"trace: span self times leave {max(residuals):.2%} of a traced "
            "operation's wall unexplained"
        )
    dump = {
        "workload": run.args.workload,
        "seed": run.args.seed,
        "untraced_wall_s": [r[0] for r in rows],
        "traced_wall_s": walls,
        "setup_spans": setup_spans,
        "op_spans": per_op,
        "layer_of": rec.layer_of,
        "spans": [
            {"name": k, "start": t0, "end": t1, "parent": parent}
            for k, t0, t1, parent in rec.spans
        ],
        "not_wrapped_generators": sorted(rec.generators),
        "kernel_resident": layers.kernel_resident(),
    }
    return m, dump


# Printed metrics that BENCHMARK.json does not list.
EXTRA_UNITS = {"failed_frac": "ratio", "host.probe_s": "s"}


def report(spec: dict, section: str, metrics: dict) -> dict:
    """Print every computed metric readably; return the section's JSON map.

    The section's metrics come first, with their direction; the rest (the
    simulated answers that are per-layer entries, ``failed_frac``) follow.
    """
    entries = {e["name"]: e for sec in ("end_to_end", "per_layer") for e in spec[sec]}
    out = {}
    for entry in spec[section]:
        name = entry["name"]
        if name not in metrics:
            raise KeyError(f"benchmark computes no metric named {name!r}")
        out[name] = {"value": metrics[name], "unit": entry["unit"]}
        print(f"{name:32s} {metrics[name]:>16.6g} {entry['unit']:8s} "
              f"({entry['better']} is better)")
    for name, value in metrics.items():
        if name not in out:
            unit = entries[name]["unit"] if name in entries else EXTRA_UNITS[name]
            print(f"{name:32s} {value:>16.6g} {unit:8s}")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=tmp_root))
    os.environ.update(
        REPRO_TRACE_CACHE="1",
        REPRO_TRACE_CACHE_DIR=str(workdir / "tracecache"),
        REPRO_RUN_CACHE_DIR=str(workdir / "runcache"),
        REPRO_LEDGER_PATH=str(workdir / "ledger.jsonl"),
    )
    for module in IMPORTS:
        importlib.import_module(module)
    run = None
    try:
        run = Run(args, workdir)
        inputs, setup_times = run.setup()
        run.op(inputs)  # warm-up
        if args.trace:
            metrics, dump = per_layer(run, inputs, args.seconds)
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
            path.write_text(json.dumps(dump))
            print(f"spans written to {path.relative_to(ROOT)}")
            print("generator bodies left in simnet.kernel.self_s, per layer: " + ", ".join(
                f"{layer} {len(names)}" for layer, names in dump["kernel_resident"].items()
            ))
            section = "per_layer"
        else:
            rows, probes = run.measure(inputs, args.seconds, MIN_OPS)
            metrics = end_to_end(run, setup_times, rows, probes)
            section = "end_to_end"
            print(f"{len(rows)} measured operations, walls "
                  + " ".join(f"{r[0]:.3f}" for r in rows)
                  + "; probes " + " ".join(f"{p:.3f}" for p in probes))
        if args.update_reference and args.seed == DEFAULT_SEED and run.first:
            refs = (
                json.loads(REFERENCE_PATH.read_text())
                if REFERENCE_PATH.exists() else {"seed": DEFAULT_SEED, "workloads": {}}
            )
            refs["workloads"][args.workload] = {
                "events": run.first[1], "sim": run.first[0],
            }
            REFERENCE_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    finally:
        if run is not None:
            run.engines.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass
    for failure in run.failures + run.problems:
        print(f"FAILED {failure}")
    metrics["failed_frac"] = len(run.failures) / max(run.attempted, 1)
    out = report(spec, section, metrics)
    correct = not run.failures and not run.problems
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": out,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
