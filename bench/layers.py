"""Host-time spans around the public entry points of each ``repro`` layer.

The tracer wraps functions from outside; nothing in ``repro`` changes.  A
wrapped call records one span: its duration, and its *self* time, which is
the duration minus the time its wrapped children took.  Because every span
nests inside its caller's, the self times of one operation add up to the
operation's wall time.  Spans are kept in memory: per-function totals for
every span, plus the full span list (name, start, end, parent) of the top
few levels, written out when the benchmark ends.

Code that the kernel resumes rather than calls -- generator bodies (task
processes, event loops, Basic's poll loop) and scheduled callbacks -- cannot
be wrapped this way.  Its time stays in the kernel's self time
(``SimEngine.run``); :func:`kernel_resident` lists those bodies per layer.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import sys
import time

# Layer -> wrapped entry points.  ``module:Class.method`` wraps the method on
# the class and on every subclass that overrides it; ``module:function@m1,m2``
# wraps a module function under its name in each module that looks it up.
LAYERS: dict[str, tuple[str, ...]] = {
    "simnet.kernel": (
        "repro.simnet.engine:SimEngine.run",
        "repro.simnet.engine:SimEngine.step",
    ),
    "simnet.fluid": (
        "repro.simnet.fluid:FluidNetwork.transfer",
        "repro.simnet.fluid:FluidNetwork.abort_flows",
    ),
    "simnet.net": (
        "repro.simnet.topology:SimCluster.wire_path",
        "repro.simnet.topology:SimCluster.transfer_async",
        "repro.simnet.sockets:SimSocket.send",
        "repro.simnet.sockets:SimSocket.recv",
        "repro.simnet.sockets:SimSocket.recv_nowait",
        "repro.simnet.sockets:SocketStack.listen",
        "repro.simnet.sockets:SocketStack.connect",
    ),
    "mpi": (
        "repro.mpi.matching:MatchingEngine.deliver",
        "repro.mpi.matching:MatchingEngine.post_recv",
        "repro.mpi.matching:MatchingEngine.iprobe",
        "repro.mpi.communicator:Comm.isend",
        "repro.mpi.communicator:Comm.irecv",
        "repro.mpi.communicator:Comm.iprobe",
        "repro.mpi.runtime:MPIWorld.launch",
        "repro.mpi.runtime:MPIWorld.create_processes",
    ),
    "core": (
        "repro.core.mpi_netty:basic_transport_write@repro.transports.mpi_basic",
        "repro.core.mpi_netty:optimized_transport_write@repro.transports.mpi_opt",
        "repro.core.mpi_netty:MpiBodyReceiveHandler.channel_read",
    ),
    "netty": (
        "repro.netty.pipeline:ChannelPipeline.fire_channel_read",
        "repro.netty.pipeline:ChannelPipeline.write",
        "repro.netty.selector:Selector.select_now",
        "repro.netty.frame:encode_frame_header@repro.spark.messages",
        "repro.netty.frame:decode_frame_header@repro.spark.messages",
    ),
    "transport": (
        "repro.transports:make_transport@repro.spark.deploy,repro.harness.pingpong",
        "repro.transports.base:Transport.make_loop",
        "repro.transports.base:Transport.pipeline_hook",
        "repro.transports.mpi_coll:MpiCollectiveTransport.start_exchange",
    ),
    "spark": (
        "repro.spark.deploy:SparkSimCluster.launch",
        "repro.spark.deploy:SparkSimCluster.run_profile",
        "repro.spark.deploy:SparkSimCluster.run_application",
        "repro.spark.deploy:SparkSimCluster.shutdown",
        "repro.spark.deploy:SparkSimCluster.start_collective_exchange",
        "repro.spark.deploy:ShuffleOpenBlocksHandler.receive",
        "repro.spark.network:TransportRequestHandler.channel_read",
        "repro.spark.network:TransportResponseHandler.channel_read",
        "repro.spark.network:TransportClient.fetch_chunk",
        "repro.spark.network:TransportClient.send_rpc",
    ),
    "workloads": (
        "repro.workloads.ohb:OhbWorkload.build_profile",
        "repro.workloads.ohb:OhbWorkload.trace_sample",
        "repro.workloads.hibench.suite:HiBenchSpec.build_profile",
    ),
    "harness": (
        "repro.harness.tracecache:get_or_trace"
        "@repro.workloads.ohb,repro.workloads.hibench.suite",
        "repro.harness.pingpong:run_pingpong",
    ),
    "jobserver": (
        "repro.jobserver.server:run_trace",
        "repro.jobserver.server:JobServer.run",
        "repro.jobserver.server:JobServer.apply_plan",
        "repro.jobserver.server:JobServer.view",
        "repro.jobserver.schedulers:InterJobScheduler.plan",
    ),
    "faults": (
        "repro.faults.chaos:run_scenario",
        "repro.faults.chaos:make_chaos_profile",
        "repro.faults.recovery:ResilientScheduler.run_profile",
        "repro.faults.injector:FaultInjector.install",
        "repro.faults.injector:FaultInjector.arm",
    ),
    "obs": (
        "repro.obs.critpath:analyze",
        "repro.obs.diff:diff_runs",
        "repro.obs.whatif:ReplayModel.from_flight",
        "repro.obs.whatif:ReplayModel.retime",
        "repro.obs.causal:CausalTracer.mint",
        "repro.obs.causal:CausalTracer.child",
        "repro.obs.causal:CausalTracer.send",
        "repro.obs.causal:CausalTracer.recv",
        "repro.obs.causal:CausalTracer.match",
        "repro.obs.causal:CausalTracer.join",
        "repro.obs.causal:CausalTracer.event",
    ),
}

# Analyzer entry points whose inclusive time is ``obs.analyze_s``.
OBS_ANALYZERS = (
    "repro.obs.critpath:analyze",
    "repro.obs.diff:diff_runs",
    "repro.obs.whatif:ReplayModel.from_flight",
    "repro.obs.whatif:ReplayModel.retime",
)

# Module prefixes each layer's code lives under (for kernel_resident).
LAYER_MODULES: dict[str, tuple[str, ...]] = {
    "simnet": ("repro.simnet",),
    "mpi": ("repro.mpi",),
    "core": ("repro.core",),
    "netty": ("repro.netty",),
    "transport": ("repro.transports",),
    "spark": ("repro.spark",),
    "workloads": ("repro.workloads",),
    "harness": ("repro.harness.tracecache", "repro.harness.runcache",
                "repro.harness.pingpong"),
    "jobserver": ("repro.jobserver",),
    "faults": ("repro.faults",),
    "obs": ("repro.obs",),
}

# Keep the full span record for spans at most this deep (the operation's
# root span is depth 1); deeper spans only feed the per-function totals.
RAW_SPAN_DEPTH = 3


class Recorder:
    """In-memory span store shared by every wrapper."""

    def __init__(self) -> None:
        # key -> [calls, inclusive seconds, self seconds]
        self.stats: dict[str, list] = {}
        self.layer_of: dict[str, str] = {}
        # One frame per open span: [child seconds, raw span index or -1].
        self.stack: list[list] = [[0.0, -1]]
        self.spans: list[list] = []  # [key, start, end, parent index]
        self.generators: set[str] = set()  # targets left unwrapped
        self._undo: list[tuple] = []

    # -- wrapping ------------------------------------------------------------------
    def wrap(self, fn, key: str, layer: str):
        stats = self.stats.setdefault(key, [0, 0.0, 0.0])
        self.layer_of[key] = layer
        stack = self.stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if len(stack) <= RAW_SPAN_DEPTH:
                idx = len(spans)
                spans.append([key, 0.0, 0.0, parent[1]])
            else:
                idx = -1
            frame = [0.0, idx]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]
                parent[0] += dur
                if idx >= 0:
                    spans[idx][1] = t0
                    spans[idx][2] = t1

        return wrapper

    def install(self) -> None:
        """Wrap every target in :data:`LAYERS` (before clusters are built)."""
        for layer, targets in LAYERS.items():
            for target in targets:
                self._install_target(target, layer)

    def _install_target(self, target: str, layer: str) -> None:
        path, _, lookups = target.partition("@")
        module_name, _, qualname = path.partition(":")
        module = importlib.import_module(module_name)
        key = path
        if "." in qualname:
            cls_name, meth = qualname.split(".")
            classes = _with_subclasses(getattr(module, cls_name))
            for cls in classes:
                raw = cls.__dict__.get(meth)
                if raw is None:
                    continue
                sub_key = key if cls.__name__ == cls_name else (
                    f"{cls.__module__}:{cls.__name__}.{meth}"
                )
                self._wrap_attr(cls, meth, raw, sub_key, layer)
            return
        fn = getattr(module, qualname)
        if inspect.isgeneratorfunction(fn):
            self.generators.add(key)
            return
        wrapped = self.wrap(fn, key, layer)
        homes = [module_name] + [m for m in lookups.split(",") if m]
        for home in homes:
            mod = importlib.import_module(home)
            if getattr(mod, qualname, None) is fn:
                self._undo.append((mod, qualname, fn))
                setattr(mod, qualname, wrapped)

    def _wrap_attr(self, cls, name: str, raw, key: str, layer: str) -> None:
        if isinstance(raw, (classmethod, staticmethod)):
            fn = raw.__func__
            kind = type(raw)
        else:
            fn, kind = raw, None
        if inspect.isgeneratorfunction(fn):
            self.generators.add(key)
            return
        wrapped = self.wrap(fn, key, layer)
        self._undo.append((cls, name, raw))
        setattr(cls, name, wrapped if kind is None else kind(wrapped))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    # -- reading -------------------------------------------------------------------
    def totals(self) -> dict[str, tuple[int, float, float]]:
        return {k: (v[0], v[1], v[2]) for k, v in self.stats.items()}


def _with_subclasses(cls) -> list:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        if c not in out:
            out.append(c)
            todo.extend(c.__subclasses__())
    return out


def delta(after: dict, before: dict) -> dict[str, tuple[int, float, float]]:
    """Per-key (calls, inclusive s, self s) accrued between two totals()."""
    out = {}
    for key, (n, inc, own) in after.items():
        n0, inc0, own0 = before.get(key, (0, 0.0, 0.0))
        if n != n0:
            out[key] = (n - n0, inc - inc0, own - own0)
    return out


def kernel_resident() -> dict[str, list[str]]:
    """Generator functions per layer: bodies that run inside kernel self time."""
    out: dict[str, list[str]] = {}
    for layer, prefixes in LAYER_MODULES.items():
        names = []
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not mod_name.startswith(prefixes):
                continue
            for attr, obj in vars(mod).items():
                if getattr(obj, "__module__", None) != mod_name:
                    continue
                if inspect.isgeneratorfunction(obj):
                    names.append(f"{mod_name}:{attr}")
                elif inspect.isclass(obj):
                    for meth, fn in vars(obj).items():
                        fn = getattr(fn, "__func__", fn)
                        if inspect.isgeneratorfunction(fn):
                            names.append(f"{mod_name}:{attr}.{meth}")
        out[layer] = names
    return out


class GcTimer:
    """Seconds spent in the cyclic garbage collector, via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self._t0 = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._t0 = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._t0

    def __enter__(self) -> "GcTimer":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)
