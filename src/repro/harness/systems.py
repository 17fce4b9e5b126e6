"""The three evaluation systems (paper Table III)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.simnet.interconnect import IB_EDR, IB_HDR, OPA, Fabric
from repro.util.units import GiB


@dataclass(frozen=True)
class SystemConfig:
    """Hardware description of one testbed."""

    name: str
    num_nodes: int
    processor: str
    clock_ghz: float
    sockets: int
    cores_per_socket: int
    ram_bytes: int
    hyperthreading: bool
    fabric: Fabric

    @property
    def cores_per_node(self) -> int:
        return self.sockets * self.cores_per_socket

    @property
    def threads_per_node(self) -> int:
        return self.cores_per_node * (2 if self.hyperthreading else 1)

    @property
    def interconnect(self) -> str:
        return self.fabric.name


# Table III, verbatim.
FRONTERA = SystemConfig(
    name="Frontera",
    num_nodes=18,
    processor="Xeon Platinum",
    clock_ghz=2.7,
    sockets=2,
    cores_per_socket=28,
    ram_bytes=192 * GiB,
    hyperthreading=False,
    fabric=IB_HDR,
)

STAMPEDE2 = SystemConfig(
    name="Stampede2",
    num_nodes=10,
    processor="Xeon Platinum",
    clock_ghz=2.1,
    sockets=2,
    cores_per_socket=28,
    ram_bytes=192 * GiB,
    hyperthreading=True,
    fabric=OPA,
)

INTERNAL_CLUSTER = SystemConfig(
    name="Internal Cluster",
    num_nodes=2,
    processor="Xeon Broadwell",
    clock_ghz=2.1,
    sockets=2,
    cores_per_socket=14,
    ram_bytes=128 * GiB,
    hyperthreading=False,
    fabric=IB_EDR,
)

SYSTEMS = {s.name: s for s in (FRONTERA, STAMPEDE2, INTERNAL_CLUSTER)}


def system_by_name(name: str) -> SystemConfig:
    """Look up a Table III system by name, ignoring case."""
    for key, system in SYSTEMS.items():
        if key.lower() == name.lower():
            return system
    raise ValueError(f"unknown system {name!r}; known systems: {', '.join(SYSTEMS)}")
