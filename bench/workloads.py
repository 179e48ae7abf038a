"""Benchmark workloads: each one is a protocol plus a population scenario
generated from the benchmark's ``--seed`` argument.

See ``bench/README.md`` for why each workload exists and which layer it
stresses.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    protocol: str
    n_users: int
    n_venues: int
    days: int
    n_infected: int
    why: str

    def infected(self) -> tuple[str, ...]:
        return tuple(f"u{i:02d}" for i in range(self.n_infected))

    def build_kwargs(self, seed: int) -> dict:
        """Keyword arguments for ``scenario.build_population_scenario``."""
        return {
            "n_users": self.n_users,
            "n_venues": self.n_venues,
            "days": self.days,
            "seed": seed,
            "infected": self.infected(),
            "name": self.name,
        }


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="venue-population",
            protocol="venue",
            n_users=100,
            n_venues=5,
            days=3,
            n_infected=2,
            why="venue protocol, 100 users, 2 infected: Pedersen commits and "
            "Ed25519 verifies dominate; Bloom digests are built, rarely queried",
        ),
        Workload(
            name="venue-outbreak",
            protocol="venue",
            n_users=100,
            n_venues=5,
            days=3,
            n_infected=30,
            why="venue protocol, 30 of 100 infected: back-end report checks, "
            "Bloom matching and the ground-truth oracle take a larger share",
        ),
        Workload(
            name="dp3t-crowd",
            protocol="dp3t",
            n_users=100,
            n_venues=5,
            days=3,
            n_infected=2,
            why="DP-3T, 100 users broadcasting 24/7 in one street: each "
            "broadcast scans every user; crypto does almost nothing",
        ),
    )
}
