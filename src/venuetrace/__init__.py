"""Venue-based privacy-preserving automated contact tracing.

Protocol library (sense/report/trace state machines plus the supporting
commitment, certification, and Bloom-digest machinery), two baseline
protocols (TraceTogether, DP-3T low-cost), and a deterministic multi-party
simulator with adversary scenarios and ground-truth metrics.
"""

from .actors import (
    BackendServer,
    HealthAuthority,
    RejectionCode,
    RiskPolicy,
    TestCenter,
    UserApp,
    Venue,
    VenuePolicy,
)
from .bloom import BloomFilter, VenueBloomDigest, build_filter, match_batch
from .channel import ChannelModel
from .metrics import ExposurePolicy, MetricsReport, collect_metrics, ground_truth_exposures
from .scenario import Scenario, ScenarioEvent, VenueSpec, validate_scenario
from .schedule import SchedulingParams, derive_window_ephids, epoch_of
from .sim import SimParams, Simulation, SimulationTrace, run

__version__ = "0.1.0"

__all__ = [
    "BackendServer",
    "BloomFilter",
    "ChannelModel",
    "ExposurePolicy",
    "HealthAuthority",
    "MetricsReport",
    "RejectionCode",
    "RiskPolicy",
    "Scenario",
    "ScenarioEvent",
    "SchedulingParams",
    "SimParams",
    "Simulation",
    "SimulationTrace",
    "TestCenter",
    "UserApp",
    "Venue",
    "VenueBloomDigest",
    "VenuePolicy",
    "VenueSpec",
    "build_filter",
    "collect_metrics",
    "derive_window_ephids",
    "epoch_of",
    "ground_truth_exposures",
    "match_batch",
    "run",
    "validate_scenario",
]
