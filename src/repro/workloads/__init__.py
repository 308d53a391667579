"""Workload substrate: Table 5 profiles, phases, multiprogramming."""

from .applications import (
    APP_BY_NAME,
    REF_FREQ_HZ,
    REF_VDD,
    AppProfile,
    SPEC_APPS,
    get_app,
)
from .phases import PHASE_CORRELATION, PhaseState, PhasedApplication
from .multiprogram import Workload, make_workload
from .parallel import ParallelApplication

__all__ = [
    "APP_BY_NAME",
    "AppProfile",
    "PHASE_CORRELATION",
    "PhaseState",
    "ParallelApplication",
    "PhasedApplication",
    "REF_FREQ_HZ",
    "REF_VDD",
    "SPEC_APPS",
    "Workload",
    "get_app",
    "make_workload",
]
