"""mirtaint: demand-driven alias analysis and taint checking for a
three-address micro-IR, with indirect-call resolution and a concrete
differential oracle."""

from . import cfg, icall, ir, oracle, sse, taint
from .alias import (Analysis, FunctionSummary, Seed, Session, Tracked,
                    transfer_function)
from .pipeline import InputError, Report, RunConfig, analyze

__version__ = "0.1.0"

__all__ = [
    "Analysis", "FunctionSummary", "InputError", "Report", "RunConfig", "Seed",
    "Session", "Tracked", "analyze", "cfg", "icall", "ir", "oracle", "sse",
    "taint", "transfer_function", "__version__",
]
