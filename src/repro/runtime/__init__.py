"""Simulated browser runtime (the substrate JSKernel runs on).

Public surface re-exported here: the browser facade, profiles, and the
building blocks experiments touch directly.
"""

from .browser import Browser
from .clock import (
    ClockPolicy,
    FuzzyClockPolicy,
    PerformanceClock,
    QuantizedClockPolicy,
)
from .dom import Document, Element
from .eventloop import EventLoop
from .heap import SimHeap
from .messaging import MessageEvent
from .network import Resource, SimNetwork
from .origin import URL, Origin, parse_url, same_origin
from .page import Page
from .profiles import ALL_BUGS, BrowserProfile, by_name, chrome, edge, firefox, vulnerable
from .promises import SimPromise
from .rng import RngService
from .simtime import FRAME_INTERVAL, MS, SECOND, US, ms, seconds, to_ms, us
from .simulator import Simulator
from .svgfilter import SimImage
from .task import Task, TaskSource
from .worker import WorkerAgent, WorkerHandle

__all__ = [
    "ALL_BUGS",
    "Browser",
    "BrowserProfile",
    "ClockPolicy",
    "Document",
    "Element",
    "EventLoop",
    "FRAME_INTERVAL",
    "FuzzyClockPolicy",
    "MS",
    "MessageEvent",
    "Origin",
    "Page",
    "PerformanceClock",
    "QuantizedClockPolicy",
    "Resource",
    "RngService",
    "SECOND",
    "SimHeap",
    "SimImage",
    "SimNetwork",
    "SimPromise",
    "Simulator",
    "Task",
    "TaskSource",
    "URL",
    "US",
    "WorkerAgent",
    "WorkerHandle",
    "by_name",
    "chrome",
    "edge",
    "firefox",
    "ms",
    "parse_url",
    "same_origin",
    "seconds",
    "to_ms",
    "us",
    "vulnerable",
]
