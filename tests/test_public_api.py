"""The package's public names: the contract behind ``from stablevc import *``."""

import importlib

import stablevc

PUBLIC_NAMES = [
    "ActionNotEnabled", "AlreadyCrashed", "BroadcastInProgress",
    "ClientMessage", "DomainExhausted", "FaultPlan", "Label", "LabelComponent",
    "LabelConfig", "LabelingState", "NoBroadcast", "NoPivot", "NotCrashed",
    "NotReady", "PreconditionViolated", "ProcessorState", "RandomScheduler",
    "RoundRobinScheduler", "ScenarioError", "ServerMessage", "StableVCError",
    "SystemConfig", "VectorClockItem", "VectorClockPair", "World", "run",
]


def test_all_lists_exactly_the_public_names():
    assert sorted(stablevc.__all__) == sorted(PUBLIC_NAMES)
    assert len(stablevc.__all__) == len(set(stablevc.__all__)) == 26


def test_every_public_name_imports():
    namespace = {}
    exec("from stablevc import *", namespace)
    fresh = importlib.import_module("stablevc")
    for name in PUBLIC_NAMES:
        assert namespace[name] is getattr(fresh, name)
