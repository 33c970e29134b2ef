"""Shared fixtures for the test suite, and its ``chaos`` backend spec."""

from __future__ import annotations

import numpy as np
import pytest

from chaos import ChaosBackend
from repro.intervals.table import reset_shared_tables
from repro.kg.datasets import load_dataset
from repro.kg.generators import generate_profiled_kg
from repro.kg.graph import KnowledgeGraph
from repro.kg.synthetic import SyntheticKG
from repro.kg.triple import Triple
from repro.runtime import register_backend


def pytest_configure():
    """Register ``chaos[:inner]`` as a backend spec for this session.

    It goes through the same registry as ``serial`` and ``process``, so
    ``REPRO_BACKEND=chaos:process`` runs every plan of the suite under
    the injector's fixed fault schedule.
    """

    @register_backend("chaos")
    def _make_chaos(arg: str) -> ChaosBackend:
        return ChaosBackend(arg or None)


@pytest.fixture(autouse=True)
def fresh_solve_tables():
    """Start every test with empty process-wide solve tables.

    Tables are shared by every run with the same cap, so without this a
    table warmed by one test would serve the next one's solves.
    """
    reset_shared_tables()


@pytest.fixture
def rng():
    """A deterministic generator for per-test randomness."""
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_kg() -> KnowledgeGraph:
    """A hand-built 6-triple KG with 3 entity clusters and mu = 2/3."""
    triples = [
        Triple("e:alice", "bornIn", "v:paris"),
        Triple("e:alice", "worksFor", "v:acme"),
        Triple("e:bob", "bornIn", "v:rome"),
        Triple("e:bob", "marriedTo", "e:alice"),
        Triple("e:bob", "worksFor", "v:acme"),
        Triple("e:carol", "bornIn", "v:berlin"),
    ]
    labels = [True, True, False, True, False, True]
    return KnowledgeGraph(triples, labels)


@pytest.fixture(scope="session")
def nell_kg() -> KnowledgeGraph:
    """The NELL dataset profile (session-scoped; generation is pure)."""
    return load_dataset("NELL", seed=42)


@pytest.fixture(scope="session")
def yago_kg() -> KnowledgeGraph:
    """The YAGO dataset profile."""
    return load_dataset("YAGO", seed=42)


@pytest.fixture(scope="session")
def medium_kg() -> KnowledgeGraph:
    """A mid-size profiled KG with accuracy 0.8 for framework tests."""
    return generate_profiled_kg(
        "medium", num_facts=3_000, num_clusters=1_000, accuracy=0.8, seed=7
    )


@pytest.fixture(scope="session")
def small_synthetic() -> SyntheticKG:
    """A lazily-labelled synthetic KG small enough for exhaustive checks."""
    return SyntheticKG(num_triples=50_000, num_clusters=2_500, accuracy=0.9, seed=3)
