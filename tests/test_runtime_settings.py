"""Unit tests for the settings module: knob registry, resolvers, RunContext."""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

import pytest

from repro.exceptions import ValidationError
from repro.runtime import (
    ParallelExecutor,
    ResultStore,
    configure,
    default_context,
    default_executor,
    reset_defaults,
)
from repro.runtime.settings import (
    KNOBS,
    RunContext,
    env_knob,
    resolve_chunk_seconds,
    resolve_chunk_size,
    resolve_max_retries,
    resolve_on_error,
    resolve_service_address,
    resolve_workers,
)

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(autouse=True)
def _fresh_defaults():
    yield
    reset_defaults()


class TestKnobRegistry:
    """settings.KNOBS is the single contract for REPRO_* environment use."""

    def test_expected_knobs(self):
        assert sorted(KNOBS) == [
            "REPRO_BACKEND",
            "REPRO_CACHE_DIR",
            "REPRO_CHAOS_RATE",
            "REPRO_CHAOS_SEED",
            "REPRO_CHUNK_SECONDS",
            "REPRO_CHUNK_SIZE",
            "REPRO_MAX_RETRIES",
            "REPRO_ON_ERROR",
            "REPRO_SERVICE",
            "REPRO_SOLVE_BATCH_MAX",
            "REPRO_SOLVE_BATCH_WINDOW",
            "REPRO_SOLVE_TABLE",
            "REPRO_SPOOL_DIR",
            "REPRO_TRACE_FILE",
            "REPRO_WORKERS",
        ]

    def test_every_knob_has_a_description(self):
        for name, (parse, description) in KNOBS.items():
            assert callable(parse), name
            assert description.strip(), name

    def test_every_source_mention_is_registered(self):
        # Any REPRO_* token anywhere in the package must be a registered
        # knob: a new env var without a KNOBS entry is drift, not a
        # feature.
        mentions = set()
        for path in SRC.rglob("*.py"):
            mentions.update(re.findall(r"REPRO_[A-Z_]+[A-Z]", path.read_text()))
        assert mentions  # the scan actually found the sources
        unregistered = mentions - set(KNOBS)
        assert not unregistered, f"unregistered REPRO_* knobs: {unregistered}"

    def test_settings_is_the_only_environ_reader(self):
        # The resolution-at-construction contract only holds if nothing
        # else consults the environment.
        offenders = [
            str(path.relative_to(SRC))
            for path in SRC.rglob("*.py")
            if "os.environ" in path.read_text()
            and path.name != "settings.py"
        ]
        assert offenders == []

    def test_unset_and_blank_are_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert env_knob("REPRO_WORKERS") is None
        monkeypatch.setenv("REPRO_WORKERS", "   ")
        assert env_knob("REPRO_WORKERS") is None

    def test_parsed_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert env_knob("REPRO_WORKERS") == 4

    def test_malformed_value_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHUNK_SIZE", "lots")
        with pytest.raises(ValidationError, match="REPRO_CHUNK_SIZE"):
            env_knob("REPRO_CHUNK_SIZE")

    def test_unregistered_name_raises(self):
        with pytest.raises(ValidationError, match="unregistered"):
            env_knob("REPRO_NOT_A_KNOB")


class TestResolvers:
    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert resolve_workers(2) == 2
        assert resolve_workers(None) == 7

    def test_workers_floor(self):
        with pytest.raises(ValidationError, match="workers"):
            resolve_workers(0)

    def test_chunk_size_validation(self):
        assert resolve_chunk_size(None) is None
        assert resolve_chunk_size(5) == 5
        with pytest.raises(ValidationError, match="chunk_size"):
            resolve_chunk_size(0)

    def test_chunk_seconds_validation(self):
        assert resolve_chunk_seconds(0.5) == 0.5
        with pytest.raises(ValidationError, match="chunk_seconds"):
            resolve_chunk_seconds(0.0)

    def test_max_retries(self, monkeypatch):
        assert resolve_max_retries(None) == 0
        monkeypatch.setenv("REPRO_MAX_RETRIES", "2")
        assert resolve_max_retries(None) == 2
        with pytest.raises(ValidationError, match="max_retries"):
            resolve_max_retries(-1)

    def test_on_error(self):
        assert resolve_on_error(None) == "raise"
        assert resolve_on_error("continue") == "continue"
        with pytest.raises(ValidationError, match="on_error"):
            resolve_on_error("explode")

    def test_service_address(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVICE", raising=False)
        with pytest.raises(ValidationError, match="REPRO_SERVICE"):
            resolve_service_address(None)
        monkeypatch.setenv("REPRO_SERVICE", "127.0.0.1:8631")
        assert resolve_service_address(None) == "127.0.0.1:8631"
        assert resolve_service_address("/tmp/svc.sock") == "/tmp/svc.sock"


class TestRunContext:
    def test_is_immutable(self):
        ctx = RunContext(workers=2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ctx.workers = 3

    def test_resolves_once_at_construction(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        ctx = RunContext()
        monkeypatch.setenv("REPRO_WORKERS", "9")
        assert ctx.workers == 3  # snapshot, not a live env read

    def test_chunk_knobs_mutually_exclusive(self):
        with pytest.raises(ValidationError, match="mutually exclusive"):
            RunContext(chunk_size=5, chunk_seconds=0.5)

    def test_replace_clears_sibling_chunk_knob(self):
        ctx = RunContext(chunk_size=5)
        adaptive = ctx.replace(chunk_seconds=0.5)
        assert adaptive.chunk_size is None
        assert adaptive.chunk_seconds == 0.5
        fixed = adaptive.replace(chunk_size=3)
        assert fixed.chunk_seconds is None

    def test_replace_max_retries_supersedes_policy(self):
        ctx = RunContext(max_retries=1)
        bumped = ctx.replace(max_retries=4)
        assert bumped.retry_policy.max_retries == 4
        assert ctx.retry_policy.max_retries == 1  # original untouched

    def test_store_coercion(self, tmp_path):
        ctx = RunContext(store=tmp_path / "cache")
        assert isinstance(ctx.store, ResultStore)

    def test_describe_is_json_ready(self, tmp_path):
        ctx = RunContext(
            workers=2, store=tmp_path / "cache", backend="serial", max_retries=1
        )
        description = ctx.describe()
        assert description["workers"] == 2
        assert description["backend"] == "serial"
        assert description["max_retries"] == 1
        assert description["cache_dir"].endswith("cache")

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValidationError, match="unknown execution backend"):
            RunContext(backend="quantum")


class TestWrapperEquivalence:
    """configure()/default_executor() are thin wrappers over RunContext."""

    def test_default_executor_equals_from_context(self, tmp_path):
        kwargs = dict(
            workers=2,
            chunk_size=4,
            backend="serial",
            max_retries=1,
            on_error="continue",
        )
        configure(cache_dir=tmp_path / "cache", **kwargs)
        via_wrapper = default_executor()
        via_context = ParallelExecutor.from_context(
            RunContext(store=tmp_path / "cache", **kwargs)
        )
        for attr in (
            "workers", "chunk_size", "chunk_seconds", "backend", "on_error",
        ):
            assert getattr(via_wrapper, attr) == getattr(via_context, attr)
        assert via_wrapper.retry_policy == via_context.retry_policy
        assert via_wrapper.store.root == via_context.store.root

    def test_configure_context_bulk_install(self):
        ctx = RunContext(workers=3, backend="serial", max_retries=2)
        configure(context=ctx)
        installed = default_context()
        assert installed.workers == 3
        assert installed.backend == "serial"
        assert installed.retry_policy.max_retries == 2

    def test_configure_context_excludes_kwargs(self):
        with pytest.raises(ValidationError, match="mutually exclusive"):
            configure(workers=2, context=RunContext())

    def test_reset_defaults_restores_env_fallback(self, monkeypatch):
        configure(context=RunContext(workers=2))
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert default_executor().workers == 2  # override wins
        reset_defaults()
        assert default_executor().workers == 5  # env fallback again

    def test_execute_rejects_executor_and_context(self):
        from repro.runtime import execute
        from repro.runtime.spec import StudyPlan

        plan = StudyPlan.__new__(StudyPlan)  # never run; validation first
        with pytest.raises(ValidationError, match="not both"):
            execute(plan, executor=default_executor(), context=RunContext())
