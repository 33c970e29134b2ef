"""Unit tests for the settings module: knob registry, resolvers, RunContext."""

from __future__ import annotations

import dataclasses
import json
import os
import re
from pathlib import Path

import pytest

from repro.exceptions import ValidationError
from repro.runtime import ResultStore
from repro.runtime.settings import (
    KNOBS,
    ON_ERROR_MODES,
    RunContext,
    env_knob,
    resolve_chunk_size,
    resolve_max_retries,
    resolve_on_error,
    resolve_service_address,
    resolve_workers,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class TestKnobRegistry:
    """settings.KNOBS is the single contract for REPRO_* environment use."""

    def test_expected_knobs(self):
        assert sorted(KNOBS) == [
            "REPRO_BACKEND",
            "REPRO_CACHE_DIR",
            "REPRO_CHAOS_RATE",
            "REPRO_CHAOS_SEED",
            "REPRO_CHUNK_SIZE",
            "REPRO_MAX_RETRIES",
            "REPRO_ON_ERROR",
            "REPRO_SERVICE",
            "REPRO_SOLVE_BATCH_MAX",
            "REPRO_SOLVE_BATCH_WINDOW",
            "REPRO_SOLVE_TABLE",
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

    def test_max_retries(self, monkeypatch):
        monkeypatch.delenv("REPRO_MAX_RETRIES", raising=False)
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

    def test_on_error_modes_are_one_list(self):
        # The resolver, its error text and both CLI flags read one tuple.
        from repro.cli import _build_parser
        from repro.runtime import faults

        assert ON_ERROR_MODES == ("raise", "continue")
        for mode in ON_ERROR_MODES:
            assert resolve_on_error(mode.upper()) == mode
        with pytest.raises(ValidationError) as error:
            resolve_on_error("explode")
        named = re.search(r"one of (.*); got", str(error.value)).group(1)
        assert tuple(named.split(", ")) == ON_ERROR_MODES
        assert not hasattr(faults, "ON_ERROR_MODES")
        (commands,) = _build_parser()._subparsers._group_actions
        for name in ("study", "submit"):
            (flag,) = [
                action
                for action in commands.choices[name]._actions
                if action.dest == "on_error"
            ]
            assert tuple(flag.choices) == ON_ERROR_MODES

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

    def test_chunk_seconds_accepts_only_none(self):
        # chunk_size is the one shard-size setting; chunk_seconds stays
        # a field so recorded contexts (which carry None) still build.
        assert RunContext(chunk_seconds=None).chunk_seconds is None
        with pytest.raises(ValidationError, match="chunk_size"):
            RunContext(chunk_seconds=0.5)

    def test_replace_revalidates_chunk_seconds(self):
        # replace() no longer trades one chunk knob for the other.
        ctx = RunContext(chunk_size=5)
        assert ctx.replace(chunk_size=3).chunk_size == 3
        with pytest.raises(ValidationError, match="chunk_size"):
            ctx.replace(chunk_seconds=0.5)

    def test_describe_keys(self):
        assert list(RunContext().describe()) == [
            "workers",
            "cache_dir",
            "chunk_size",
            "chunk_seconds",
            "backend",
            "max_retries",
            "on_error",
            "trace",
            "progress",
            "solve_pool",
            "kernel",
            "solve_table",
        ]

    def test_replace_max_retries(self):
        ctx = RunContext(max_retries=1)
        assert ctx.replace(max_retries=4).max_retries == 4
        assert ctx.max_retries == 1  # original untouched

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


class TestPerfbenchContexts:
    """The contexts ``perfbench/workloads.json`` records still resolve.

    ``perfbench/experiment.py`` builds ``RunContext(store=..., **knobs)``
    from each experiment workload's ``resolved_context`` in a process
    with every ``REPRO_*`` variable scrubbed, then checks ``describe()``
    against that record; removing a field it records fails here.
    """

    WORKLOADS = json.loads((ROOT / "perfbench" / "workloads.json").read_text())[
        "workloads"
    ]

    @pytest.mark.parametrize(
        "name",
        sorted(
            name for name, spec in WORKLOADS.items() if spec["kind"] == "experiment"
        ),
    )
    def test_describe_matches_the_record(self, name, monkeypatch, tmp_path):
        for variable in list(os.environ):
            if variable.startswith("REPRO_"):
                monkeypatch.delenv(variable)
        spec = self.WORKLOADS[name]
        knobs = dict(spec["resolved_context"])
        del knobs["cache_dir"]
        store = ResultStore(tmp_path / "store") if spec["store"] else None
        described = RunContext(store=store, **knobs).describe()
        if described["cache_dir"] is not None:
            described["cache_dir"] = "<fresh store>"
        assert described == spec["resolved_context"]
