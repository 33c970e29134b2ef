"""Tests for the audit service: requests, concurrency, cache sharing.

The service promises three things worth testing hard: a request
submitted over the wire is *byte-identical* to the same grid run
standalone (shared StudyRequest code path), concurrent requests with
different RunContexts share one ResultStore (cache hits cross
requests), and one request failing never poisons its siblings.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.cli import main as cli_main
from repro.exceptions import ReproError, ValidationError
from repro.runtime import ResultStore, execute
from repro.runtime.service import (
    AuditService,
    StudyRequest,
    parse_address,
    ping_service,
    render_study_table,
    service_status,
    shutdown_service,
    submit_request,
)
from repro.runtime.settings import RunContext

GRID = {
    "datasets": "NELL",
    "strategies": "srs",
    "methods": "wald,wilson",
    "repetitions": 4,
}
GRID_ARGS = [
    "--datasets", "NELL", "--strategies", "srs",
    "--methods", "wald,wilson", "--reps", "4",
]


def standalone_table(capsys, extra=()) -> str:
    """The table `python -m repro study` prints for GRID (summary line
    stripped — it carries volatile wall-clock seconds)."""
    assert cli_main(["study", *GRID_ARGS, "--quiet", *extra]) == 0
    out = capsys.readouterr().out
    return "\n".join(out.splitlines()[:-1])


class running_service:
    """Context manager: an AuditService on a unix socket, in a thread."""

    def __init__(self, tmp_path, **kwargs):
        self.socket_path = tmp_path / "svc.sock"
        kwargs.setdefault("quiet", True)
        self.service = AuditService(**kwargs)
        self.thread = None

    def __enter__(self):
        loop = asyncio.new_event_loop()
        ready = loop.create_future()
        self.thread = threading.Thread(
            target=lambda: loop.run_until_complete(
                self.service.serve(socket_path=self.socket_path, ready=ready)
            ),
            daemon=True,
        )
        self.thread.start()
        deadline = time.monotonic() + 10
        while not ready.done():
            assert time.monotonic() < deadline, "service did not start"
            time.sleep(0.01)
        return self

    @property
    def address(self):
        return ("unix", str(self.socket_path))

    def __exit__(self, *exc):
        try:
            shutdown_service(self.address)
        except ReproError:
            pass
        self.thread.join(timeout=10)
        assert not self.thread.is_alive()


class TestStudyRequest:
    def test_normalises_names_and_folds_case(self):
        request = StudyRequest(
            datasets="nell, yago", strategies=("SRS",), methods="Wald"
        )
        assert request.datasets == ("NELL", "YAGO")
        assert request.strategies == ("srs",)
        assert request.methods == ("wald",)

    def test_from_payload_reps_alias_and_defaults(self):
        request = StudyRequest.from_payload({"reps": 7})
        assert request.repetitions == 7
        assert request.datasets == ("NELL",)

    def test_from_payload_rejects_unknown_fields(self):
        with pytest.raises(ValidationError, match="repetitionz"):
            StudyRequest.from_payload({"repetitionz": 2})

    def test_rejects_empty_grid_and_unknown_strategy(self):
        with pytest.raises(ReproError, match="at least one"):
            StudyRequest(datasets="")
        with pytest.raises(ReproError, match="unknown strategy"):
            StudyRequest(strategies="srs,quantum")

    def test_payload_round_trip(self):
        request = StudyRequest.from_payload(dict(GRID))
        assert StudyRequest.from_payload(request.to_payload()) == request

    def test_build_plan_matches_cli_construction(self):
        plan = StudyRequest(
            datasets="NELL,YAGO", strategies="srs,twcs", methods="wald", m=3
        ).build_plan()
        assert [cell.label for cell in plan.cells] == [
            "NELL/srs/wald", "NELL/twcs/wald",
            "YAGO/srs/wald", "YAGO/twcs/wald",
        ]
        # One seed stream per (dataset, strategy), methods paired on it.
        assert [cell.seed_stream for cell in plan.cells] == [
            (20_000,), (20_001,), (20_010,), (20_011,)
        ]
        assert plan.cells[1].strategy == "TWCS:3"


class TestParseAddress:
    def test_forms(self):
        assert parse_address("/tmp/x.sock") == ("unix", "/tmp/x.sock")
        assert parse_address("127.0.0.1:9") == ("tcp", ("127.0.0.1", 9))
        assert parse_address("9") == ("tcp", ("127.0.0.1", 9))
        assert parse_address(("localhost", 9)) == ("tcp", ("localhost", 9))
        assert parse_address(("unix", "/x")) == ("unix", "/x")

    def test_rejects_garbage(self):
        with pytest.raises(ValidationError):
            parse_address("")
        with pytest.raises(ValidationError):
            parse_address(("a", "b", "c"))

    def test_connect_timeout_names_the_endpoint(self, tmp_path):
        from repro.runtime.service.client import connect

        with pytest.raises(ReproError, match="could not reach"):
            connect(str(tmp_path / "nowhere.sock"), timeout=0.2)


class TestTwoContextStoreConcurrency:
    def test_concurrent_contexts_share_one_store(self, tmp_path):
        # Two differently-configured immutable contexts, one store dir,
        # executing at the same time in one process: both runs must
        # succeed, agree bit-for-bit, and land their cells in the
        # shared store without tripping over each other's tmp files.
        store = tmp_path / "cache"
        contexts = [
            RunContext(workers=1, store=store, backend="serial"),
            RunContext(workers=2, store=store, backend="process", chunk_size=2),
        ]
        plan = StudyRequest.from_payload(dict(GRID)).build_plan()
        with ThreadPoolExecutor(max_workers=2) as pool:
            outcomes = list(
                pool.map(lambda ctx: execute(plan, context=ctx), contexts)
            )
        tables = {render_study_table(plan, outcome) for outcome in outcomes}
        assert len(tables) == 1  # bit-identical across contexts
        assert len(ResultStore(store)) == len(plan.cells)
        # A third context reads everything back from the shared store.
        rerun = execute(plan, context=RunContext(store=store))
        assert rerun.cache_hits == len(plan.cells)


class TestServiceRequests:
    def test_concurrent_contexts_bit_identical_and_cache_shared(
        self, tmp_path, capsys
    ):
        expected = standalone_table(capsys)
        with running_service(
            tmp_path, defaults=RunContext(store=tmp_path / "cache")
        ) as svc:
            contexts = [
                {"backend": "serial"},
                {"backend": "process", "workers": 2, "chunk_size": 2},
            ]
            with ThreadPoolExecutor(max_workers=2) as pool:
                done = list(
                    pool.map(
                        lambda ctx: submit_request(svc.address, GRID, ctx),
                        contexts,
                    )
                )
            assert [event["event"] for event in done] == ["done", "done"]
            assert {event["table"] for event in done} == {expected}
            assert {event["exit_code"] for event in done} == {0}
            # The grid ran concurrently under two contexts; every cell
            # is now in the shared store, so a third differently-
            # configured request is served entirely from cache.
            third = submit_request(
                svc.address, GRID, {"backend": "serial", "max_retries": 1}
            )
            assert third["table"] == expected
            assert third["cache_hits"] == third["cells"] == 2

    def test_progress_events_stream_per_request(self, tmp_path):
        with running_service(tmp_path) as svc:
            events = []
            done = submit_request(svc.address, GRID, on_event=events.append)
            kinds = [event["event"] for event in events]
            assert kinds[0] == "accepted"
            assert kinds[-1] == "done"
            progress = [e for e in events if e["event"] == "progress"]
            assert len(progress) == done["cells"] == 2
            assert progress[-1]["done"] == progress[-1]["total"] == 2
            assert all(
                set(e) == {"event", "id", "done", "total", "label", "cached"}
                for e in progress
            )
            assert {e["id"] for e in events} == {done["id"]}

    def test_failing_request_does_not_poison_siblings(self, tmp_path, capsys):
        expected = standalone_table(capsys)
        bad = dict(GRID, datasets="NOPE")
        with running_service(
            tmp_path, defaults=RunContext(store=tmp_path / "cache")
        ) as svc:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [
                    pool.submit(submit_request, svc.address, bad),
                    pool.submit(submit_request, svc.address, GRID),
                ]
                events = [future.result() for future in futures]
            by_kind = {event["event"]: event for event in events}
            assert set(by_kind) == {"failed", "done"}
            assert "NOPE" in by_kind["failed"]["error"]
            assert by_kind["done"]["table"] == expected
            # The service is still healthy: next request runs from cache.
            after = submit_request(svc.address, GRID)
            assert after["event"] == "done"
            assert after["cache_hits"] == after["cells"]
            status = service_status(svc.address)
            states = {
                record["id"]: record["status"]
                for record in status["requests"]
            }
            assert sorted(states.values()) == ["done", "done", "failed"]

    def test_per_request_trace_journals(self, tmp_path):
        from repro.runtime.telemetry import read_journal

        with running_service(
            tmp_path,
            defaults=RunContext(store=tmp_path / "cache"),
            trace_dir=tmp_path / "traces",
        ) as svc:
            first = submit_request(svc.address, GRID)
            second = submit_request(svc.address, GRID)
        journals = sorted((tmp_path / "traces").glob("*.jsonl"))
        assert [path.stem for path in journals] == [first["id"], second["id"]]
        for path, event in zip(journals, (first, second)):
            assert event["trace"] == str(path)
            records = read_journal(path)  # schema-valid, one run each
            assert {record["run_id"] for record in records}

    def test_the_shared_store_is_the_defaults_store(self, tmp_path):
        defaults = RunContext(store=tmp_path / "cache")
        assert AuditService(defaults=defaults, quiet=True).store is defaults.store
        with pytest.raises(TypeError):
            AuditService(store=tmp_path / "cache")

    def test_ping_and_status(self, tmp_path):
        with running_service(
            tmp_path, defaults=RunContext(store=tmp_path / "cache")
        ) as svc:
            pong = ping_service(svc.address)
            assert pong["event"] == "pong"
            assert pong["requests"] == 0
            assert pong["store"].endswith("cache")
            submit_request(svc.address, GRID)
            record = service_status(svc.address)["requests"][0]
            assert record["status"] == "done"
            assert record["request"]["repetitions"] == 4
            assert record["context"]["workers"] >= 1
            assert record["seconds"] is not None

    def test_validation_errors_come_back_as_error_events(self, tmp_path):
        with running_service(tmp_path) as svc:
            with pytest.raises(ReproError, match="repetitionz"):
                submit_request(svc.address, {"repetitionz": 3})
            with pytest.raises(ReproError, match="store"):
                submit_request(svc.address, GRID, {"store": "/elsewhere"})
            with pytest.raises(ReproError, match="workers"):
                submit_request(svc.address, GRID, {"workers": 0})
            with pytest.raises(ReproError, match="unknown context field.*chunk_seconds"):
                submit_request(svc.address, GRID, {"chunk_seconds": 1})

    def test_malformed_lines_keep_the_connection_alive(self, tmp_path):
        with running_service(tmp_path) as svc:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.connect(str(svc.socket_path))
            try:
                stream = sock.makefile("r", encoding="utf-8")
                sock.sendall(b"this is not json\n")
                assert "bad JSON" in json.loads(stream.readline())["error"]
                sock.sendall(b'["a", "list"]\n')
                assert "JSON object" in json.loads(stream.readline())["error"]
                sock.sendall(b'{"op": "frobnicate"}\n')
                assert "unknown op" in json.loads(stream.readline())["error"]
                sock.sendall(b'{"op": "ping"}\n')  # still serving
                assert json.loads(stream.readline())["event"] == "pong"
            finally:
                sock.close()

    def test_tcp_endpoint(self, tmp_path):
        service = AuditService(quiet=True)
        loop = asyncio.new_event_loop()
        ready = loop.create_future()
        thread = threading.Thread(
            target=lambda: loop.run_until_complete(
                service.serve(port=0, ready=ready)
            ),
            daemon=True,
        )
        thread.start()
        deadline = time.monotonic() + 10
        while not ready.done():
            assert time.monotonic() < deadline
            time.sleep(0.01)
        host, port = service.address[1]
        address = f"{host}:{port}"
        assert ping_service(address)["event"] == "pong"
        done = submit_request(address, GRID)
        assert done["event"] == "done"
        shutdown_service(address)
        thread.join(timeout=10)
        assert not thread.is_alive()


# ----------------------------------------------------------------------
# Cross-request solve batching
# ----------------------------------------------------------------------

import multiprocessing
import os
import pickle

from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from repro.estimators.base import Evidence
from repro.intervals import (
    AdaptiveHPD,
    ETCredibleInterval,
    HPDCredibleInterval,
    WaldInterval,
    WilsonInterval,
    use_solve_pool,
)
from repro.runtime import SolveBroker
from repro.runtime.telemetry import (
    MetricsAggregate,
    RunTelemetry,
    read_journal,
    replay_metrics,
)

BROKER_METHODS = (
    WaldInterval(),
    WilsonInterval(),
    ETCredibleInterval(),
    HPDCredibleInterval(),
    AdaptiveHPD(),
)

caller_schedules = st.lists(
    st.tuples(
        st.integers(0, len(BROKER_METHODS) - 1),  # method
        st.sampled_from([0.10, 0.05, 0.01]),  # alpha
        st.lists(  # evidence segment
            st.tuples(st.integers(0, 20), st.integers(1, 20)).map(
                lambda pair: (min(pair), max(max(pair), 1))
            ),
            min_size=1,
            max_size=5,
        ),
        st.integers(0, 3),  # start-delay bucket (ms)
    ),
    min_size=1,
    max_size=5,
)


class TestSolveBroker:
    @given(schedule=caller_schedules, window_ms=st.sampled_from([0, 5, 50]))
    @hyp_settings(max_examples=20, deadline=None)
    def test_any_interleaving_is_bit_identical_to_standalone(
        self, schedule, window_ms
    ):
        # The tentpole acceptance bar: whatever the window, the caller
        # mix, and the arrival interleaving, every caller's slice of a
        # brokered solve is byte-identical to running compute_batch
        # alone — bounds, labels, and metadata.
        callers = [
            (
                BROKER_METHODS[method_index],
                alpha,
                [Evidence.from_counts_fast(tau, n) for tau, n in segment],
                delay_ms,
            )
            for method_index, alpha, segment, delay_ms in schedule
        ]
        standalone = [
            method.compute_batch(evidences, alpha)
            for method, alpha, evidences, _ in callers
        ]
        broker = SolveBroker(window=window_ms / 1000.0, max_batch=64)
        channels = [broker.channel() for _ in callers]
        for channel in channels:
            channel.__enter__()
        barrier = threading.Barrier(len(callers))
        results: list = [None] * len(callers)

        def work(index):
            method, alpha, evidences, delay_ms = callers[index]
            barrier.wait()
            time.sleep(delay_ms / 1000.0)
            with use_solve_pool(channels[index]):
                results[index] = method.solve_batch(evidences, alpha)

        threads = [
            threading.Thread(target=work, args=(index,))
            for index in range(len(callers))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for channel in channels:
            channel.__exit__(None, None, None)
        broker.close()
        for got, want in zip(results, standalone):
            assert got.lower.tobytes() == want.lower.tobytes()
            assert got.upper.tobytes() == want.upper.tobytes()
            assert got.alpha == want.alpha
            assert got.method == want.method
            assert got.labels == want.labels

    def test_coalesces_and_journals_on_each_callers_own_bus(self):
        # Deterministic coalescing: both participants attached before
        # either solves, so the all-waiting trigger flushes the pair as
        # ONE batch well inside the (huge) window — and each caller
        # reports the shared flush on its own telemetry bus.
        method = WilsonInterval()
        segments = [
            [Evidence.from_counts_fast(3, 10)],
            [Evidence.from_counts_fast(7, 12), Evidence.from_counts_fast(0, 5)],
        ]
        broker = SolveBroker(window=30.0, max_batch=64)
        buses = [RunTelemetry(), RunTelemetry()]
        aggregates = [MetricsAggregate(), MetricsAggregate()]
        for bus, aggregate in zip(buses, aggregates):
            bus.subscribe(aggregate)
        channels = [broker.channel(bus) for bus in buses]
        for channel in channels:
            channel.__enter__()
        barrier = threading.Barrier(2)
        results: list = [None, None]

        def work(index):
            barrier.wait()
            with use_solve_pool(channels[index]):
                results[index] = method.solve_batch(segments[index], 0.05)

        threads = [
            threading.Thread(target=work, args=(index,)) for index in (0, 1)
        ]
        start = time.monotonic()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.monotonic() - start
        for channel in channels:
            channel.__exit__(None, None, None)
        broker.close()
        assert elapsed < 5.0  # all-waiting beat the 30 s window
        assert broker.flushes == 1
        assert broker.coalesced_flushes == 1
        assert broker.rows_solved == 3
        for index, aggregate in enumerate(aggregates):
            assert aggregate.solve_flushes == 1
            assert aggregate.solve_max_callers == 2
            assert aggregate.solve_rows == len(segments[index])
            batching = aggregate.as_dict()["solve_batching"]
            assert batching["coalesced_flushes"] == 1
        for index, batch in enumerate(results):
            alone = method.compute_batch(segments[index], 0.05)
            assert batch.lower.tobytes() == alone.lower.tobytes()
            assert batch.upper.tobytes() == alone.upper.tobytes()

    def test_max_batch_flushes_without_waiting_for_the_window(self):
        broker = SolveBroker(window=30.0, max_batch=2)
        method = WaldInterval()
        results: list = [None, None]

        def work(index):
            # No attach: the all-waiting trigger stays dormant, so only
            # max_batch can flush before the 30 s window.
            channel = broker.channel()
            with use_solve_pool(channel):
                results[index] = method.solve_batch(
                    [Evidence.from_counts_fast(index + 1, 9)], 0.05
                )

        threads = [
            threading.Thread(target=work, args=(index,)) for index in (0, 1)
        ]
        start = time.monotonic()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert time.monotonic() - start < 5.0
        assert broker.flushes == 1
        assert broker.coalesced_flushes == 1
        broker.close()

    def test_closed_broker_computes_directly(self):
        broker = SolveBroker(window=5.0)
        broker.close()
        method = WilsonInterval()
        evidences = [Evidence.from_counts_fast(4, 9)]
        with use_solve_pool(broker.channel()):
            routed = method.solve_batch(evidences, 0.05)
        direct = method.compute_batch(evidences, 0.05)
        assert routed.lower.tobytes() == direct.lower.tobytes()
        assert broker.flushes == 0

    def test_forked_children_never_wait_on_an_inherited_broker(self):
        # Regression: the fork-start process pool clones the submitting
        # thread — installed channel, broker lock, and PENDING GROUPS
        # included.  A forked worker solving the same (method, alpha)
        # used to join the copied group as a follower and wait forever
        # for a leader thread that only exists in the parent.  The
        # broker now detects the foreign pid and computes directly.
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs the fork start method")
        mp = multiprocessing.get_context("fork")
        method = WilsonInterval()
        evidences = [Evidence.from_counts_fast(4, 11)]
        broker = SolveBroker(window=30.0, max_batch=64)
        channels = [broker.channel(), broker.channel()]
        for channel in channels:
            channel.__enter__()
        started = threading.Event()

        def pending_leader():
            # One of two participants solving => below the all-waiting
            # trigger, so this group stays pending for the full window.
            with use_solve_pool(channels[0]):
                started.set()
                method.solve_batch([Evidence.from_counts_fast(1, 7)], 0.05)

        leader = threading.Thread(target=pending_leader, daemon=True)
        leader.start()
        assert started.wait(5)
        time.sleep(0.2)  # leader is now parked on the 30 s window
        queue = mp.SimpleQueue()

        def child():
            batch = method.solve_batch(evidences, 0.05)
            queue.put((batch.lower.tobytes(), batch.upper.tobytes()))

        with use_solve_pool(channels[1]):
            proc = mp.Process(target=child)  # forks THIS thread's context
            proc.start()
        proc.join(timeout=30)
        if proc.is_alive():
            proc.kill()
            pytest.fail("forked child hung on the inherited broker copy")
        got = queue.get()
        broker.close()
        leader.join(timeout=10)
        for channel in channels:
            channel.__exit__(None, None, None)
        alone = method.compute_batch(evidences, 0.05)
        assert got == (alone.lower.tobytes(), alone.upper.tobytes())

    def test_a_bad_segment_fails_only_its_own_caller(self):
        # One caller pools garbage evidence; its batch-mate must still
        # get its (bit-identical) result and only the bad caller raise.
        broker = SolveBroker(window=30.0, max_batch=64)
        method = HPDCredibleInterval()
        good = [Evidence.from_counts_fast(5, 12)]
        bad = ["not evidence"]  # poisons the pooled flush for this caller
        channels = [broker.channel(), broker.channel()]
        for channel in channels:
            channel.__enter__()
        barrier = threading.Barrier(2)
        outcomes: dict = {}

        def work(name, segment):
            barrier.wait()
            channel = channels[0] if name == "good" else channels[1]
            with use_solve_pool(channel):
                try:
                    outcomes[name] = method.solve_batch(segment, 0.05)
                except Exception as exc:
                    outcomes[name] = exc

        threads = [
            threading.Thread(target=work, args=("good", good)),
            threading.Thread(target=work, args=("bad", bad)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for channel in channels:
            channel.__exit__(None, None, None)
        broker.close()
        assert isinstance(outcomes["bad"], Exception)
        alone = method.compute_batch(good, 0.05)
        assert outcomes["good"].lower.tobytes() == alone.lower.tobytes()


def store_values(root) -> dict:
    """Cache state as {relative path: serialised value payload}, with
    the volatile wall-clock ``seconds`` field excluded."""
    values = {}
    for path in sorted(root.rglob("*.pkl")):
        if not path.is_file():
            continue
        with path.open("rb") as handle:
            payload = pickle.load(handle)
        values[str(path.relative_to(root))] = pickle.dumps(
            {"value": payload["value"], "label": payload["label"]},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
    return values


class TestServiceSolveBatching:
    def test_concurrent_requests_batch_solves_and_stay_bit_identical(
        self, tmp_path, capsys
    ):
        # Standalone reference: same grid, batching and tables disabled
        # (a warm table would leave the service nothing to batch), own
        # store.
        plan = StudyRequest.from_payload(dict(GRID)).build_plan()
        alone_store = tmp_path / "alone"
        alone = execute(
            plan,
            context=RunContext(store=alone_store, backend="serial", solve_table=0),
        )
        expected = render_study_table(plan, alone)
        service_store = tmp_path / "shared"
        with running_service(
            tmp_path,
            defaults=RunContext(store=service_store),
            trace_dir=tmp_path / "traces",
            solve_batch_window=0.25,
        ) as svc:
            with ThreadPoolExecutor(max_workers=3) as pool:
                done = list(
                    pool.map(
                        lambda _: submit_request(
                            svc.address, GRID, {"backend": "serial"}
                        ),
                        range(3),
                    )
                )
            pong = ping_service(svc.address)
        assert [event["event"] for event in done] == ["done"] * 3
        # Tables byte-identical to the standalone, unbatched run.
        assert {event["table"] for event in done} == {expected}
        # Cache state byte-identical: same tokens, same value payloads.
        assert store_values(service_store) == store_values(alone_store)
        # The shared broker actually coalesced under concurrent load:
        # service-wide stats plus per-request journal events agree.
        batching = pong["solve_batching"]
        assert batching["flushes"] > 0
        assert batching["coalesced_flushes"] > 0
        flush_events = []
        for journal in (tmp_path / "traces").glob("*.jsonl"):
            flush_events += [
                record
                for record in read_journal(journal)
                if record["event"] == "solve_batch_flush"
            ]
        assert flush_events
        assert max(record["callers"] for record in flush_events) >= 2
        # Replayed journal metrics surface the same coalescing.
        replayed = replay_metrics(
            read_journal(next(iter((tmp_path / "traces").glob("*.jsonl"))))
        )
        assert replayed.as_dict()["solve_batching"]["flushes"] > 0

    def test_window_zero_disables_the_broker(self, tmp_path):
        with running_service(
            tmp_path,
            defaults=RunContext(store=tmp_path / "cache"),
            solve_batch_window=0.0,
        ) as svc:
            assert svc.service.solve_broker is None
            done = submit_request(svc.address, GRID)
            assert done["event"] == "done"
            assert ping_service(svc.address)["solve_batching"] is None


# ----------------------------------------------------------------------
# Service-hardening regressions (PR 9 bugfix sweep)
# ----------------------------------------------------------------------


class TestServiceHardening:
    def test_client_disconnect_mid_request_finalises_the_record(
        self, tmp_path
    ):
        # Regression: a client hanging up after `accepted` used to raise
        # ConnectionResetError out of the progress send, abandoning the
        # executor future and leaving the record stuck at "running".
        with running_service(
            tmp_path, defaults=RunContext(store=tmp_path / "cache")
        ) as svc:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.connect(str(svc.socket_path))
            try:
                sock.sendall(
                    json.dumps({"op": "submit", "request": GRID}).encode()
                    + b"\n"
                )
                stream = sock.makefile("r", encoding="utf-8")
                accepted = json.loads(stream.readline())
                assert accepted["event"] == "accepted"
            finally:
                sock.close()  # hang up mid-request
            deadline = time.monotonic() + 30
            while True:
                states = {
                    record["id"]: record
                    for record in service_status(svc.address)["requests"]
                }
                record = states[accepted["id"]]
                if record["status"] != "running" and record["status"] != "queued":
                    break
                assert time.monotonic() < deadline, "record stuck at running"
                time.sleep(0.05)
            assert record["status"] == "done"
            assert record["seconds"] is not None
            # The request's work survived the disconnect: a follow-up
            # submit is served from the shared store.
            after = submit_request(svc.address, GRID)
            assert after["event"] == "done"
            assert after["cache_hits"] == after["cells"]

    def test_defaults_trace_file_fans_out_per_request(self, tmp_path):
        # Regression: with no --trace-dir but a defaults trace file,
        # concurrent requests all appended to the SAME journal from
        # different threads, interleaving their events.  Each request
        # now journals to a request-id-suffixed sibling.
        base = tmp_path / "journal.jsonl"
        with running_service(
            tmp_path,
            defaults=RunContext(store=tmp_path / "cache", trace=base),
        ) as svc:
            with ThreadPoolExecutor(max_workers=2) as pool:
                done = list(
                    pool.map(
                        lambda _: submit_request(svc.address, GRID), range(2)
                    )
                )
        assert [event["event"] for event in done] == ["done", "done"]
        traces = sorted(event["trace"] for event in done)
        assert len(set(traces)) == 2
        assert not base.exists()  # nobody wrote the shared path
        for trace in traces:
            assert trace != str(base)
            records = read_journal(trace)  # parses cleanly => no tearing
            assert len({record["run_id"] for record in records}) == 1
            assert records[0]["event"] == "run_start"
            assert records[-1]["event"] == "run_finish"

    def test_unix_connect_retries_do_not_leak_fds(self, tmp_path):
        from repro.runtime.service.client import connect

        missing = str(tmp_path / "nowhere.sock")
        fd_dir = "/proc/self/fd"
        if not os.path.isdir(fd_dir):  # pragma: no cover - non-linux
            pytest.skip("needs /proc to count open fds")
        with pytest.raises(ReproError):
            connect(missing, timeout=0.3)  # warm any lazy imports
        before = len(os.listdir(fd_dir))
        with pytest.raises(ReproError):
            connect(missing, timeout=0.5)  # ~10 failed attempts
        after = len(os.listdir(fd_dir))
        assert after <= before + 1  # was: one leaked fd per attempt

    def test_parse_address_wraps_bad_ports_as_validation_errors(self):
        with pytest.raises(ValidationError, match="port"):
            parse_address("localhost:notaport")
        with pytest.raises(ValidationError, match="port"):
            parse_address("notaport")
