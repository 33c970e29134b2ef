#!/usr/bin/env python3
"""End-to-end benchmark of the reproduction: cold paper plans and the service.

Run from the repository root:

    python3 perfbench/run.py --workload table3-serial --seed 0 --seconds 36 --trace 0

Workloads and their explicit run settings live in ``workloads.json``
beside this file; metric names and units come from ``BENCHMARK.json``
at the repository root.  Every run happens in a fresh interpreter with
each ``REPRO_*`` variable scrubbed from its environment, so only the
knobs passed here apply.

* Experiment workloads (``table3-serial``, ``seqcov-workers2``) build a
  paper plan with ``repro.experiments.*_plan`` and execute it with
  ``repro.runtime.execute(plan, context=RunContext(...))``, once per
  fresh interpreter, until ``--seconds`` are spent (at least three
  runs).  One plan unit (a cell, or a shard of one) is one request.
* ``service`` starts ``python -m repro serve`` on a unix socket with a
  fresh store and drives it with two closed-loop client threads through
  ``repro.runtime.service.client.submit_request``.

``--trace 0`` prints the end-to-end metrics: set-up (median of cold
starts), wall and CPU of the process tree (medians over the runs), peak
RSS (median) and request latency percentiles.  Every time is scaled to
a fixed reference speed by the probe in ``hostspeed.py``, which runs
beside the workload for the whole invocation.  ``--trace 1`` prints
the per-layer metrics, taken from separate runs whose layers are
wrapped in timing spans (see ``tracing.py``), next to plain runs that
give the trace overhead.

Outputs are checked on every run: counts, convergence, Table 3's
efficiency ordering, coverage in [0, 1], byte-identical replies to
repeated service requests, identical result digests across every run
of one invocation, and at seed 0 the digests in ``reference.json``.
The last line of standard output is one JSON object with the verdict
and the metrics.  A working directory ``.bench_work/`` under the
repository root holds stores and sockets while a run lasts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
SPEC_FILE = HERE / "workloads.json"
REFERENCE_FILE = HERE / "reference.json"

#: Experiment runs per invocation at the least, whatever --seconds says.
MIN_PLAN_RUNS = 3
#: No new round starts after this many seconds (the run must end in 180).
START_LIMIT_S = 110.0
CHILD_TIMEOUT_S = 150.0
#: Set-up samples per invocation: extra cold starts make up the count.
SETUP_SAMPLES = 5

#: Metric names and units, in the order ``BENCHMARK.json`` lists them.
_CONTRACT = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = tuple((m["name"], m["unit"]) for m in _CONTRACT["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"]) for m in _CONTRACT["per_layer"])

#: Largest share of traced Table 3 plan execution the layer spans may
#: leave unattributed: the runtime does almost nothing on that workload.
TABLE3_UNATTRIBUTED_MAX = 0.05


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def median_of(reports: list[dict], key: str) -> float:
    return statistics.median(report[key] for report in reports)


def tree_bytes(path: Path) -> int:
    total = 0
    for base, _, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(base, name))
            except OSError:
                pass
    return total


def spec_fingerprint(spec: dict) -> str:
    """Digest of the settings a reference result depends on."""
    return hashlib.sha256(json.dumps(spec, sort_keys=True).encode()).hexdigest()


def run_rounds(round_fn, seconds: float, min_rounds: int) -> None:
    """Call *round_fn* until *seconds* are spent, at least *min_rounds* times.

    A round starts only if the median round so far still fits in the
    budget, so a run overshoots ``--seconds`` by at most a little.
    """
    start = time.monotonic()
    durations: list[float] = []
    while True:
        began = time.monotonic()
        round_fn()
        durations.append(time.monotonic() - began)
        now = time.monotonic()
        if now - start > START_LIMIT_S:
            return
        if len(durations) >= min_rounds and now + statistics.median(durations) > start + seconds:
            return


class Verdict:
    """Output checks and failure counts accumulated over one invocation."""

    def __init__(self) -> None:
        self.checks: dict[str, bool] = {}
        self.attempted = 0
        self.failed = 0
        self.digests: set[str] = set()

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        if not ok:
            print(f"perfbench: check failed: {name}", file=sys.stderr)

    def check_digest(self, workload: str, spec: dict, seed: int) -> None:
        self.check("same_digest_every_run", len(self.digests) == 1)
        if seed != 0 or len(self.digests) != 1:
            return
        reference = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.exists() else {}
        entry = reference.get(workload)
        self.check(
            "seed0_reference_digest",
            entry is not None
            and entry["spec"] == spec_fingerprint(spec)
            and entry["digest"] in self.digests,
        )

    def check_context(self, spec: dict, described: dict | None) -> None:
        """The run's resolved ``RunContext.describe()`` is the recorded one."""
        context = dict(described or {})
        if context.get("cache_dir") is not None:
            context["cache_dir"] = "<fresh store>"
        ok = context == spec.get("resolved_context")
        if not ok:
            print(f"perfbench: resolved context {json.dumps(context)}", file=sys.stderr)
        self.check("resolved_context", ok)

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(self.checks.values()) and self.failed == 0


# ----------------------------------------------------------------------
# Experiment workloads
# ----------------------------------------------------------------------


def run_experiment_child(spec: dict, seed: int, mode: str, work: Path, env: dict,
                         verdict: Verdict, counter: list) -> dict | None:
    """One cold plan run in a fresh interpreter; ``None`` if it failed.

    A run that crashes or times out counts as one failed unit; a run
    that finishes counts its cells and any failed or quarantined one.
    """
    counter[0] += 1
    store = work / f"store-{counter[0]}"
    command = [
        sys.executable,
        str(HERE / "experiment.py"),
        json.dumps(spec),
        str(seed),
        mode,
        str(store) if spec["store"] else "-",
    ]
    try:
        t0 = time.monotonic()
        done = subprocess.run(
            command + [repr(t0)],
            env=env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise RuntimeError(f"exit {done.returncode}:\n{done.stderr[-3000:]}")
        report = json.loads(lines[-1])
        if spec["store"] and mode != "setup":
            sidecars = tree_bytes(store / "solvetable")
            report["runtime"]["runtime.sidecar_bytes"] = sidecars
            report["runtime"]["runtime.store_bytes"] = tree_bytes(store) - sidecars
    except (subprocess.TimeoutExpired, RuntimeError, ValueError) as exc:
        if mode != "setup":
            verdict.attempted += 1
            verdict.failed += 1
        print(f"perfbench: {mode} run failed: {exc}", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(store, ignore_errors=True)
    report["mode"] = mode
    report["t0"] = t0
    if mode == "setup":
        return report
    verdict.attempted += report["cells"]
    verdict.failed += report["failed"]
    for name, ok in report["checks"].items():
        verdict.check(name, ok)
    verdict.digests.add(report["digest"])
    if mode != "trace-serial":
        verdict.check_context(spec, report["context"])
    return report


def unattributed_share(report: dict) -> float:
    """Share of plan-execution time outside every wrapped layer."""
    run = report["spans"]["layers"].get("runtime.run", [0, 0.0, 0.0])
    return run[2] / run[1] if run[1] else 0.0


def host_scaled(speed: HostSpeed, report: dict) -> None:
    """Scale a child report's times to the host's uncontended speed."""
    t0 = report["t0"]
    report["setup_s"] = speed.seconds(t0, t0 + report["setup_s"])
    if "started" in report:
        started = report["started"]
        factor = speed.factor(started, started + report["wall_s"])
        report["wall_s"] *= factor
        report["cpu_s"] *= factor


def experiment(workload: str, spec: dict, args, work: Path, env: dict) -> tuple[dict, Verdict]:
    verdict = Verdict()
    counter = [0]
    reports: list[dict] = []
    if not args.trace:
        modes, min_rounds = ["plain"], MIN_PLAN_RUNS
    elif spec["resolved_context"]["workers"] > 1:
        modes, min_rounds = ["plain", "trace-parent", "trace-serial"], 1
    else:
        modes, min_rounds = ["plain", "trace"], 1

    def one_round() -> None:
        for mode in modes:
            report = run_experiment_child(spec, args.seed, mode, work, env, verdict, counter)
            if report is not None:
                reports.append(report)

    with HostSpeed() as speed:
        run_rounds(one_round, args.seconds, min_rounds)
        setup_probes = []
        plain_runs = sum(r["mode"] == "plain" for r in reports)
        while not args.trace and 0 < plain_runs + len(setup_probes) < SETUP_SAMPLES:
            probe = run_experiment_child(spec, args.seed, "setup", work, env, verdict, counter)
            if probe is None:
                break
            setup_probes.append(probe)
    for report in reports + setup_probes:
        host_scaled(speed, report)
    verdict.check_digest(workload, spec, args.seed)
    plain = [r for r in reports if r["mode"] == "plain"]
    if not plain:
        return {}, verdict
    if not args.trace:
        setups = [r["setup_s"] for r in plain + setup_probes]
        # A request is one cold plan run: interpreter start to checked
        # results, what a user running the experiment waits for.
        latencies = [r["setup_s"] + r["wall_s"] for r in plain]
        return {
            "setup_s": statistics.median(setups),
            "wall_s": median_of(plain, "wall_s"),
            "cpu_s": median_of(plain, "cpu_s"),
            "peak_rss_mb": median_of(plain, "peak_rss_mb"),
            "requests_per_s": len(latencies) / sum(latencies),
            "request_p50_s": statistics.median(latencies),
            "request_p90_s": p90(latencies),
        }, verdict

    sys.path.insert(0, str(HERE))
    import tracing

    in_cell = [r for r in reports if r["mode"] in ("trace", "trace-serial")]
    parent = [r for r in reports if r["mode"] in ("trace", "trace-parent")]
    if not in_cell or not parent:
        return {}, verdict
    rows = []
    for cell_report, parent_report in zip(in_cell, parent):
        row = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
        row.update(tracing.in_cell_metrics(cell_report["spans"], cell_report["tables"]))
        row.update(tracing.store_metrics(parent_report["spans"]))
        row.update(parent_report["runtime"])
        row["trace.wall_s"] = parent_report["wall_s"]
        row["trace.unattributed_share"] = unattributed_share(cell_report)
        row["host.slowdown"] = speed.slowdown()
        rows.append(row)
    metrics = {name: statistics.median(row[name] for row in rows) for name, _ in PER_LAYER}
    metrics["trace.overhead_ratio"] = (
        metrics["trace.wall_s"] / median_of(plain, "wall_s")
    )
    if workload == "table3-serial":
        for report in in_cell:
            verdict.check(
                "layers_cover_traced_wall",
                unattributed_share(report) <= TABLE3_UNATTRIBUTED_MAX,
            )
    return metrics, verdict


# ----------------------------------------------------------------------
# Service workload
# ----------------------------------------------------------------------


def request_lists(spec: dict, seed: int) -> list[list[dict]]:
    """Each client's closed-loop request sequence, drawn from *seed*.

    Fresh requests cycle through every (dataset, strategy) pair in a
    seeded order, each with a study seed of its own.  A fixed share of
    positions repeats an earlier fresh request *of the same client*:
    in a closed loop its reply has already arrived, so the repeat is a
    store read, never a race with the original.
    """
    template = spec["request"]
    combos = [(d, s) for d in template["datasets"] for s in template["strategies"]]
    lists = []
    for client in range(spec["clients"]):
        rng = random.Random(f"perfbench:{seed}:{client}")
        count = spec["requests_per_client"]
        repeats = set(rng.sample(range(2, count), round(count * spec["repeat_share"])))
        fresh: list[dict] = []
        cycle: list[tuple] = []
        sequence = []
        for position in range(count):
            if position in repeats:
                sequence.append(rng.choice(fresh))
                continue
            if not cycle:
                cycle = combos[:]
                rng.shuffle(cycle)
            dataset, strategy = cycle.pop()
            payload = {
                "datasets": dataset,
                "strategies": strategy,
                "methods": template["methods"],
                "repetitions": template["repetitions"],
                "m": template["m"],
                "alpha": template["alpha"],
                "epsilon": template["epsilon"],
                "seed": seed * 1_000_000 + client * 10_000 + len(fresh),
            }
            fresh.append(payload)
            sequence.append(payload)
        lists.append(sequence)
    return lists


def proc_cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def serve_options(spec: dict) -> list[str]:
    """``serve`` flags: the recorded run context plus the service's own."""
    context = spec["resolved_context"]
    flags = []
    for key in ("workers", "backend", "max_retries", "on_error", "kernel", "solve_table"):
        flags += ["--" + key.replace("_", "-"), str(context[key])]
    return flags + spec["serve_options"]


class ServeProcess:
    """One cold service process: spawned, pinged until ready, shut down."""

    def __init__(self, directory: Path, options: list[str], env: dict,
                 stats: Path | None = None):
        from repro.exceptions import ReproError
        from repro.runtime.service.client import ping_service

        directory.mkdir(parents=True)
        self.address = str(directory / "s.sock")
        if stats is None:
            command = [sys.executable, "-m", "repro", "serve"]
        else:
            command = [sys.executable, str(HERE / "servehost.py"), str(stats), "serve"]
        command += ["--socket", self.address, "--cache-dir", str(directory / "store"), *options]
        self.log = open(directory / "serve.log", "w")
        t0 = time.monotonic()
        self.proc = subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL,
                                     stderr=self.log)
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"serve exited with {self.proc.returncode} while starting")
            if time.monotonic() - t0 > 60:
                raise RuntimeError("serve did not answer ping within 60 s")
            if os.path.exists(self.address):
                try:
                    ping_service(self.address)
                    break
                except (ReproError, OSError):
                    pass
            time.sleep(0.002)
        self.started = t0
        self.setup_s = time.monotonic() - t0

    def stop(self) -> int:
        """Shut the service down; its exit status (killed if it hangs)."""
        from repro.exceptions import ReproError
        from repro.runtime.service.client import shutdown_service

        try:
            if self.proc.poll() is None:
                shutdown_service(self.address)
                return self.proc.wait(timeout=60)
            return self.proc.returncode
        except (ReproError, OSError, subprocess.TimeoutExpired):
            return -1
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.log.close()


def client_loop(address: str, requests: list[dict], records: list[dict]) -> None:
    from repro.runtime.service.client import submit_request

    for payload in requests:
        start = time.monotonic()
        record: dict = {"payload": payload, "started": start}

        def on_event(event: dict, record=record, start=start) -> None:
            if event.get("event") == "accepted":
                record["accept_s"] = time.monotonic() - start
                record["context"] = event.get("context")

        try:
            record["reply"] = submit_request(address, payload, on_event=on_event)
        except Exception as exc:  # any client-side failure counts as failed
            record["error"] = f"{type(exc).__name__}: {exc}"
        record["latency_s"] = time.monotonic() - start
        records.append(record)


def service_batch(spec: dict, seed: int, directory: Path, env: dict,
                  verdict: Verdict, traced: bool) -> dict | None:
    """One cold service driven by the closed-loop clients."""
    from repro.exceptions import ReproError
    from repro.runtime.service.client import ping_service

    stats = directory.parent / f"{directory.name}-stats.json" if traced else None
    lists = request_lists(spec, seed)
    verdict.attempted += sum(len(sequence) for sequence in lists)
    try:
        serve = ServeProcess(directory, serve_options(spec), env, stats)
    except RuntimeError as exc:
        verdict.failed += sum(len(sequence) for sequence in lists)
        print(f"perfbench: {exc}", file=sys.stderr)
        return None
    try:
        cpu_before = proc_cpu_s(serve.proc.pid)
        per_client: list[list[dict]] = [[] for _ in lists]
        threads = [
            threading.Thread(target=client_loop, args=(serve.address, sequence, records))
            for sequence, records in zip(lists, per_client)
        ]
        start = time.monotonic()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=CHILD_TIMEOUT_S)
        wall_s = time.monotonic() - start
        verdict.check("clients_finished", not any(t.is_alive() for t in threads))
        try:
            pong = ping_service(serve.address)
            cpu_s = proc_cpu_s(serve.proc.pid) - cpu_before
            peak_rss_mb = proc_hwm_mb(serve.proc.pid)
        except (ReproError, OSError) as exc:
            verdict.failed += 1
            print(f"perfbench: service died: {exc}", file=sys.stderr)
            return None
    finally:
        status = serve.stop()
    if status != 0:
        verdict.failed += 1
    store = directory / "store"
    sidecars = tree_bytes(store / "solvetable")
    batch = {
        "serve_started": serve.started,
        "setup_s": serve.setup_s,
        "started": start,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "requests": [],
        "accepts": [],
        "broker": pong.get("solve_batching") or {},
        "store_bytes": tree_bytes(store) - sidecars,
        "sidecar_bytes": sidecars,
    }
    digest = hashlib.sha256()
    cached = requests = 0
    for records in per_client:
        first_reply: dict[str, dict] = {}
        for record in records:
            requests += 1
            reply = record.get("reply")
            if reply is None or reply.get("event") != "done" or reply.get("exit_code") != 0:
                verdict.failed += 1
                print(f"perfbench: request failed: {record.get('error') or reply}",
                      file=sys.stderr)
                continue
            batch["requests"].append((record["started"], record["latency_s"]))
            batch["accepts"].append(record["accept_s"])
            key = json.dumps(record["payload"], sort_keys=True)
            rows = reply["rows"]
            verdict.check("one_row_per_request", len(rows) == 1)
            verdict.check("every_study_converged", all(row[5] == "100%" for row in rows))
            served = reply["cache_hits"] == reply["cells"]
            cached += served
            if key in first_reply:
                original = first_reply[key]
                verdict.check(
                    "repeat_reply_identical",
                    reply["table"] == original["table"] and rows == original["rows"],
                )
                verdict.check("repeat_served_from_store", served)
            else:
                first_reply[key] = reply
                verdict.check("fresh_request_computed", not served)
            verdict.check_context(spec, record.get("context"))
            digest.update(json.dumps([key, reply["table"]]).encode() + b"\n")
    verdict.check("all_requests_answered", requests == sum(len(s) for s in lists))
    verdict.digests.add(digest.hexdigest())
    batch["cached_share"] = cached / requests if requests else 0.0
    if stats is not None:
        if not stats.exists():
            verdict.failed += 1
            return None
        batch["stats"] = json.loads(stats.read_text())
    shutil.rmtree(directory, ignore_errors=True)
    return batch


def service(workload: str, spec: dict, args, work: Path, env: dict) -> tuple[dict, Verdict]:
    verdict = Verdict()
    batches: list[dict] = []
    counter = [0]

    def directory() -> Path:
        counter[0] += 1
        return work / f"serve-{counter[0]}"

    def one_round() -> None:
        for traced in ((False, True) if args.trace else (False,)):
            batch = service_batch(spec, args.seed, directory(), env, verdict, traced)
            if batch is not None:
                batch["traced"] = traced
                batches.append(batch)

    with HostSpeed() as speed:
        run_rounds(one_round, args.seconds, 1)
        plain = [b for b in batches if not b["traced"]]
        starts = [(b["serve_started"], b["setup_s"]) for b in plain]
        while plain and not args.trace and len(starts) < SETUP_SAMPLES:
            probe_dir = directory()
            try:
                probe = ServeProcess(probe_dir, serve_options(spec), env)
            except RuntimeError as exc:
                verdict.failed += 1
                print(f"perfbench: {exc}", file=sys.stderr)
                break
            starts.append((probe.started, probe.setup_s))
            if probe.stop() != 0:
                verdict.failed += 1
            shutil.rmtree(probe_dir, ignore_errors=True)
    setups = [speed.seconds(t0, t0 + setup_s) for t0, setup_s in starts]
    for batch in batches:
        factor = speed.factor(batch["started"], batch["started"] + batch["wall_s"])
        batch["wall_s"] *= factor
        batch["cpu_s"] *= factor
        batch["latencies"] = [speed.seconds(t, t + latency) for t, latency in batch["requests"]]
    verdict.check_digest(workload, spec, args.seed)
    if not plain:
        return {}, verdict
    latencies = [value for b in plain for value in b["latencies"]]
    if not args.trace:
        return {
            "setup_s": statistics.median(setups),
            "wall_s": median_of(plain, "wall_s"),
            "cpu_s": median_of(plain, "cpu_s"),
            "peak_rss_mb": median_of(plain, "peak_rss_mb"),
            "requests_per_s": len(latencies) / sum(b["wall_s"] for b in plain),
            "request_p50_s": statistics.median(latencies),
            "request_p90_s": p90(latencies),
        }, verdict

    sys.path.insert(0, str(HERE))
    import tracing

    traced = [b for b in batches if b["traced"]]
    if not traced:
        return {}, verdict
    rows = []
    for batch in traced:
        spans = batch["stats"]["spans"]
        counters = spans["counters"]
        row = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
        row.update(tracing.in_cell_metrics(spans, batch["stats"]["tables"]))
        row.update(tracing.store_metrics(spans))
        broker = batch["broker"]
        row.update({
            "runtime.units": counters.get("units", 0),
            "runtime.queue_wait_s": counters.get("queue_wait_s", 0.0),
            "runtime.execute_s": counters.get("execute_s", 0.0),
            "runtime.retries": counters.get("retries", 0),
            "runtime.cache_hit_ratio": counters.get("cached_cells", 0)
            / max(1, counters.get("cells", 0)),
            "runtime.store_bytes": batch["store_bytes"],
            "runtime.sidecar_bytes": batch["sidecar_bytes"],
            "service.accept_s": statistics.median(batch["accepts"]),
            "service.broker_flushes": broker.get("flushes", 0),
            "service.broker_coalesced_ratio": broker.get("coalesced_flushes", 0)
            / max(1, broker.get("flushes", 0)),
            "service.cached_share": batch["cached_share"],
            "trace.wall_s": batch["wall_s"],
            "trace.unattributed_share": unattributed_share(batch["stats"]),
            "host.slowdown": speed.slowdown(),
        })
        rows.append(row)
    metrics = {name: statistics.median(row[name] for row in rows) for name, _ in PER_LAYER}
    metrics["trace.overhead_ratio"] = metrics["trace.wall_s"] / median_of(plain, "wall_s")
    return metrics, verdict


# ----------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference",
        action="store_true",
        help="record this seed-0 run's result digest in reference.json",
    )
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        fail("run from the repository root: src/repro is missing")
    spec = json.loads(SPEC_FILE.read_text())["workloads"].get(args.workload)
    if spec is None:
        fail(f"unknown workload {args.workload!r}")
    sys.path.insert(0, str(root / "src"))

    work = Path(".bench_work") / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(root / "src"), env.get("PYTHONPATH")) if part
    )
    env["TMPDIR"] = str(work.resolve())
    # Byte-compile up front so no measured set-up pays for it.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src", str(HERE)],
        env=env, stdout=subprocess.DEVNULL, check=True,
    )
    runner = service if spec["kind"] == "service" else experiment
    try:
        metrics, verdict = runner(args.workload, spec, args, work, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    if not metrics:
        fail("no run completed")
    if args.write_reference:
        if args.seed != 0 or len(verdict.digests) != 1:
            fail("--write-reference needs --seed 0 and one digest")
        reference = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.exists() else {}
        reference[args.workload] = {
            "spec": spec_fingerprint(spec),
            "digest": next(iter(verdict.digests)),
        }
        REFERENCE_FILE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    units = dict(PER_LAYER if args.trace else END_TO_END)
    for name, ok in sorted(verdict.checks.items()):
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    for name, value in metrics.items():
        print(f"{name:34s} {value:16.6f} {units[name]}")
    print(json.dumps({
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }))
    return 0 if verdict.correct else 1


if __name__ == "__main__":
    sys.exit(main())
