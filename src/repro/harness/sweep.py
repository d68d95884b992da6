"""Parallel parameter sweeps with an on-disk result cache.

Every figure reproduction is a grid of :class:`ExperimentConfig`s —
schemes x loads x seeds — and each cell is an independent, deterministic
simulation.  This module fans such a grid across ``multiprocessing``
workers and memoises each cell on disk, so a sweep saturates the machine
the first time and is a cache hit every time after.

Design notes
------------
* **Determinism is preserved.**  A worker runs exactly the same
  ``run_experiment(cfg)`` the serial path runs; all randomness flows from
  ``cfg.seed``, so parallel and serial sweeps produce byte-identical
  result payloads (a property the test suite asserts).
* **Results are summaries, not simulations.**  Workers ship back a small
  JSON-serialisable payload (FCT summary, counters, per-flow
  ``(size, fct)`` pairs for pooling) — never the ``flows`` objects with
  their per-packet state, which would dominate IPC cost.
* **The cache key is content-addressed.**  ``sha256(code_version +
  canonical-JSON(config))``: any change to a config field *or* to any
  ``repro`` source file changes the key, so stale entries are simply
  never read and invalidation is automatic.
* **A broken worker cannot hang the sweep.**  Each config runs in its own
  process with a result pipe; a worker that crashes (EOF on the pipe) or
  exceeds ``timeout_s`` (terminated) yields a structured
  :class:`SweepError` result while the rest of the sweep proceeds.
* **Spawn-safe workers.**  The worker bootstrap is start-method
  agnostic: ``fork`` is preferred (cheapest), but platforms offering
  only ``spawn``/``forkserver`` (e.g. Windows, macOS defaults)
  parallelise too, because the child entry point is module-level and its
  arguments pickle.  ``processes=0`` (or 1) runs in-process with
  identical semantics — useful under debuggers.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass, field
from importlib import import_module
from multiprocessing import connection as mp_connection
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.harness.config import ExperimentConfig
from repro.metrics.fct import FctSummary
from repro.obs.spans import SpanRecorder, wall_ns

ProgressFn = Callable[[int, int, "SweepResult"], None]


# -- cache keying --------------------------------------------------------

_CODE_VERSION: Optional[str] = None


def code_version() -> str:
    """Hash of every ``repro`` source file; memoised per process.

    Baked into each cache key so that editing any simulator source
    invalidates every cached result without bookkeeping.
    """
    global _CODE_VERSION
    if _CODE_VERSION is None:
        import repro

        root = os.path.dirname(os.path.abspath(repro.__file__))
        digest = hashlib.sha256()
        for dirpath, dirnames, filenames in sorted(os.walk(root)):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                digest.update(b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
                digest.update(b"\0")
        _CODE_VERSION = digest.hexdigest()[:16]
    return _CODE_VERSION


def config_fingerprint(cfg: ExperimentConfig) -> str:
    """Canonical JSON of every result-affecting config field."""
    return json.dumps(
        dataclasses.asdict(cfg), sort_keys=True, separators=(",", ":"),
        default=str,
    )


def config_key(cfg: ExperimentConfig) -> str:
    """Stable content hash of config + code version: the cache key."""
    blob = code_version() + "\n" + config_fingerprint(cfg)
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


# -- results -------------------------------------------------------------


@dataclass
class SweepError:
    """Structured failure of one sweep cell (never an exception)."""

    kind: str                    # "exception" | "timeout" | "crash"
    message: str
    traceback: Optional[str] = None
    exitcode: Optional[int] = None


@dataclass
class SweepResult:
    """One sweep cell: the summary slice of an ExperimentResult.

    Duck-types what the reports and benches read from an
    ``ExperimentResult`` (``summary``, the counters, ``all_completed``)
    but carries compact ``(size_bytes, fct_ns)`` pairs instead of the
    full ``flows`` payload, so it is cheap to pickle and JSON-serialise.
    """

    config: ExperimentConfig
    summary: Optional[FctSummary] = None
    completed: int = 0
    total: int = 0
    timeouts: int = 0
    timeouts_small: int = 0
    drops: int = 0
    marks: int = 0
    sim_ns: int = 0
    events: int = 0
    wall_s: float = 0.0
    flow_stats: List[Tuple[int, int]] = field(repr=False, default_factory=list)
    #: the run's metrics dict (deterministic, so cacheable)
    metrics: Dict[str, dict] = field(repr=False, default_factory=dict)
    #: event-heap high-water mark — deterministic, unlike the rest of the
    #: run profile, so it travels with the payload
    heap_hwm: int = 0
    from_cache: bool = False
    error: Optional[SweepError] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def all_completed(self) -> bool:
        return self.completed == self.total

    def payload(self) -> dict:
        """The canonical JSON-serialisable body (wall time excluded, so
        identical simulations yield identical payloads)."""
        summary = None
        if self.summary is not None:
            summary = {s: getattr(self.summary, s) for s in FctSummary.__slots__}
        return {
            "summary": summary,
            "completed": self.completed,
            "total": self.total,
            "timeouts": self.timeouts,
            "timeouts_small": self.timeouts_small,
            "drops": self.drops,
            "marks": self.marks,
            "sim_ns": self.sim_ns,
            "events": self.events,
            "flow_stats": [list(pair) for pair in self.flow_stats],
            "metrics": self.metrics,
            "heap_hwm": self.heap_hwm,
        }


@dataclass
class SweepStats:
    """Observability counters for one ``run_sweep`` call."""

    total: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    errors: int = 0
    wall_s: float = 0.0
    #: simulator events executed by the runs that actually ran (cache
    #: hits contribute nothing — their simulations never happened)
    sim_events: int = 0
    #: summed per-run wall time of those runs (>= ``wall_s`` when the
    #: sweep is parallel)
    run_wall_s: float = 0.0

    @property
    def events_per_sec(self) -> float:
        """Aggregate simulation throughput of the non-cached runs."""
        return self.sim_events / self.run_wall_s if self.run_wall_s > 0 else 0.0


@dataclass
class SweepOutcome:
    """Results (in input order) plus the sweep-level counters."""

    results: List[SweepResult]
    stats: SweepStats

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, index):
        return self.results[index]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def errors(self) -> List[SweepResult]:
        return [r for r in self.results if not r.ok]


#: the integer counters of a payload, decoded by name
_COUNTERS = (
    "completed", "total", "timeouts", "timeouts_small", "drops", "marks",
    "sim_ns", "events", "heap_hwm",
)


def _result_from_payload(
    cfg: ExperimentConfig,
    payload: dict,
    wall_s: float,
    from_cache: bool,
) -> SweepResult:
    """Decode ``SweepResult.payload()`` output back into a result.

    A payload of the wrong shape (a missing key, a non-integer counter,
    malformed summary or flow pairs) raises ``KeyError``, ``TypeError``
    or ``ValueError``.
    """
    counters = {name: payload[name] for name in _COUNTERS}
    metrics = payload["metrics"]
    if any(type(v) is not int for v in counters.values()) or (
        type(metrics) is not dict
    ):
        raise TypeError("payload counters must be ints and metrics a dict")
    summary = payload["summary"]
    return SweepResult(
        config=cfg,
        summary=None if summary is None else FctSummary(**summary),
        wall_s=wall_s,
        flow_stats=[(size, fct) for size, fct in payload["flow_stats"]],
        metrics=metrics,
        from_cache=from_cache,
        **counters,
    )


def _error_result(cfg: ExperimentConfig, error: SweepError, wall_s: float) -> SweepResult:
    return SweepResult(config=cfg, wall_s=wall_s, error=error)


# -- the on-disk cache ---------------------------------------------------


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR`` or ``benchmarks/.cache`` under the cwd."""
    return os.environ.get(
        "REPRO_CACHE_DIR", os.path.join("benchmarks", ".cache")
    )


class ResultCache:
    """Content-addressed store of sweep payloads under one directory.

    Layout: ``<root>/<key>.json`` where ``key = config_key(cfg)``.  Each
    entry records the key, the config fingerprint (for humans debugging a
    miss), and the result payload.  Writes are atomic (tmp + rename) so a
    crashed run never leaves a torn entry; unreadable entries, and
    entries whose payload does not decode, are treated as misses.
    """

    def __init__(self, root: Union[str, "os.PathLike[str]", None] = None) -> None:
        self.root = os.fspath(root) if root is not None else default_cache_dir()

    def path_for(self, key: str) -> str:
        return os.path.join(self.root, key + ".json")

    def get(self, cfg: ExperimentConfig) -> Optional[dict]:
        """The stored entry dict for ``cfg``, or ``None`` on a miss."""
        key = config_key(cfg)
        try:
            with open(self.path_for(key)) as fh:
                entry = json.load(fh)
        except (OSError, ValueError):
            return None
        # valid JSON of the wrong shape is as unreadable as a torn file;
        # the payload itself is checked where it is decoded
        if not isinstance(entry, dict) or entry.get("key") != key:
            return None
        return entry

    def put(self, cfg: ExperimentConfig, payload: dict, wall_s: float) -> None:
        key = config_key(cfg)
        os.makedirs(self.root, exist_ok=True)
        entry = {
            "key": key,
            "code_version": code_version(),
            "config": config_fingerprint(cfg),
            "wall_s": wall_s,
            "payload": payload,
        }
        # Atomic publish: serialize to a same-directory temp file, flush
        # it to disk, then os.replace() into place.  A reader can only
        # ever observe the old entry or the complete new one — a worker
        # killed mid-write (e.g. by the sweep's timeout terminator) leaves
        # at worst a stale *.tmp.<pid> file, never a truncated entry that
        # would later deserialize as a cache hit.
        tmp = self.path_for(key) + f".tmp.{os.getpid()}"
        try:
            with open(tmp, "w") as fh:
                json.dump(entry, fh, sort_keys=True)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path_for(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


def _cached_result(
    cache: ResultCache, cfg: ExperimentConfig
) -> Optional[SweepResult]:
    """The cached result for ``cfg``, or ``None`` on a miss.

    An entry whose payload does not decode is a miss too: the sweep
    re-runs the config and overwrites the entry.
    """
    entry = cache.get(cfg)
    if entry is None:
        return None
    try:
        return _result_from_payload(
            cfg, entry["payload"], entry["wall_s"], from_cache=True
        )
    except (KeyError, TypeError, ValueError):
        return None


# -- execution -----------------------------------------------------------


def _execute_config(cfg: ExperimentConfig) -> Tuple[dict, float]:
    """Run one experiment and reduce it to (payload, wall seconds).

    Module-level so worker children resolve it by name — tests monkeypatch
    it to simulate crashing/hanging workers.
    """
    from repro.harness.runner import run_experiment

    res = run_experiment(cfg)
    cell = SweepResult(
        config=cfg, summary=res.summary, completed=res.completed,
        total=res.total, timeouts=res.timeouts,
        timeouts_small=res.timeouts_small, drops=res.drops, marks=res.marks,
        sim_ns=res.sim_ns, events=res.events,
        flow_stats=[(f.size_bytes, f.fct_ns) for f in res.flows if f.completed],
        metrics=res.metrics, heap_hwm=res.profile.get("heap_hwm", 0),
    )
    return cell.payload(), res.wall_s


def _child_main(conn, cfg_dict: dict) -> None:
    """Worker entry point: run one config, ship the payload, exit."""
    try:
        cfg = ExperimentConfig(**cfg_dict)
        payload, wall_s = _execute_config(cfg)
        conn.send(("ok", payload, wall_s))
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):  # parent already gone
            pass
    finally:
        conn.close()


#: what `_execute_config` runs a job with; see `_run_parallel`
_RUNNER_MODULE = "repro.harness.runner"

#: start methods the worker bootstrap supports, in preference order.
#: ``fork`` is cheapest; ``spawn``/``forkserver`` work because the worker
#: entry point (`_child_main`) is module-level and its arguments (a pipe
#: connection plus a plain config dict) pickle cleanly.
_START_METHODS = ("fork", "forkserver", "spawn")


def _resolve_processes(
    processes: Optional[int], n_configs: int
) -> Tuple[int, Optional[str]]:
    """Pick (worker count, start method); ``(0, None)`` means serial.

    Serial is what ``processes`` in {0, 1} or a single config asks for.
    Every platform offers ``spawn``, so a start method is always found.
    """
    if processes is None:
        processes = os.cpu_count() or 1
    processes = max(0, min(processes, n_configs))
    if processes <= 1:
        return 0, None
    available = multiprocessing.get_all_start_methods()
    return processes, next(m for m in _START_METHODS if m in available)


DispatchFn = Callable[[int, int], None]


def _run_serial(
    configs: Sequence[Tuple[int, ExperimentConfig]],
    on_result: Callable[[int, SweepResult], None],
    on_dispatch: Optional[DispatchFn] = None,
) -> None:
    for idx, cfg in configs:
        if on_dispatch is not None:
            on_dispatch(idx, os.getpid())
        start = time.monotonic()
        try:
            payload, wall_s = _execute_config(cfg)
            result = _result_from_payload(cfg, payload, wall_s, from_cache=False)
        except Exception as exc:
            error = SweepError(
                kind="exception",
                message=f"{type(exc).__name__}: {exc}",
                traceback=traceback.format_exc(),
            )
            result = _error_result(cfg, error, time.monotonic() - start)
        on_result(idx, result)


def _run_parallel(
    configs: Sequence[Tuple[int, ExperimentConfig]],
    processes: int,
    timeout_s: Optional[float],
    on_result: Callable[[int, SweepResult], None],
    start_method: str = "fork",
    on_dispatch: Optional[DispatchFn] = None,
) -> None:
    ctx = multiprocessing.get_context(start_method)
    queue = list(configs)[::-1]          # pop() takes them in input order
    # Under fork, the workers inherit the runner and every class the jobs
    # name from run_sweep's preflight; under forkserver, the fork server
    # loads the runner.  (spawn children re-import whatever the parent
    # holds.)
    if start_method == "forkserver":
        ctx.set_forkserver_preload([_RUNNER_MODULE])
    running: Dict[object, Tuple[int, ExperimentConfig, object, float]] = {}

    def reap(conn, idx, cfg, proc, started, timed_out=False):
        wall_s = time.monotonic() - started
        msg = None
        if not timed_out:
            try:
                if conn.poll(0):
                    msg = conn.recv()
            except (EOFError, OSError):
                msg = None
        conn.close()
        if timed_out or (msg is None and proc.is_alive()):
            proc.terminate()
        proc.join(timeout=10)
        if proc.is_alive():  # pragma: no cover - terminate() should suffice
            proc.kill()
            proc.join()
        if timed_out:
            error = SweepError(
                kind="timeout",
                message=f"worker exceeded {timeout_s}s and was terminated",
            )
            on_result(idx, _error_result(cfg, error, wall_s))
        elif msg is None:
            error = SweepError(
                kind="crash",
                message=f"worker died without a result (exitcode {proc.exitcode})",
                exitcode=proc.exitcode,
            )
            on_result(idx, _error_result(cfg, error, wall_s))
        elif msg[0] == "ok":
            on_result(
                idx, _result_from_payload(cfg, msg[1], msg[2], from_cache=False)
            )
        else:
            error = SweepError(
                kind="exception", message="worker raised", traceback=msg[1]
            )
            on_result(idx, _error_result(cfg, error, wall_s))

    try:
        while queue or running:
            while queue and len(running) < processes:
                idx, cfg = queue.pop()
                parent_conn, child_conn = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_child_main,
                    args=(child_conn, dataclasses.asdict(cfg)),
                    daemon=True,
                )
                started = time.monotonic()
                proc.start()
                child_conn.close()
                if on_dispatch is not None:
                    on_dispatch(idx, proc.pid or 0)
                running[parent_conn] = (idx, cfg, proc, started)

            # Sleep until a worker reports (or dies: EOF also wakes us),
            # but never past the soonest per-worker deadline.
            wait_s = 0.25
            if timeout_s is not None and running:
                soonest = min(t0 + timeout_s for (_, _, _, t0) in running.values())
                wait_s = min(wait_s, max(0.0, soonest - time.monotonic()))
            ready = mp_connection.wait(list(running), timeout=wait_s)
            for conn in ready:
                idx, cfg, proc, started = running.pop(conn)
                reap(conn, idx, cfg, proc, started)
            if timeout_s is not None:
                now = time.monotonic()
                for conn in list(running):
                    idx, cfg, proc, started = running[conn]
                    if now - started > timeout_s:
                        del running[conn]
                        reap(conn, idx, cfg, proc, started, timed_out=True)
    finally:
        for conn, (idx, cfg, proc, started) in running.items():
            proc.terminate()
            proc.join(timeout=5)
            conn.close()


# -- the public runner ---------------------------------------------------


def run_sweep(
    configs: Sequence[ExperimentConfig],
    processes: Optional[int] = None,
    timeout_s: Optional[float] = None,
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressFn] = None,
    spans: Optional[SpanRecorder] = None,
) -> SweepOutcome:
    """Run a grid of experiments, in parallel and through the cache.

    Parameters
    ----------
    configs:
        The grid cells, each a full :class:`ExperimentConfig`.  Results
        come back in the same order.
    processes:
        Worker processes.  ``None`` means one per CPU (capped at the
        number of configs); ``0`` or ``1`` runs serially in-process.  Any
        available start method works (``fork`` preferred, ``forkserver``
        then ``spawn`` otherwise).
    timeout_s:
        Per-config wall-clock budget.  An over-budget worker is
        terminated and reported as a ``SweepError(kind="timeout")``
        (parallel mode only — a serial run cannot be interrupted).
    cache:
        A :class:`ResultCache`; hits skip the simulation entirely.  Only
        successful results are cached; an entry that does not decode is
        a miss, re-run and overwritten.
    progress:
        ``progress(done, total, result)`` called after every cell, cache
        hits included (from the coordinating process, in completion
        order).
    spans:
        A :class:`SpanRecorder`; when given, each cell lands as one
        ``sweep/job`` span (t0 at dispatch, duration to completion; a
        cache hit is a zero-duration span) carrying its status
        (``cached`` / ``ok`` / ``exception`` / ``timeout`` / ``crash``)
        and worker identity.  Job spans are added in config order at the
        end of the sweep, so the export order never depends on which
        worker finished first.

    Before any job starts, every config to run goes through
    :func:`repro.harness.runner.preflight`: a config its build would
    refuse raises that ``ValueError`` here, and no worker is started.
    """
    configs = list(configs)
    stats = SweepStats(total=len(configs))
    results: List[Optional[SweepResult]] = [None] * len(configs)
    sweep_start = time.monotonic()
    done = {"n": 0}

    spans_on = spans is not None
    sweep_t0 = wall_ns() if spans_on else 0
    #: idx -> (dispatch wall_ns, worker pid); cache hits never appear
    dispatched: Dict[int, Tuple[int, int]] = {}
    #: idx -> finished job span (t0, dur, args), added in idx order at the end
    job_spans: Dict[int, Tuple[int, int, dict]] = {}

    def on_dispatch(idx: int, worker_pid: int) -> None:
        dispatched[idx] = (wall_ns(), worker_pid)

    def finish(idx: int, result: SweepResult) -> None:
        results[idx] = result
        done["n"] += 1
        if result.error is not None:
            stats.errors += 1
        else:
            if not result.from_cache:
                stats.sim_events += result.events
                stats.run_wall_s += result.wall_s
                if cache is not None:
                    cache.put(result.config, result.payload(), result.wall_s)
        if spans_on:
            now = wall_ns()
            t0, worker_pid = dispatched.pop(idx, (now, 0))
            if result.error is not None:
                status = result.error.kind
            elif result.from_cache:
                status = "cached"
            else:
                status = "ok"
            args = {
                "idx": idx,
                "status": status,
                "from_cache": result.from_cache,
                "events": result.events,
                "queued_ns": max(0, t0 - sweep_t0),
                "worker_pid": worker_pid,
            }
            job_spans[idx] = (t0, now - t0, args)
        if progress is not None:
            progress(done["n"], len(configs), result)

    to_run: List[Tuple[int, ExperimentConfig]] = []
    hits: List[Tuple[int, SweepResult]] = []
    for idx, cfg in enumerate(configs):
        hit = _cached_result(cache, cfg) if cache is not None else None
        if hit is None:
            to_run.append((idx, cfg))
        else:
            hits.append((idx, hit))
    # This module does not import the simulator (a fully cached sweep
    # never needs it).  A job to run loads it here, once, and a config
    # its build would refuse raises before any job starts.
    if to_run:
        preflight = import_module(_RUNNER_MODULE).preflight
        for _idx, cfg in to_run:
            preflight(cfg)
    if cache is not None:
        stats.cache_hits, stats.cache_misses = len(hits), len(to_run)
    for idx, hit in hits:
        finish(idx, hit)

    n_workers, start_method = _resolve_processes(processes, len(to_run))
    if n_workers == 0:
        _run_serial(to_run, finish, on_dispatch if spans_on else None)
    else:
        _run_parallel(
            to_run, n_workers, timeout_s, finish, start_method=start_method,
            on_dispatch=on_dispatch if spans_on else None,
        )

    stats.wall_s = time.monotonic() - sweep_start
    if spans is not None:
        for idx in sorted(job_spans):
            t0, dur, args = job_spans[idx]
            spans.add("sweep", "job", t0, dur, tid=f"job{idx}", args=args)
        spans.add(
            "sweep", "sweep", sweep_t0, wall_ns() - sweep_t0, tid="sweep",
            args={
                "configs": stats.total,
                "cache_hits": stats.cache_hits,
                "cache_misses": stats.cache_misses,
                "errors": stats.errors,
                "workers": n_workers,
                "start_method": start_method or "serial",
            },
        )
    assert all(r is not None for r in results)
    return SweepOutcome(results=results, stats=stats)
