"""The three benchmark workloads, driven through dsse's public API.

A run repeats fixed-size episodes. Each episode builds fresh state (timed as
set-up), runs the workload's fixed operation sequence with one closed-loop
client, timing each operation, and then measures the state it left. The
sequence is the same in every episode, so state metrics do not depend on how
many operations fit into the run. Episodes repeat until the timed operations
have taken the requested seconds, and at least MIN_EPISODES times, so set-up
is measured several times per run.

Every query result is checked outside its timed interval: the verification
report must be ok in full mode and the ids must equal the plaintext oracle's.
"""

from __future__ import annotations

import gc
import os
import random
import resource
import statistics
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

from dsse.bloom import BloomParams
from dsse.errors import NotFoundError
from dsse.harness.phi import ATTRIBUTE_NAMES, synthesize_stream
from dsse.harness.scenario import SimulatedSystem, default_bloom_params
from dsse.protocol import BASIC, FULL
from dsse.server import MergedEntry
from dsse.wire import KIND_ADD, KIND_GET_BLOOM, KIND_SEARCH

from metrics import P99_MIN_SAMPLES, layer_from_spans

MIN_EPISODES = 3
WALL_LIMIT_S = 100.0  # no new episode after this, so a run ends within 180 s

YEAR_CAPACITY = 52_560 * 15  # a year of 10-minute uploads, 15 keywords each
GATEWAY_SETUP_FILES = 100  # uploaded in set-up, so set-up does real work
GATEWAY_FILES = 700
GATEWAY_REFRESH_EVERY = 200

HSP_SETUP_FILES = 2000  # ingested, then one refresh
HSP_LATE_FILES = 200  # ingested after the refresh: recovery needs digits and probes
HSP_STEPS = 2000
HSP_HOT_PER_ATTRIBUTE = 4
OWNER_EVERY = 5
UPLOAD_EVERY = 10

BASIC_SETUP_FILES = 1000  # uploaded without searches, so set-up does real work
BASIC_FILES = 3000
BASIC_ATTRIBUTE = "pulse_oxygen"  # 21 values: long chains, every search merges

OPS = ("upload", "user_query", "owner_query", "refresh")


class ByteCounter:
    """Client transport proxy that counts request and response bytes by kind."""

    def __init__(self, inner):
        self.inner = inner
        self.req: Counter = Counter()
        self.resp: Counter = Counter()

    def request(self, data: bytes) -> bytes:
        reply = self.inner.request(data)
        # byte 1 of every wire message is its kind (after the version byte)
        self.req[data[1]] += len(data)
        self.resp[data[1]] += len(reply)
        return reply

    def close(self) -> None:
        self.inner.close()


@dataclass
class Tally:
    """Everything a run measured, accumulated over its episodes."""

    tracer: object | None = None
    latencies: dict[str, list[float]] = field(default_factory=lambda: {k: [] for k in OPS})
    op_failures: Counter = field(default_factory=Counter)
    setups: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    ops: int = 0
    req_bytes: Counter = field(default_factory=Counter)
    resp_bytes: Counter = field(default_factory=Counter)
    user_queries: int = 0
    retries: int = 0
    state_bytes: list[int] = field(default_factory=list)
    merged_ids: list[int] = field(default_factory=list)

    def timed(self, kind: str, fn, *args):
        """Run one timed operation; return its result, or None if it raised."""
        tracer = self.tracer
        if tracer is not None:
            tracer.op_id = self.ops
        self.ops += 1
        self.attempted += 1
        error = None
        t0 = perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # a failed operation is counted; the run goes on
            result, error = None, exc
        self.latencies[kind].append(perf_counter() - t0)
        if tracer is not None:
            tracer.op_id = -1
        if error is not None:
            self.fail(kind, f"{type(error).__name__}: {error}")
        return result

    def fail(self, kind: str, reason: str) -> None:
        self.failed += 1
        self.op_failures[kind] += 1
        if len(self.errors) < 10:
            self.errors.append(f"{kind}: {reason}")

    def check_result(self, kind: str, system: SimulatedSystem, keyword: str, result) -> None:
        if result is None:
            return  # already counted by timed()
        ids, ok = result[0], result[1]
        if not ok:
            self.fail(kind, f"verification failed for {keyword}")
        elif ids != system.oracle.ids_newest_first(keyword):
            self.fail(kind, f"ids differ from the oracle for {keyword}")

    def add_wire(self, counter: ByteCounter) -> None:
        """Take the bytes counted since the timed phase started."""
        self.req_bytes += counter.req
        self.resp_bytes += counter.resp

    def measure_state(self, server) -> None:
        self.state_bytes.append(len(server.snapshot()))
        self.merged_ids.append(
            sum(len(e.ids) for e in server.tbl.values() if isinstance(e, MergedEntry))
        )

    # -- results ---------------------------------------------------------

    def end_to_end(self) -> dict[str, tuple[float, int]]:
        """name -> (value, sample count) for every metric this run produced."""
        out = {"setup_s": (statistics.median(self.setups), len(self.setups))}
        for kind, xs in self.latencies.items():
            if not xs:
                continue
            out[f"{kind}_p50_ms"] = (statistics.median(xs) * 1e3, len(xs))
            if kind != "refresh" and len(xs) >= P99_MIN_SAMPLES:
                p99 = statistics.quantiles(xs, n=100, method="inclusive")[98]
                out[f"{kind}_p99_ms"] = (p99 * 1e3, len(xs))
        timed_s = sum(sum(xs) for xs in self.latencies.values())
        wire = sum(self.req_bytes.values()) + sum(self.resp_bytes.values())
        out["ops_per_s"] = (self.ops / timed_s, self.ops)
        out["wire_bytes_per_op"] = (wire / self.ops, self.ops)
        out["server_state_bytes"] = (statistics.median(self.state_bytes), len(self.state_bytes))
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
        out["peak_rss_mb"] = (peak_kib / 1024, 1)
        out["failed_op_share"] = (self.failed / self.attempted, self.attempted)
        return out

    def per_layer(self, tracer) -> dict[str, float]:
        ops = self.ops
        counts = tracer.counts
        out = layer_from_spans(tracer.totals(), ops)
        lookups = counts.get("server.search.lookups", 0)
        results = counts.get("server.search.results", 0)
        out["server.search.lookups"] = lookups / ops
        out["server.search.lookups_per_result"] = lookups / results if results else 0.0
        out["server.merged_ids_stored"] = statistics.median(self.merged_ids)
        out["user.probes"] = counts.get("user.probes", 0) / ops
        out["user.digit_probes"] = counts.get("user.digit_probes", 0) / ops
        out["user.retry_share"] = self.retries / self.user_queries if self.user_queries else 0.0
        out["wire.bytes.add_req"] = self.req_bytes[KIND_ADD] / ops
        out["wire.bytes.get_bloom_resp"] = self.resp_bytes[KIND_GET_BLOOM] / ops
        out["wire.bytes.search_resp"] = self.resp_bytes[KIND_SEARCH] / ops
        return out


# ---------------------------------------------------------------------------
# Operations, each one closed-loop call sequence through the public API
# ---------------------------------------------------------------------------

def _system(mode: str, params: BloomParams | None, transport: str) -> SimulatedSystem:
    if transport == "socket":
        _one_cpu()
    system = SimulatedSystem(mode, params, transport=transport)
    system.client.transport = ByteCounter(system.client.transport)
    return system


def _one_cpu() -> None:
    """Pin this process, and the threads it starts, to one CPU.

    Over TCP, the client thread and the WireServer handler thread hand each
    request back and forth and never run at once. Left free, each hand-off
    may wake an idle CPU, which in a virtual machine takes a host-dependent
    time; on one CPU it is a plain thread switch. Single-threaded workloads
    stay free, so that the scheduler can move them off a busy CPU.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _start_timed_phase(system: SimulatedSystem, adversary: str) -> ByteCounter:
    """Arm the adversary, zero the byte counts and collect garbage."""
    if adversary != "honest":
        system.server.set_adversary(adversary)
    counter = system.client.transport
    counter.req.clear()
    counter.resp.clear()
    gc.collect()
    return counter


def _upload(system: SimulatedSystem, f: tuple) -> bytes:
    plaintext, keywords, ts = f
    payload = system.owner.add_file(plaintext, keywords, ts)
    system.client.add(payload)
    return payload.file_id


def _refresh(system: SimulatedSystem, ts: int) -> None:
    system.client.refresh(system.owner.refresh_bloom(ts))


def _owner_query(system: SimulatedSystem, keyword: str, now: int):
    ids, cts, proof = system.client.search(system.owner.gen_token(keyword))
    ok = system.mode != FULL or system.owner.verify(keyword, ids, cts, proof, now).ok
    return ids, ok


def _user_query(system: SimulatedSystem, keyword: str, now: int):
    user = system.users[0]
    envelope, guessed = user.gen_token(system.client.get_bloom(), keyword, now)
    retried = False
    try:
        ids, cts, proof = system.client.search(envelope)
    except NotFoundError:
        # the filter claimed counter+1 exists: a boundary false positive
        guessed -= 1
        retried = True
        ids, cts, proof = system.client.search(user.token_for_counter(keyword, guessed))
    return ids, user.verify(keyword, guessed, ids, cts, proof, now).ok, retried


def _ingest(system: SimulatedSystem, f: tuple) -> None:
    """Untimed set-up upload."""
    system.oracle.add(_upload(system, f), f[1])
    system.now = f[2]


def _timed_upload(tally: Tally, system: SimulatedSystem, f: tuple) -> None:
    file_id = tally.timed("upload", _upload, system, f)
    if file_id is not None:
        system.oracle.add(file_id, f[1])
        system.now = f[2]


def _timed_query(tally: Tally, system: SimulatedSystem, kind: str, keyword: str) -> None:
    fn = _user_query if kind == "user_query" else _owner_query
    result = tally.timed(kind, fn, system, keyword, system.now + 60)
    tally.check_result(kind, system, keyword, result)
    if kind == "user_query":
        tally.user_queries += 1
        if result is not None and result[2]:
            tally.retries += 1


# ---------------------------------------------------------------------------
# Inputs: everything comes from the seed; the program sees only these values
# ---------------------------------------------------------------------------

def _files(seed: int, n: int) -> list[tuple]:
    return [(p.to_bytes(), p.keywords(), p.timestamp) for p in synthesize_stream(seed, n)]


def _by_attribute(files: list[tuple]) -> dict[str, list[str]]:
    present: dict[str, set[str]] = {a: set() for a in ATTRIBUTE_NAMES}
    for _, keywords, _ in files:
        for kw in keywords:
            present[kw.split(":", 1)[0]].add(kw)
    return {a: sorted(kws) for a, kws in present.items()}


def _scaled(n: int, scale: float) -> int:
    return max(1, round(n * scale))


def gateway_inputs(seed: int, scale: float) -> dict:
    n_setup = _scaled(GATEWAY_SETUP_FILES, scale)
    files = _files(seed, n_setup + _scaled(GATEWAY_FILES, scale))
    rng = random.Random(f"gateway_ingest:{seed}")
    # one checked keyword per attribute, so result sizes span 1 to hundreds
    check = [rng.choice(kws) for kws in _by_attribute(files).values()]
    return {
        "setup": files[:n_setup],
        "files": files[n_setup:],
        "refresh_every": _scaled(GATEWAY_REFRESH_EVERY, scale),
        "check": check,
    }


def hsp_inputs(seed: int, scale: float) -> dict:
    n_setup, n_late = _scaled(HSP_SETUP_FILES, scale), _scaled(HSP_LATE_FILES, scale)
    n_steps = _scaled(HSP_STEPS, scale)
    files = _files(seed, n_setup + n_late + n_steps // UPLOAD_EVERY)
    rng = random.Random(f"hsp_query:{seed}")
    hot = [
        kw
        for kws in _by_attribute(files[: n_setup + n_late]).values()
        for kw in rng.sample(kws, min(HSP_HOT_PER_ATTRIBUTE, len(kws)))
    ]
    timed_files = iter(files[n_setup + n_late :])
    steps = [
        (
            rng.choice(hot),
            rng.choice(hot) if s % OWNER_EVERY == 0 else None,
            next(timed_files) if s % UPLOAD_EVERY == 0 else None,
        )
        for s in range(1, n_steps + 1)
    ]
    return {
        "params": default_bloom_params(len(files)),
        "setup": files[:n_setup],
        "late": files[n_setup : n_setup + n_late],
        "steps": steps,
    }


def basic_inputs(seed: int, scale: float) -> dict:
    n_setup = _scaled(BASIC_SETUP_FILES, scale)
    files = _files(seed, n_setup + _scaled(BASIC_FILES, scale))
    prefix = BASIC_ATTRIBUTE + ":"
    timed = files[n_setup:]
    searches = [next(kw for kw in f[1] if kw.startswith(prefix)) for f in timed]
    return {"setup": files[:n_setup], "files": timed, "searches": searches}


# ---------------------------------------------------------------------------
# Episodes: set-up, timed phase, optional untimed end check
# ---------------------------------------------------------------------------

def gateway_setup(inp: dict) -> SimulatedSystem:
    system = _system(FULL, BloomParams(2.0**-30, YEAR_CAPACITY), "inprocess")
    for f in inp["setup"]:
        _ingest(system, f)
    return system


def gateway_timed(tally: Tally, system: SimulatedSystem, inp: dict) -> None:
    for i, f in enumerate(inp["files"], 1):
        _timed_upload(tally, system, f)
        if i % inp["refresh_every"] == 0:
            tally.timed("refresh", _refresh, system, system.now)


def gateway_check(tally: Tally, system: SimulatedSystem, inp: dict) -> None:
    """One untimed owner query per attribute, checked like a timed one."""
    now = system.now + 60
    for keyword in inp["check"]:
        tally.attempted += 1
        try:
            result = _owner_query(system, keyword, now)
        except Exception as exc:  # counted like a failed timed query
            tally.fail("check", f"{type(exc).__name__}: {exc}")
        else:
            tally.check_result("check", system, keyword, result)


def hsp_setup(inp: dict) -> SimulatedSystem:
    system = _system(FULL, inp["params"], "socket")
    try:
        for f in inp["setup"]:
            _ingest(system, f)
        system.client.refresh(system.owner.refresh_bloom(system.now))
        for f in inp["late"]:
            _ingest(system, f)
    except BaseException:
        system.close()
        raise
    return system


def hsp_timed(tally: Tally, system: SimulatedSystem, inp: dict) -> None:
    for user_kw, owner_kw, f in inp["steps"]:
        _timed_query(tally, system, "user_query", user_kw)
        if owner_kw is not None:
            _timed_query(tally, system, "owner_query", owner_kw)
        if f is not None:
            _timed_upload(tally, system, f)


def basic_setup(inp: dict) -> SimulatedSystem:
    system = _system(BASIC, None, "inprocess")
    for f in inp["setup"]:
        _ingest(system, f)
    return system


def basic_timed(tally: Tally, system: SimulatedSystem, inp: dict) -> None:
    for f, keyword in zip(inp["files"], inp["searches"]):
        _timed_upload(tally, system, f)
        _timed_query(tally, system, "owner_query", keyword)


WORKLOADS = {
    "gateway_ingest": (gateway_inputs, gateway_setup, gateway_timed, gateway_check),
    "hsp_query": (hsp_inputs, hsp_setup, hsp_timed, None),
    "basic_recurring": (basic_inputs, basic_setup, basic_timed, None),
}


def run(name: str, seed: int, seconds: float, scale: float = 1.0,
        adversary: str = "honest", tracer=None) -> Tally:
    make_inputs, setup, timed_phase, end_check = WORKLOADS[name]
    inp = make_inputs(seed, scale)
    tally = Tally(tracer)
    started = perf_counter()
    while len(tally.setups) < MIN_EPISODES or (
        sum(map(sum, tally.latencies.values())) < seconds
        and perf_counter() - started < WALL_LIMIT_S
    ):
        t0 = perf_counter()
        system = setup(inp)
        tally.setups.append(perf_counter() - t0)
        try:
            counter = _start_timed_phase(system, adversary)
            timed_phase(tally, system, inp)
            tally.add_wire(counter)
            if end_check is not None:
                end_check(tally, system, inp)
            tally.measure_state(system.server)
        finally:
            system.close()
    return tally
