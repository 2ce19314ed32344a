"""Desk-scale benchmarks with reference values for orientation.

Absolute times are hardware-bound, so every row prints the measured value
next to the reference value for orientation only; the checkable laws are
relational (recurring search no slower than a fresh one, verification time
affine in the number of returned files).
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass, field

from ..bloom import BloomFilter, BloomParams
from ..owner import DataOwner
from ..protocol import BASIC, FULL, FilterTags
from ..server import CloudServer, MergedEntry
from ..user import AuthorizedUser
from ..wire import Client, encode
from .audit import RecordingTransport
from .phi import STREAM_START, synthesize_stream
from .scenario import default_bloom_params

# Reference values for this scheme measured on a 2.5 GHz laptop-class
# machine: add ~190 ms, search returning 100 ids ~2 s fresh / ~1 s
# recurring, verify 1000 files ~135 ms of which the filter check ~55 ms,
# token ~10 ms, owner table ~1.3 MB and filter ~5 MB after a million files.
REFERENCES = {
    "add_file_ms": 190.0,
    "search_new_100_ms": 2000.0,
    "search_recurring_100_ms": 1000.0,
    "verify_1000_ms": 135.0,
    "verify_bloom_check_ms": 55.0,
    "token_gen_ms": 10.0,
    "tbl_c_bytes_at_1m": 1.3 * 1024 * 1024,
    "bf_bytes": 5.0 * 1024 * 1024,
}

TWENTY_YEAR_FILES = 1_051_200       # 10-minute uploads for 20 years
REFRESH_EVERY_FILES = 52_560        # annual filter refresh (144 * 365)
YEAR_PARAMS = BloomParams(2.0**-30, REFRESH_EVERY_FILES * 15)  # a year of uploads


@dataclass
class BenchRow:
    metric: str
    measured: float
    reference: float | None
    unit: str
    note: str = ""


@dataclass
class BenchReport:
    rows: list[BenchRow] = field(default_factory=list)
    laws: dict[str, bool] = field(default_factory=dict)

    def add(self, metric: str, measured: float, reference: float | None, unit: str, note: str = "") -> None:
        self.rows.append(BenchRow(metric, measured, reference, unit, note))

    def table(self) -> str:
        lines = [f"{'metric':34} {'measured':>14} {'reference':>14}  unit"]
        for r in self.rows:
            ref = f"{r.reference:.2f}" if r.reference is not None else "-"
            note = f"  ({r.note})" if r.note else ""
            lines.append(f"{r.metric:34} {r.measured:>14.3f} {ref:>14}  {r.unit}{note}")
        for name, ok in self.laws.items():
            lines.append(f"law {name}: {'PASS' if ok else 'FAIL'}")
        return "\n".join(lines)

    def to_jsonl(self) -> str:
        lines = [json.dumps({"record": "bench", **r.__dict__}) for r in self.rows]
        lines += [json.dumps({"record": "law", "name": k, "pass": v}) for k, v in self.laws.items()]
        return "\n".join(lines) + "\n"


def linear_fit(xs: list[float], ys: list[float]) -> tuple[float, float, float]:
    """Least-squares y = a + b*x; returns (intercept, slope, r_squared).
    Constant ys fit exactly: r_squared is 1."""
    b, a = statistics.linear_regression(xs, ys)
    r2 = statistics.correlation(xs, ys) ** 2 if len(set(ys)) > 1 else 1.0
    return a, b, r2


def _median_ms(samples: list[float]) -> float:
    return statistics.median(samples) * 1e3


# ---------------------------------------------------------------------------
# Individual benchmarks
# ---------------------------------------------------------------------------

def bench_add_file(n_files: int = 500, seed: int = 11) -> tuple[float, DataOwner]:
    """Median owner-side add cost, full mode, at a year-sized filter."""
    owner = DataOwner.generate(FULL, YEAR_PARAMS)
    samples = []
    for phi in synthesize_stream(seed, n_files):
        t0 = time.perf_counter()
        owner.add_file(phi.to_bytes(), phi.keywords(), phi.timestamp)
        samples.append(time.perf_counter() - t0)
    return _median_ms(samples), owner


def bench_accept_delta(n_files: int = 30, seed: int = 12) -> float:
    """Median cost for a user to accept one upload at a year-sized filter:
    after each upload (untimed), the delta fetch plus the user's gen_token,
    which stages the taus into the blocks they fall in, tags those again
    and checks sigma before writing them."""
    owner = DataOwner.generate(FULL, YEAR_PARAMS)
    client = Client.in_process(CloudServer(FULL, YEAR_PARAMS, group_key=owner.keys.r))
    user = AuthorizedUser.from_owner(owner)
    samples = []
    for i, phi in enumerate(synthesize_stream(seed, n_files + 1)):
        client.add(owner.add_file(phi.to_bytes(), phi.keywords(), phi.timestamp))
        keyword = min(phi.keywords())
        t0 = time.perf_counter()
        user.gen_token(client.get_bloom(), keyword, phi.timestamp)
        if i:  # the first fetch is the whole filter
            samples.append(time.perf_counter() - t0)
    return _median_ms(samples)


def bench_refresh(
    n_files: int = 300, repeats: int = 7, seed: int = 13
) -> tuple[float, int, int]:
    """Median cost of a refresh at a year-sized filter after n_files
    uploads: the owner's rebuild (refresh_bloom) plus an in-process
    Client.refresh, in which the REFRESH is encoded and decoded and the
    server checks its elements (it builds no bits until a whole GET_BLOOM
    asks for them). Also returns the REFRESH frame's length and its
    element count."""
    owner = DataOwner.generate(FULL, YEAR_PARAMS)
    client = Client.in_process(CloudServer(FULL, YEAR_PARAMS, group_key=owner.keys.r))
    for phi in synthesize_stream(seed, n_files):
        client.add(owner.add_file(phi.to_bytes(), phi.keywords(), phi.timestamp))
    now = phi.timestamp
    samples = []
    for _ in range(repeats):
        now += 600
        t0 = time.perf_counter()
        payload = owner.refresh_bloom(now)
        client.refresh(payload)
        samples.append(time.perf_counter() - t0)
    return _median_ms(samples), len(encode(payload)), payload.n


@dataclass
class SearchBench:
    new_ms: float
    recurring_ms: float
    new_lookups: int
    recurring_lookups: int


def bench_search(result_size: int = 100, repeats: int = 9) -> SearchBench:
    """Fresh search vs recurring search, both returning `result_size` ids.

    The recurring keywords were searched at half their final counter, so
    half the returned ids come from one merged hop and half from fresh
    chain entries (the reference experiment's recurring split).
    """
    half = result_size // 2
    params = default_bloom_params(result_size)
    owner = DataOwner.generate(FULL, params)
    server = CloudServer(FULL, params, group_key=owner.keys.r)
    fresh_kws = [f"fresh:{i}" for i in range(repeats)]
    rec_kws = [f"rec:{i}" for i in range(repeats)]
    now = STREAM_START
    for i in range(half):
        server.add(owner.add_file(f"f{i}".encode(), fresh_kws + rec_kws, now + i * 600))
    for w in rec_kws:  # prime: merges each recurring chain at counter `half`
        server.search(owner.gen_token(w))
    for i in range(half, result_size):
        server.add(owner.add_file(f"f{i}".encode(), fresh_kws + rec_kws, now + i * 600))

    def timed(keywords: list[str]) -> tuple[float, int]:
        samples = []
        for w in keywords:
            token = owner.gen_token(w)
            t0 = time.perf_counter()
            ids, _, _ = server.search(token)
            samples.append(time.perf_counter() - t0)
            assert len(ids) == result_size
        return _median_ms(samples), server.last_search_lookups

    (new_ms, new_lookups), (rec_ms, rec_lookups) = timed(fresh_kws), timed(rec_kws)
    return SearchBench(new_ms, rec_ms, new_lookups, rec_lookups)


@dataclass
class SearchReplyBench:
    first: int
    repeat: int
    after_upload: int
    new_ciphertext: int


def bench_search_reply_bytes(result_size: int = 100) -> SearchReplyBench:
    """SEARCH reply bytes over one client (basic mode) for the first search
    of a `result_size`-file keyword, for a repeat of it, which names the id
    list the first left, and for a search after one more upload, which
    carries that file's id and its ciphertext (new_ciphertext bytes) only."""
    owner = DataOwner.generate(BASIC)
    server = CloudServer(BASIC)
    client = Client.in_process(server)
    *phis, late = synthesize_stream(14, result_size + 1)
    for phi in phis:
        client.add(owner.add_file(phi.to_bytes(), ["reply:1"], phi.timestamp))
    client.transport = recorder = RecordingTransport(client.transport)
    for _ in range(2):
        client.search(owner.gen_token("reply:1"))
    payload = owner.add_file(late.to_bytes(), ["reply:1"], late.timestamp)
    server.add(payload)
    client.search(owner.gen_token("reply:1"))
    first, repeat, after_upload = (len(reply) for _, reply in recorder.frames)
    return SearchReplyBench(first, repeat, after_upload, len(payload.ciphertext))


@dataclass
class VerifyBench:
    counts: list[int]
    total_ms: list[float]
    bloom_ms: float
    r_squared: float


def bench_verify(counts: list[int] | None = None, repeats: int = 9) -> VerifyBench:
    """Delegated result verification fitted against result count, and the
    token-time filter check it relies on (the user parsing the filter and
    tagging every block), which a user pays once per whole filter it fetches
    rather than once per result."""
    counts = counts or [100, 250, 500, 750, 1000]
    top = max(counts)
    params = default_bloom_params(top)
    owner = DataOwner.generate(FULL, params)
    server = CloudServer(FULL, params, group_key=owner.keys.r)
    markers = {c: f"count:{c}" for c in counts}
    now = STREAM_START
    for i in range(top):
        kws = [w for c, w in markers.items() if i < c] + [f"filler:{i % 7}"]
        server.add(owner.add_file(f"f{i}".encode(), kws, now + i * 600))
    now += top * 600 + 60

    user = AuthorizedUser.from_owner(owner)
    answer = bf_bytes, sigma, t = server.get_bloom()
    user.gen_token(answer, markers[top], now)  # the filter verify checks against
    bloom_samples = []
    total_by_count: dict[int, list[float]] = {c: [] for c in counts}
    results = {}
    for c in counts:
        results[c] = server.search(owner.gen_token(markers[c]))
    # round-robin over counts so load drift cannot bias larger counts
    for _ in range(repeats):
        t0 = time.perf_counter()
        bf = BloomFilter.deserialize(bf_bytes)
        mac_ok = FilterTags(owner.keys.k_mac, bf).sigma(t) == sigma
        bloom_samples.append(time.perf_counter() - t0)
        assert mac_ok
        for c in counts:
            ids, cts, gamma = results[c]
            t0 = time.perf_counter()
            report = user.verify(markers[c], c, ids, cts, gamma, now)
            total_by_count[c].append(time.perf_counter() - t0)
            assert report.ok

    totals = [_median_ms(total_by_count[c]) for c in counts]
    _, _, r2 = linear_fit([float(c) for c in counts], totals)
    return VerifyBench(counts, totals, _median_ms(bloom_samples), r2)


def bench_token_gen(chain_length: int = 1000, repeats: int = 9) -> float:
    """Median delegated token generation on an unchanged filter answer (the
    empty delta): its sigma check, the counter guess and the token wrap (the
    whole filter is handed over once, untimed)."""
    params = default_bloom_params(chain_length)
    owner = DataOwner.generate(FULL, params)
    server = CloudServer(FULL, params, group_key=owner.keys.r)
    now = STREAM_START
    for i in range(chain_length):
        server.add(owner.add_file(f"f{i}".encode(), ["token:1"], now + i * 600))
    now += chain_length * 600
    user = AuthorizedUser.from_owner(owner)
    _, sigma, t = answer = server.get_bloom()
    user.gen_token(answer, "token:1", now + 60)
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        user.gen_token(([], sigma, t), "token:1", now + 60)
        samples.append(time.perf_counter() - t0)
    return _median_ms(samples)


@dataclass
class MergedStorageBench:
    steps: int
    stored_ids: int
    answered_ids: int
    snapshot_bytes: int
    restore_ms: float


def bench_merged_storage(steps: int = 2000) -> MergedStorageBench:
    """Server storage after `steps` uploads of one keyword, each followed
    by a search of it (basic mode): the ids its merged entries store, each
    shared list counted once, the ids those entries answer with, the
    server snapshot size and the median time of five restores of it."""
    owner = DataOwner.generate(BASIC)
    server = CloudServer(BASIC)
    for i in range(steps):
        server.add(owner.add_file(f"f{i}".encode(), ["recurring:1"], STREAM_START + i * 600))
        server.search(owner.gen_token("recurring:1"))
    merged = [e for e in server.tbl.values() if isinstance(e, MergedEntry)]
    lists = {id(e.chain): e.chain for e in merged}
    blob = server.snapshot()
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        CloudServer.restore(blob)
        samples.append(time.perf_counter() - t0)
    return MergedStorageBench(
        steps,
        sum(len(chain) for chain in lists.values()),
        sum(e.n for e in merged),
        len(blob),
        _median_ms(samples),
    )


def bench_restore_full(
    n_files: int = 300, repeats: int = 5, seed: int = 15
) -> tuple[float, int]:
    """Median time of `repeats` restores of a full-mode server snapshot at
    a year-sized filter, taken after n_files uploads with a REFRESH halfway:
    restore checks that REFRESH's elements and marks the labels added since
    (it builds no bits). Also returns the snapshot's length."""
    owner = DataOwner.generate(FULL, YEAR_PARAMS)
    server = CloudServer(FULL, YEAR_PARAMS, group_key=owner.keys.r)
    for i, phi in enumerate(synthesize_stream(seed, n_files)):
        if i == n_files // 2:
            server.refresh(owner.refresh_bloom(phi.timestamp - 1))
        server.add(owner.add_file(phi.to_bytes(), phi.keywords(), phi.timestamp))
    blob = server.snapshot()
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        CloudServer.restore(blob)
        samples.append(time.perf_counter() - t0)
    return _median_ms(samples), len(blob)


# ---------------------------------------------------------------------------
# Owner-state scale run (opt-in)
# ---------------------------------------------------------------------------

@dataclass
class StateSizeReport:
    n_files: int
    n_keywords: int
    tbl_bytes: int
    bf_bytes: int
    seconds: float


def long_state_run(
    n_files: int = TWENTY_YEAR_FILES,
    refresh_every: int = REFRESH_EVERY_FILES,
    seed: int = 20,
    progress_every: int = 0,
) -> StateSizeReport:
    """Build the owner state for the 20-year stream and report its sizes.

    Every upload pays the whole owner cost, its filter MAC included, and
    every refresh tags every block of the new filter.
    """
    params = BloomParams(2.0**-30, refresh_every * 15 + 250_000)
    owner = DataOwner.generate(FULL, params)
    t0 = time.perf_counter()
    added = 0
    for phi in synthesize_stream(seed, n_files):
        owner.add_file(phi.to_bytes(), phi.keywords(), phi.timestamp)
        added += 1
        if added % refresh_every == 0 and added < n_files:
            owner.refresh_bloom(phi.timestamp)
        if progress_every and added % progress_every == 0:
            print(f"  {added}/{n_files} files", flush=True)
    return StateSizeReport(
        n_files=n_files,
        n_keywords=len(owner.tbl),
        tbl_bytes=_tbl_snapshot_bytes(owner),
        bf_bytes=sum(map(len, owner.bf.buffers())),
        seconds=time.perf_counter() - t0,
    )


def _tbl_snapshot_bytes(owner: DataOwner) -> int:
    """The keyword table's share of the owner snapshot, as the owner writes it."""
    buf = bytearray()
    owner._put_table(buf)
    return len(buf)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def run_bench(
    add_files: int = 500,
    search_chain: int = 100,
    verify_counts: list[int] | None = None,
) -> BenchReport:
    report = BenchReport()

    add_ms, owner = bench_add_file(add_files)
    report.add("add_file", add_ms, REFERENCES["add_file_ms"], "ms/file",
               f"{add_files} uploads, year-sized filter")
    report.add("tbl_c_size", float(_tbl_snapshot_bytes(owner)), None, "bytes",
               f"after {add_files} files")
    report.add("bf_size", float(sum(map(len, owner.bf.buffers()))),
               REFERENCES["bf_bytes"], "bytes", "year-capacity filter")
    report.add("accept_delta", bench_accept_delta(), None, "ms",
               "delta fetch + gen_token after one upload, year-sized filter")
    refresh_files = 300
    refresh_ms, frame_bytes, n = bench_refresh(refresh_files)
    report.add("refresh", refresh_ms, None, "ms",
               f"refresh_bloom + Client.refresh after {refresh_files} uploads, "
               f"year-sized filter; REFRESH frame {frame_bytes} B, {n} elements")

    sb = bench_search(result_size=search_chain)
    report.add("search_new", sb.new_ms, REFERENCES["search_new_100_ms"], "ms",
               f"{sb.new_lookups} lookups")
    report.add("search_recurring", sb.recurring_ms, REFERENCES["search_recurring_100_ms"],
               "ms", f"{sb.recurring_lookups} lookups")
    report.laws["recurring_search_not_slower"] = sb.recurring_ms <= sb.new_ms
    report.laws["recurring_lookups_smaller"] = sb.recurring_lookups < sb.new_lookups
    rb = bench_search_reply_bytes(search_chain)
    report.add("search_reply_repeat", float(rb.repeat), None, "bytes",
               f"{search_chain}-file keyword searched again over one client, naming "
               f"the id list of the first search ({rb.first} B)")
    report.add("search_reply_after_upload", float(rb.after_upload), None, "bytes",
               f"the same keyword after one more upload: one id and its "
               f"{rb.new_ciphertext} B ciphertext")

    vb = bench_verify(verify_counts)
    top = vb.counts[-1]
    report.add(f"verify_{top}_files", vb.total_ms[-1], REFERENCES["verify_1000_ms"], "ms",
               "reference includes the filter check")
    report.add("verify_bloom_check", vb.bloom_ms, REFERENCES["verify_bloom_check_ms"], "ms",
               "parse + tag every block, once per whole filter")
    report.add("verify_fit_r_squared", vb.r_squared, None, "", "time vs result count")
    report.laws["verify_time_affine_r2>=0.9"] = vb.r_squared >= 0.9

    token_ms = bench_token_gen()
    report.add("token_gen", token_ms, REFERENCES["token_gen_ms"], "ms",
               "counter guess + wrap")

    mb = bench_merged_storage()
    report.add("merged_ids_stored", float(mb.stored_ids), None, "ids",
               f"{mb.steps} uploads of one keyword, each searched; "
               f"entries answer with {mb.answered_ids}")
    report.add("server_snapshot", float(mb.snapshot_bytes), None, "bytes",
               "after the same uploads and searches")
    report.add("server_restore", mb.restore_ms, None, "ms", "restore of that basic-mode snapshot")
    restore_ms, snapshot_bytes = bench_restore_full()
    report.add("server_restore_full", restore_ms, None, "ms",
               f"restore of a {snapshot_bytes} B full-mode snapshot, year-sized filter, "
               f"a REFRESH and later uploads")
    # one keyword chain: stored ids at most its distinct ids
    report.laws["stored_merged_ids_linear"] = mb.stored_ids <= mb.steps
    return report
