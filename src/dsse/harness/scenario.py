"""Scenario runner: drives owner->server ingestion, interleaved user and
owner queries with verification on every result, honest and adversarial.
"""

from __future__ import annotations

import json
import random
import secrets
import time
from collections import Counter
from dataclasses import dataclass, field

from ..bloom import BloomParams
from ..crypto import LAMBDA
from ..errors import (
    DsseError,
    NotFoundError,
    StaleEpochError,
    StaleFilterError,
    TamperedFilterError,
    UsageError,
)
from ..owner import DataOwner
from ..protocol import FRESHNESS_WINDOW, FULL, SearchTokenEnvelope
from ..server import CloudServer, MergedEntry
from ..user import AuthorizedUser
from ..wire import Client, WireServer
from .oracle import PlaintextOracle
from .phi import DEFAULT_PERIOD, synthesize_stream

ADVERSARY_BEHAVIORS = (
    "honest",
    "drop_result",
    "swap_keyword",
    "stale_bloom",
    "flip_bloom_bit",
    "forge_gamma",
    "swap_stale",
)


def default_bloom_params(n_files: int) -> BloomParams:
    """Capacity for one run: 15 membership elements per file plus digit
    embeddings and slack, at a 2^-30 false-positive target."""
    return BloomParams(2.0**-30, int(n_files * 15 * 1.3) + 1000)


class AdversarialServer(CloudServer):
    """A cloud server that can be told to cheat. Each behavior rewrites the
    honest answer; stale_bloom keeps serving the filter it was armed at.
    swap_stale answers with the oldest file in the newest one's place and
    the newest in the oldest's: the same files and gamma, so a stale file
    passes for the latest unless each file's tag names its place."""

    behavior = "honest"
    _stale_snapshot: tuple[bytes, bytes, int] | None = None

    def set_adversary(self, behavior: str) -> None:
        """Corrupt subsequent responses. stale_bloom freezes the current
        (filter, sigma, timestamp) and keeps serving it; arm it, ingest past
        the freshness window, then query. Arming sends nothing, so it
        counts no fetch, but it builds the filter's bits if none are built
        (CloudServer.bf)."""
        if behavior not in ADVERSARY_BEHAVIORS:
            raise UsageError(f"unknown behavior {behavior!r}")
        with self._lock:
            stale = None
            if behavior == "stale_bloom":
                if self.mode != FULL:
                    raise UsageError("no published filter in basic mode")
                stale = (self.bf.serialize(), self.sigma, self.t)
            self.behavior = behavior
            self._stale_snapshot = stale

    def search(self, envelope: SearchTokenEnvelope):
        ids, cts, gamma = super().search(envelope)
        if self.behavior == "drop_result":
            return ids[1:], cts[1:], gamma
        if self.behavior == "forge_gamma" and gamma is not None:
            return ids, cts, secrets.token_bytes(LAMBDA)
        if self.behavior == "swap_stale" and len(ids) > 1:
            return [ids[-1], *ids[1:-1], ids[0]], [cts[-1], *cts[1:-1], cts[0]], gamma
        if self.behavior == "swap_keyword":
            # replay another search's merged answer of the same cardinality
            with self._lock:
                tau_head = next(self.walk(envelope))[0]
                for tau, e in self.tbl.items():
                    if tau != tau_head and isinstance(e, MergedEntry) and e.n == len(ids):
                        return list(e.ids), self.ciphertexts_for(e.ids), e.gamma
        return ids, cts, gamma

    def get_bloom(self, since: tuple[int, bytes] | None = None):
        stale = self._stale_snapshot
        if stale is not None:
            return ([], stale[1], stale[2]) if since == (stale[2], stale[1]) else stale
        served = super().get_bloom(since)
        if self.behavior != "flip_bloom_bit":
            return served
        update, sigma, t = served
        if isinstance(update, list):  # a delta: the first bit of its first tau
            update = [_flip_low_bit(tau, 0) for tau in update[:1]] + update[1:]
        else:  # the first bit of the bit array
            update = _flip_low_bit(update, 8)
        return update, sigma, t


def _flip_low_bit(data: bytes, at: int) -> bytes:
    flipped = bytearray(data)
    flipped[at] ^= 0x01
    return bytes(flipped)


@dataclass
class ScenarioConfig:
    mode: str = FULL
    n_files: int = 10_000  # desk-scale default; the 20-year stream is opt-in
    n_queries: int = 50
    adversary: str = "honest"
    seed: int = 7
    transport: str = "inprocess"  # or "socket"


@dataclass
class QueryRecord:
    keyword: str
    actor: str
    expected_count: int
    guessed_count: int | None
    n_results: int
    verified: bool | None
    oracle_match: bool | None
    reason: str
    lookups: int | None
    probes: int | None
    elapsed_ms: float

    def comparable(self) -> dict:
        """Everything deterministic for a fixed (seed, config): drops timing."""
        d = self.__dict__.copy()
        d.pop("elapsed_ms")
        return d


@dataclass
class ScenarioReport:
    config: ScenarioConfig
    records: list[QueryRecord] = field(default_factory=list)
    ingest_seconds: float = 0.0
    query_seconds: float = 0.0
    failed: bool = False
    notes: list[str] = field(default_factory=list)
    ciphertexts: Counter = field(default_factory=Counter)  # the client's, sent and held

    @property
    def n_verified_true(self) -> int:
        return sum(1 for r in self.records if r.verified is True)

    @property
    def n_verified_false(self) -> int:
        return sum(1 for r in self.records if r.verified is False)

    @property
    def n_oracle_match(self) -> int:
        return sum(1 for r in self.records if r.oracle_match is True)

    def to_jsonl(self) -> str:
        lines = [
            json.dumps(
                {
                    "record": "config",
                    **{k: getattr(self.config, k) for k in self.config.__dataclass_fields__},
                }
            )
        ]
        for r in self.records:
            lines.append(json.dumps({"record": "query", **r.__dict__}))
        lines.append(
            json.dumps(
                {
                    "record": "summary",
                    "queries": len(self.records),
                    "verified_true": self.n_verified_true,
                    "verified_false": self.n_verified_false,
                    "oracle_match": self.n_oracle_match,
                    "ingest_seconds": round(self.ingest_seconds, 3),
                    "query_seconds": round(self.query_seconds, 3),
                    "ciphertexts_sent": self.ciphertexts["sent"],
                    "ciphertexts_held": self.ciphertexts["held"],
                    "failed": self.failed,
                }
            )
        )
        return "\n".join(lines) + "\n"

    def table(self) -> str:
        head = (
            f"scenario mode={self.config.mode} files={self.config.n_files} "
            f"queries={len(self.records)} adversary={self.config.adversary}"
        )
        rows = [
            head,
            f"  ingest {self.ingest_seconds:.2f}s, queries {self.query_seconds:.2f}s",
            f"  verified true={self.n_verified_true} false={self.n_verified_false} "
            f"oracle_match={self.n_oracle_match}",
            f"  ciphertexts received sent={self.ciphertexts['sent']} "
            f"held={self.ciphertexts['held']}",
        ]
        rows.extend(f"  note: {n}" for n in self.notes)
        return "\n".join(rows)


class SimulatedSystem:
    """Owner, server, authorized users and the ground-truth oracle, wired
    through the message layer (in-process by default, TCP if asked). The
    server is an AdversarialServer, honest until set_adversary arms it."""

    def __init__(
        self,
        mode: str = FULL,
        bloom_params: BloomParams | None = None,
        transport: str = "inprocess",
        n_users: int = 1,
    ):
        if transport not in ("inprocess", "socket"):
            raise UsageError(f"transport must be 'inprocess' or 'socket', got {transport!r}")
        self.mode = mode
        params = bloom_params or BloomParams()
        self.owner = DataOwner.generate(mode, params)
        self.server = AdversarialServer(
            mode,
            params,
            group_key=self.owner.keys.r if mode == FULL else None,
        )
        self.oracle = PlaintextOracle()
        self.users = [
            AuthorizedUser.from_owner(self.owner)
            for _ in range(n_users if mode == FULL else 0)
        ]
        self.now = 0
        self._wire_server: WireServer | None = None
        if transport == "socket":
            self._wire_server = WireServer(self.server)
            self._wire_server.start()
            try:
                self.client = Client.connect(*self._wire_server.address)
            except BaseException:
                self._wire_server.stop()
                raise
        else:
            self.client = Client.in_process(self.server)

    def close(self) -> None:
        self.client.close()
        if self._wire_server is not None:
            self._wire_server.stop()

    # -- ingestion ------------------------------------------------------

    def add_phi(self, phi) -> bytes:
        payload = self.owner.add_file(phi.to_bytes(), phi.keywords(), phi.timestamp)
        self.client.add(payload)
        self.oracle.add(payload.file_id, phi.keywords())
        self.now = max(self.now, phi.timestamp)
        return payload.file_id

    def ingest_stream(self, seed: int, n_files: int) -> None:
        for phi in synthesize_stream(seed, n_files):
            self.add_phi(phi)

    def rotate_revoking(self, revoked: AuthorizedUser) -> None:
        """Rotate the group key; deliver it to the server and everyone else."""
        r, epoch = self.owner.rotate_group_key()
        self.client.rotate(r, epoch)
        for user in self.users:
            if user is not revoked:
                user.update_group_key(r, epoch)

    # -- query paths ----------------------------------------------------

    def owner_query(self, keyword: str) -> QueryRecord:
        started = time.perf_counter()
        expected = self.oracle.count(keyword)
        token = self.owner.gen_token(keyword)
        ids, cts, gamma = self.client.search(token)
        oracle_match = ids == self.oracle.ids_newest_first(keyword)
        verified = None
        reason = "basic-no-proof"
        if self.mode == FULL:
            report = self.owner.verify(keyword, ids, cts, gamma, self.now + 60)
            verified = report.ok
            reason = _report_reason(report)
        return QueryRecord(
            keyword=keyword,
            actor="owner",
            expected_count=expected,
            guessed_count=None,
            n_results=len(ids),
            verified=verified,
            oracle_match=oracle_match,
            reason=reason,
            lookups=self.server.last_search_lookups,
            probes=None,
            elapsed_ms=(time.perf_counter() - started) * 1e3,
        )

    def user_query(self, user: AuthorizedUser, keyword: str) -> QueryRecord:
        """Full delegated flow through AuthorizedUser.query, then verify the
        result. A refused filter, a stale epoch or an unknown keyword is a
        record, and so is any other protocol fault."""
        started = time.perf_counter()
        now = self.now + 60
        expected = self.oracle.count(keyword)

        def record(guessed, ids, verified, reason, lookups, oracle_match=None):
            return QueryRecord(
                keyword=keyword,
                actor="user",
                expected_count=expected,
                guessed_count=guessed,
                n_results=len(ids),
                verified=verified,
                oracle_match=oracle_match,
                reason=reason,
                lookups=lookups,
                probes=user.last_probe_stats.total,
                elapsed_ms=(time.perf_counter() - started) * 1e3,
            )

        try:
            ids, cts, gamma, guessed = user.query(self.client, keyword, now)
        except (TamperedFilterError, StaleFilterError) as exc:
            return record(None, [], False, type(exc).__name__, None)
        except StaleEpochError:
            return record(None, [], False, "stale-epoch", None)
        except NotFoundError:
            # no trace in the filter, or no entry at the guessed counter
            if expected == 0:
                return record(None, [], None, "absent", None, oracle_match=True)
            return record(None, [], False, "not-found", None, oracle_match=False)
        except DsseError as exc:  # protocol fault: recorded, not raised
            return record(None, [], False, f"fault:{type(exc).__name__}", None)

        report = user.verify(keyword, guessed, ids, cts, gamma, now)
        return record(
            guessed,
            ids,
            report.ok,
            _report_reason(report),
            self.server.last_search_lookups,
            oracle_match=ids == self.oracle.ids_newest_first(keyword),
        )


def _report_reason(report) -> str:
    if report.ok:
        return "ok"
    failed = []
    if not report.cardinality_ok:
        failed.append("cardinality")
    if not report.gamma_ok:
        failed.append("gamma")
    if report.sigma_ok is False:
        failed.append("sigma")
    if report.fresh_ok is False:
        failed.append("freshness")
    return "failed:" + ",".join(failed)


# ---------------------------------------------------------------------------
# Scenario entry point
# ---------------------------------------------------------------------------

def run_scenario(config: ScenarioConfig) -> ScenarioReport:
    if config.adversary not in ADVERSARY_BEHAVIORS:
        raise UsageError(f"unknown adversary {config.adversary!r}")
    if config.adversary != "honest" and config.mode != FULL:
        raise UsageError("adversarial scenarios need full mode (no proofs in basic)")

    report = ScenarioReport(config)
    system = SimulatedSystem(
        config.mode,
        default_bloom_params(config.n_files),
        transport=config.transport,
        n_users=1,
    )
    try:
        _run_phases(config, system, report)
        report.ciphertexts = system.client.ciphertexts
    finally:
        system.close()
    return report


def _run_phases(config: ScenarioConfig, system: SimulatedSystem, report: ScenarioReport) -> None:
    rng = random.Random(config.seed * 1009 + 1)
    adversary = config.adversary

    t0 = time.perf_counter()
    if adversary == "stale_bloom":
        # arm mid-stream, then keep ingesting until the frozen snapshot is
        # older than the freshness window
        lag = FRESHNESS_WINDOW // DEFAULT_PERIOD + 2
        head = max(1, config.n_files - lag)
        stream = list(synthesize_stream(config.seed, config.n_files))
        for phi in stream[:head]:
            system.add_phi(phi)
        system.server.set_adversary("stale_bloom")
        for phi in stream[head:]:
            system.add_phi(phi)
        report.notes.append(f"stale snapshot frozen {config.n_files - head} uploads ago")
    else:
        system.ingest_stream(config.seed, config.n_files)
    report.ingest_seconds = time.perf_counter() - t0

    keywords = system.oracle.keywords()
    if adversary == "swap_stale":  # a one-file answer has nothing to swap
        keywords = [w for w in keywords if system.oracle.count(w) > 1]
    t1 = time.perf_counter()

    if adversary == "swap_keyword":
        pairs = _equal_count_pairs(system.oracle, config.n_queries, rng)
        if len(pairs) < config.n_queries:
            report.notes.append(
                f"only {len(pairs)} equal-count keyword pairs available"
            )
        for prime, _ in pairs:
            system.user_query(system.users[0], prime)  # leaves a merged answer
        system.server.set_adversary("swap_keyword")
        for _, attacked in pairs:
            report.records.append(system.user_query(system.users[0], attacked))
    else:
        if adversary != "honest" and adversary != "stale_bloom":
            system.server.set_adversary(adversary)
        for _ in range(config.n_queries):
            keyword = rng.choice(keywords)
            if config.mode == FULL:
                report.records.append(system.user_query(system.users[0], keyword))
            else:
                report.records.append(system.owner_query(keyword))
    report.query_seconds = time.perf_counter() - t1

    if adversary == "honest":
        report.failed = any(
            r.verified is False or r.oracle_match is False for r in report.records
        )
    else:
        report.failed = any(r.verified is not False for r in report.records)


def _equal_count_pairs(
    oracle: PlaintextOracle, wanted: int, rng: random.Random
) -> list[tuple[str, str]]:
    """Distinct keyword pairs with equal counters: (cache-priming, attacked)."""
    pairs: list[tuple[str, str]] = []
    for _, kws in sorted(oracle.keywords_by_count().items()):
        rng.shuffle(kws)
        for i in range(0, len(kws) - 1, 2):
            pairs.append((kws[i], kws[i + 1]))
            if len(pairs) == wanted:
                return pairs
    return pairs
