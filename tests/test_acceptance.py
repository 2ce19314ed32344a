"""Acceptance suite: one test per criterion, each ending in a printed
pass/fail line (run with `pytest -s tests/test_acceptance.py` to see them).

Criterion 9's million-file state-size run is opt-in: set DSSE_LONG_RUN=1.
"""

import math
import os
import random
import time

import pytest

from dsse import crypto
from dsse.bloom import BloomFilter, BloomParams, expected_fp_rate
from dsse.errors import DecryptionError, StaleEpochError, TamperedFilterError
from dsse.harness.bench import REFERENCES, long_state_run, run_bench
from dsse.harness.phi import ATTRIBUTE_NAMES, synthesize_stream
from dsse.harness.scenario import (
    ScenarioConfig,
    SimulatedSystem,
    default_bloom_params,
    run_scenario,
)
from dsse.owner import DataOwner
from dsse.protocol import FRESHNESS_WINDOW, result_mac
from dsse.server import ChainEntry, CloudServer
from dsse.user import AuthorizedUser
from dsse.wire import Client

NOW = 1_700_000_000


def record(criterion: str, condition: bool, detail: str = "") -> None:
    status = "PASS" if condition else "FAIL"
    print(f"\n[acceptance] {criterion}: {status}  {detail}")
    assert condition, f"{criterion}: {detail}"


def build_corpus(mode: str, n_files: int, seed: int) -> tuple[SimulatedSystem, float]:
    t0 = time.perf_counter()
    system = SimulatedSystem(mode, default_bloom_params(n_files))
    system.ingest_stream(seed, n_files)
    return system, time.perf_counter() - t0


def single_keyword_system(counter: int, refresh_at: int | None = None,
                          keyword: str = "w", capacity: int = 60_000):
    params = BloomParams(2.0**-30, capacity)
    owner = DataOwner.generate("full", params)
    server = CloudServer("full", params, group_key=owner.keys.r)
    t = NOW
    for i in range(counter):
        server.add(owner.add_file(f"f{i}".encode(), [keyword], t))
        t += 600
        if refresh_at is not None and i + 1 == refresh_at:
            server.refresh(owner.refresh_bloom(t))
            t += 600
    return owner, server, t


# ---------------------------------------------------------------------------
# 1. Oracle equivalence, both modes, within the runtime budget
# ---------------------------------------------------------------------------

def test_criterion_1_oracle_equivalence():
    elapsed = 0.0
    per_mode = {}
    for mode in ("basic", "full"):
        system, build_s = build_corpus(mode, 5000, seed=101)
        try:
            t0 = time.perf_counter()
            rng = random.Random(202)
            keywords = system.oracle.keywords()
            matches = 0
            for _ in range(200):
                w = rng.choice(keywords)
                ids, _, _ = system.client.search(system.owner.gen_token(w))
                matches += ids == system.oracle.ids_newest_first(w)
            per_mode[mode] = matches
            elapsed += build_s + (time.perf_counter() - t0)
        finally:
            system.close()
    record(
        "criterion 1 (oracle equivalence)",
        per_mode == {"basic": 200, "full": 200} and elapsed <= 60.0,
        f"matches={per_mode}, elapsed={elapsed:.1f}s (budget 60s)",
    )


# ---------------------------------------------------------------------------
# 2. Forward-privacy structural suite
# ---------------------------------------------------------------------------

def test_criterion_2_forward_privacy_structure():
    n_files = 10_000
    system = SimulatedSystem("full", default_bloom_params(n_files))
    try:
        taus: set[bytes] = set()
        emitted = 0
        for phi in synthesize_stream(303, n_files):
            payload = system.owner.add_file(phi.to_bytes(), phi.keywords(), phi.timestamp)
            system.client.add(payload)
            system.oracle.add(payload.file_id, phi.keywords())
            system.now = phi.timestamp
            for tau, _ in payload.entries:
                taus.add(tau)
                emitted += 1
        unique = len(taus) == emitted

        blob = system.server.snapshot()
        leaked = _keyword_occurrences(blob, set(system.oracle.keywords()))
    finally:
        system.close()
    record(
        "criterion 2 (forward privacy structure)",
        unique and not leaked,
        f"taus={emitted} all unique={unique}, "
        f"state bytes {len(blob)}, keyword occurrences={leaked or 'none'}",
    )


def _keyword_occurrences(blob: bytes, corpus: set[str]) -> list[str]:
    """Exact scan for any corpus keyword inside the blob.

    Every keyword is "attribute:value", so each occurrence must contain its
    "attribute:" prefix; locating those prefixes (rare in random bytes) and
    extending them by the possible value lengths covers the whole corpus
    without 25k full-blob scans.
    """
    max_value_digits = max(len(w.split(":", 1)[1]) for w in corpus)
    found = []
    for name in ATTRIBUTE_NAMES:
        prefix = (name + ":").encode()
        at = blob.find(prefix)
        while at != -1:
            for end in range(at + len(prefix) + 1, at + len(prefix) + max_value_digits + 1):
                candidate = blob[at:end].decode("utf-8", errors="replace")
                if candidate in corpus:
                    found.append(candidate)
            at = blob.find(prefix, at + 1)
    return found


# ---------------------------------------------------------------------------
# 3. Chain law
# ---------------------------------------------------------------------------

def test_criterion_3_chain_law():
    system, _ = build_corpus("full", 1500, seed=404)
    try:
        owner, server, oracle = system.owner, system.server, system.oracle
        k = owner.keys
        rng = random.Random(505)
        keywords = oracle.keywords()

        bad = 0
        for _ in range(1000):
            w = rng.choice(keywords)
            cnt = oracle.count(w)
            i = rng.randint(1, cnt)
            # F(k_i, TAG_LABEL) is 48 bytes: entry i's label, then the pad
            # whose 32 bytes open it to k_(i-1) and gamma_i; the first 16 of
            # F(k_(i-1), TAG_LABEL) are entry i-1's label
            key_i = crypto.derived_key(k.k_prf, w, i)
            link_i = crypto.prf3(key_i, bytes((crypto.TAG_LABEL,)))
            entry = server.tbl[link_i[:16]]
            assert isinstance(entry, ChainEntry)
            opened = crypto.xor_bytes(entry.mu, link_i[16:48])
            oldest_first = list(reversed(oracle.ids_newest_first(w)))
            gamma_i = crypto.aggregate_mac(
                [
                    result_mac(k.k_mac, server.files[fid], w, j)
                    for j, fid in enumerate(oldest_first[:i], start=1)
                ]
            )
            expect_key = crypto.derived_key(k.k_prf, w, i - 1) if i > 1 else b"\x00" * 16
            below = server.tbl.get(crypto.prf3(opened[:16], bytes((crypto.TAG_LABEL,)))[:16])
            ok = (
                opened[:16] == expect_key
                and (i == 1 or below.file_id == oldest_first[i - 2])
                and opened[16:] == gamma_i
            )
            bad += not ok

        # first search pays exactly cnt lookups
        lookup_bad = 0
        for w in rng.sample(keywords, 100):
            ids, _, _ = system.client.search(owner.gen_token(w))
            if system.server.last_search_lookups != oracle.count(w) or len(ids) != oracle.count(w):
                lookup_bad += 1
    finally:
        system.close()
    record(
        "criterion 3 (chain law)",
        bad == 0 and lookup_bad == 0,
        f"unmask mismatches={bad}/1000, lookup mismatches={lookup_bad}/100",
    )


# ---------------------------------------------------------------------------
# 4. Recurring-search law (merge optimization)
# ---------------------------------------------------------------------------

def test_criterion_4_recurring_search_law():
    c = 150
    results = {}
    for d in (0, 1, 10, 100):
        owner, server, t = single_keyword_system(c, keyword="hb:75")
        server.search(owner.gen_token("hb:75"))
        first_lookups = server.last_search_lookups
        for j in range(d):
            server.add(owner.add_file(f"extra{j}".encode(), ["hb:75"], t + j * 600))
        ids, _, _ = server.search(owner.gen_token("hb:75"))
        results[d] = (first_lookups, server.last_search_lookups, len(ids))
    exact = all(
        results[d] == (c, d + 1, c + d) for d in (0, 1, 10, 100)
    )
    recurring_cheaper = all(results[d][1] < c for d in (0, 1, 10, 100))
    record(
        "criterion 4 (recurring-search law)",
        exact and recurring_cheaper,
        f"(first, second, |rst|) by d: {results}",
    )


# ---------------------------------------------------------------------------
# 5. Counter recovery
# ---------------------------------------------------------------------------

def test_criterion_5_counter_recovery():
    failures = []
    for counter in (1, 5, 100, 456, 4097):
        for regime in ("pre", "post"):
            refresh_at = counter if regime == "post" else None
            owner, server, _ = single_keyword_system(counter, refresh_at)
            user = AuthorizedUser.from_owner(owner)
            bf = BloomFilter.deserialize(server.get_bloom()[0])
            guess = user.guess_counter(bf, "w")
            stats = user.last_probe_stats
            distance = counter if regime == "pre" else 0
            budget = 2 * math.ceil(math.log2(distance + 2)) + 10 * stats.digit_rounds
            if guess != counter or stats.total > budget:
                failures.append((counter, regime, guess, stats.total, budget))

    # refresh at 456 then four more uploads: floor extraction + upward search
    owner, server, _ = single_keyword_system(460, refresh_at=456)
    user = AuthorizedUser.from_owner(owner)
    bf = BloomFilter.deserialize(server.get_bloom()[0])
    if user.guess_counter(bf, "w") != 460:
        failures.append(("456+4", "post", None, None, None))

    record(
        "criterion 5 (counter recovery)",
        not failures,
        f"failures={failures or 'none'} (counters 1,5,100,456,4097 x pre/post refresh)",
    )


# ---------------------------------------------------------------------------
# 6. Verifiability detection
# ---------------------------------------------------------------------------

def test_criterion_6_verifiability_detection():
    behaviors = (
        "drop_result", "swap_keyword", "stale_bloom", "flip_bloom_bit", "forge_gamma",
        "swap_stale",
    )
    outcomes = {}
    for behavior in behaviors:
        report = run_scenario(
            ScenarioConfig(mode="full", n_files=800, n_queries=100,
                           adversary=behavior, seed=606)
        )
        outcomes[behavior] = (report.n_verified_false, len(report.records))
    honest = run_scenario(
        ScenarioConfig(mode="full", n_files=800, n_queries=100, adversary="honest", seed=606)
    )
    outcomes["honest"] = (honest.n_verified_true, len(honest.records))

    all_detected = all(
        outcomes[b] == (100, 100) for b in behaviors
    ) and outcomes["honest"] == (100, 100)

    # the stale and flipped filters also fail the delegated checks directly:
    # a stale token-time filter fails freshness at verify time, a flipped
    # one is refused at token time and leaves no verified filter behind
    owner, server, t = single_keyword_system(5)
    user = AuthorizedUser.from_owner(owner)
    env, cnt = user.gen_token(Client.in_process(server).get_bloom(), "w", t)
    ids, cts, gamma = server.search(env)
    stale = user.verify("w", cnt, ids, cts, gamma, t + FRESHNESS_WINDOW + 120)
    bf_bytes, sigma, ts = server.get_bloom()
    flipped_bf = bytearray(bf_bytes)
    flipped_bf[10] ^= 0x02
    try:
        user.gen_token((bytes(flipped_bf), sigma, ts), "w", t)
        flip_refused = False
    except TamperedFilterError:
        flip_refused = True
    flip = user.verify("w", cnt, ids, cts, gamma, t)
    direct = (
        stale.fresh_ok is False and not stale.ok
        and flip_refused and flip.sigma_ok is False and not flip.ok
    )

    record(
        "criterion 6 (verifiability detection)",
        all_detected and direct,
        f"(detected, queries) per behavior: {outcomes}; direct stale/flip checks fail={direct}",
    )


# ---------------------------------------------------------------------------
# 7. Revocation
# ---------------------------------------------------------------------------

def test_criterion_7_revocation():
    system = SimulatedSystem("full", default_bloom_params(300), n_users=2)
    try:
        system.ingest_stream(seed=707, n_files=300)
        keep, revoked = system.users
        keywords = random.Random(808).sample(system.oracle.keywords(), 20)

        before = all(system.user_query(revoked, w).verified for w in keywords[:3])
        system.rotate_revoking(revoked)

        revoked_blocked = 0
        for w in keywords:
            try:
                system.client.search(revoked.token_for_counter(w, system.oracle.count(w)))
            except StaleEpochError:
                revoked_blocked += 1
        # forging the epoch number does not help without the new key
        forged = revoked.token_for_counter(keywords[0], system.oracle.count(keywords[0]))
        forged.epoch = keep.epoch
        try:
            system.client.search(forged)
            forged_blocked = False
        except DecryptionError:
            forged_blocked = True

        kept_ok = all(
            (rec := system.user_query(keep, w)).verified and rec.oracle_match
            for w in keywords
        )
    finally:
        system.close()
    record(
        "criterion 7 (revocation)",
        before and revoked_blocked == 20 and forged_blocked and kept_ok,
        f"revoked blocked {revoked_blocked}/20, epoch forgery blocked={forged_blocked}, "
        f"remaining user verified={kept_ok}",
    )


# ---------------------------------------------------------------------------
# 8. Bloom filter math
# ---------------------------------------------------------------------------

def test_criterion_8_bloom_fp_rate():
    n = 100_000
    bf = BloomFilter(BloomParams(0.01, n))
    rng = random.Random(909)
    for _ in range(n):
        bf.add(rng.randbytes(16))
    probes = 1_000_000
    hits = sum(bf.verify(rng.randbytes(16)) for _ in range(probes))
    rate = hits / probes
    predicted = expected_fp_rate(bf.m, bf.k, n)
    record(
        "criterion 8 (bloom filter math)",
        0.005 <= rate <= 0.02,
        f"measured fp={rate:.4f} over 1e6 probes, formula predicts {predicted:.4f}, "
        f"band [0.005, 0.02]",
    )


# ---------------------------------------------------------------------------
# 9. Scale/size sanity and timing laws
# ---------------------------------------------------------------------------

def test_criterion_9_timing_laws_and_references():
    report = run_bench(add_files=300, search_chain=1000,
                       verify_counts=[100, 250, 500, 750, 1000])
    print()
    print(report.table())
    recurring_ok = report.laws["recurring_search_not_slower"]
    affine_ok = report.laws["verify_time_affine_r2>=0.9"]
    measured = {row.metric: row.measured for row in report.rows}

    def verdict(ok: bool) -> str:
        return "PASS" if ok else "FAIL"

    record(
        "criterion 9 (timing laws, desk scale)",
        recurring_ok and affine_ok,
        f"recurring<=new {verdict(recurring_ok)} (search_new "
        f"{measured['search_new']:.3f} ms, search_recurring "
        f"{measured['search_recurring']:.3f} ms); verify time affine in result "
        f"count {verdict(affine_ok)} (r2 {measured['verify_fit_r_squared']:.4f} >= 0.9) "
        "(absolute times reported beside references, not gated)",
    )


@pytest.mark.skipif(
    not os.environ.get("DSSE_LONG_RUN"),
    reason="opt-in: set DSSE_LONG_RUN=1 for the 1,051,200-file state-size run",
)
def test_criterion_9_long_run_state_sizes():
    sizes = long_state_run(progress_every=100_000)
    ref_tbl = REFERENCES["tbl_c_bytes_at_1m"]
    ref_bf = REFERENCES["bf_bytes"]
    tbl_ratio = sizes.tbl_bytes / ref_tbl
    bf_ratio = sizes.bf_bytes / ref_bf
    record(
        "criterion 9 (state sizes at 1,051,200 files)",
        1 / 3 <= tbl_ratio <= 3 and 1 / 3 <= bf_ratio <= 3,
        f"tbl={sizes.tbl_bytes}B (ratio {tbl_ratio:.2f} vs 1.3MB), "
        f"bf={sizes.bf_bytes}B (ratio {bf_ratio:.2f} vs 5MB), "
        f"{sizes.n_keywords} keywords, {sizes.seconds:.0f}s",
    )
