"""Catalogue of the benchmark's workloads and metrics.

BENCHMARK.json at the repository root lists the subset that gates a change:
the end-to-end metrics that every workload reports and that stay within
their bounds from run to run, and every per-layer metric. This module also
holds the other end-to-end metrics, the benchmark's own bound for each,
and which end-to-end metric each per-layer metric should move.
test_perfbench.py keeps the two in agreement.
"""

from __future__ import annotations

# One line each, as in BENCHMARK.json (at most 200 characters).
WORKLOADS = {
    "gateway_ingest": (
        "Write path at a year-sized filter (4,265,336 bytes): per-upload filter "
        "serialize+MAC and Bloom add dominate, a refresh every 200 uploads; the "
        "user path does no work."
    ),
    "hsp_query": (
        "Read path over TCP: delegated user queries fetch and check the filter "
        "twice each; owner query every 5th step, upload every 10th. Keys come "
        "from secrets, so FP-driven counts vary."
    ),
    "basic_recurring": (
        "Basic mode, no filter or proofs: each upload is followed by a search of "
        "its pulse_oxygen keyword, so chains are long, every search merges and "
        "merged ids grow quadratically."
    ),
}


# name: (unit, better, bound, meaning). The bound is the share of a median
# by which two sets of runs of the same code may disagree; failed_op_share
# has none because any failure fails the run. Timings get the largest bound
# allowed, and only setup_s gates: on a shared 2-vCPU virtual machine whole
# 20-second runs shift by 10-25% with host load, so the spread of ten runs
# of ops_per_s reached 0.23 of its median, too close to any bound allowed.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25, "median time to build one episode's state, its ingest over the wire included"),
    "upload_p50_ms": ("ms", "lower", 0.25, "add_file + Client.add"),
    "upload_p99_ms": ("ms", "lower", 0.25, "add_file + Client.add"),
    "user_query_p50_ms": ("ms", "lower", 0.25, "get_bloom, gen_token, search, verify, false-positive retry included"),
    "user_query_p99_ms": ("ms", "lower", 0.25, "get_bloom, gen_token, search, verify, false-positive retry included"),
    "owner_query_p50_ms": ("ms", "lower", 0.25, "gen_token, search, plus verify in full mode"),
    "owner_query_p99_ms": ("ms", "lower", 0.25, "gen_token, search, plus verify in full mode"),
    "refresh_p50_ms": ("ms", "lower", 0.25, "refresh_bloom + Client.refresh"),
    "ops_per_s": ("1/s", "higher", 0.25, "timed operations per second of time spent in them"),
    "wire_bytes_per_op": ("B", "lower", 0.05, "request + response bytes per timed operation"),
    "server_state_bytes": ("B", "lower", 0.05, "len(CloudServer.snapshot()) at the end of an episode"),
    "peak_rss_mb": ("MB", "lower", 0.10, "peak resident memory of the workload's process"),
    "failed_op_share": ("ratio", "lower", None, "operations that raised, failed verification or mismatched the oracle, over attempts"),
}

# A percentile is reported only with at least this many samples of its
# operation, so that ten or more samples lie beyond p99.
P99_MIN_SAMPLES = 1000

_UPLOAD = "upload_p50_ms on gateway_ingest"
_USER = "user_query_p50_ms on hsp_query"
_QUERIES = "*_query_p50_ms on hsp_query and basic_recurring"
_SERIALIZE = "upload_p50_ms on gateway_ingest; user_query_p50_ms on hsp_query"

# name: (unit, moves). Self times are ms per timed operation; counts and
# bytes are per timed operation unless the name says otherwise.
PER_LAYER = {
    "crypto.prf.calls": ("count", _UPLOAD + "; owner_query_p50_ms on basic_recurring"),
    "crypto.prf.self_ms": ("ms", _UPLOAD + "; owner_query_p50_ms on basic_recurring"),
    "crypto.mac.calls": ("count", _UPLOAD + "; owner_query_p50_ms on basic_recurring"),
    "crypto.mac.bytes": ("B", _UPLOAD + "; owner_query_p50_ms on basic_recurring"),
    "crypto.mac.self_ms": ("ms", _UPLOAD + "; owner_query_p50_ms on basic_recurring"),
    "crypto.aead.self_ms": ("ms", _UPLOAD + "; owner_query_p50_ms on basic_recurring"),
    "crypto.xor.self_ms": ("ms", _UPLOAD + "; owner_query_p50_ms on basic_recurring"),
    "bloom.add.calls": ("count", _UPLOAD + "; setup_s on hsp_query"),
    "bloom.add.self_ms": ("ms", _UPLOAD + "; setup_s on hsp_query"),
    "bloom.verify.calls": ("count", _USER),
    "bloom.verify.self_ms": ("ms", _USER),
    "bloom.serialize.calls": ("count", _SERIALIZE),
    "bloom.serialize.bytes": ("B", _SERIALIZE),
    "bloom.serialize.self_ms": ("ms", _SERIALIZE),
    "bloom.deserialize.self_ms": ("ms", _SERIALIZE),
    "bloom.embed.self_ms": ("ms", "refresh_p50_ms on gateway_ingest"),
    "bloom.extract.self_ms": ("ms", _USER),
    "protocol.filter_mac.calls": ("count", _SERIALIZE),
    "protocol.filter_mac.self_ms": ("ms", _SERIALIZE),
    "protocol.verify_result.self_ms": ("ms", "user_query_p50_ms and owner_query_p50_ms on hsp_query"),
    "protocol.result_mac.calls": ("count", "user_query_p50_ms and owner_query_p50_ms on hsp_query"),
    "owner.add_file.self_ms": ("ms", "upload_* on every workload"),
    "owner.gen_token.self_ms": ("ms", "owner_query_* on hsp_query and basic_recurring"),
    "owner.verify.self_ms": ("ms", "owner_query_* on hsp_query"),
    "owner.refresh_bloom.self_ms": ("ms", "refresh_p50_ms on gateway_ingest"),
    "server.add.self_ms": ("ms", "upload_* on every workload"),
    "server.search.self_ms": ("ms", _QUERIES),
    "server.search.lookups": ("count", _QUERIES),
    "server.search.lookups_per_result": ("ratio", _QUERIES),
    "server.get_bloom.self_ms": ("ms", _USER),
    "server.ciphertexts_for.self_ms": ("ms", _USER),
    "server.merged_ids_stored": ("count", "server_state_bytes and peak_rss_mb on basic_recurring"),
    "user.gen_token.self_ms": ("ms", _USER),
    "user.guess_counter.self_ms": ("ms", _USER),
    "user.probes": ("count", _USER),
    "user.digit_probes": ("count", _USER),
    "user.verify.self_ms": ("ms", _USER),
    "user.retry_share": ("ratio", "user_query_p99_ms on hsp_query"),
    "wire.encode.self_ms": ("ms", _USER),
    "wire.decode.self_ms": ("ms", _USER),
    "wire.transport.self_ms": ("ms", _USER),
    "wire.bytes.add_req": ("B", "wire_bytes_per_op on every workload"),
    "wire.bytes.get_bloom_resp": ("B", "wire_bytes_per_op on hsp_query"),
    "wire.bytes.search_resp": ("B", "wire_bytes_per_op on hsp_query and basic_recurring"),
}

# How a per-layer metric is read from the spans of timed operations:
# (statistic, span names). "calls" counts spans, "self" sums self time,
# "value" sums the number each span recorded (bytes for these spans).
# Metrics absent here are computed by the workload code.
SPAN_SOURCES = {
    "crypto.prf.calls": ("calls", ("crypto.prf1", "crypto.prf2", "crypto.prf3")),
    "crypto.prf.self_ms": ("self", (
        "crypto.prf1", "crypto.prf2", "crypto.prf3",
        "crypto.chain_label", "crypto.derived_key", "crypto.digit_element",
    )),
    "crypto.mac.calls": ("calls", ("crypto.mac_generate",)),
    "crypto.mac.bytes": ("value", ("crypto.mac_generate",)),
    "crypto.mac.self_ms": ("self", ("crypto.mac_generate", "crypto.aggregate_mac")),
    "crypto.aead.self_ms": ("self", ("crypto.se_encrypt", "crypto.se_decrypt")),
    "crypto.xor.self_ms": ("self", ("crypto.xor_bytes",)),
    "bloom.add.calls": ("calls", ("bloom.add",)),
    "bloom.add.self_ms": ("self", ("bloom.add",)),
    "bloom.verify.calls": ("calls", ("bloom.verify",)),
    "bloom.verify.self_ms": ("self", ("bloom.verify",)),
    "bloom.serialize.calls": ("calls", ("bloom.serialize",)),
    "bloom.serialize.bytes": ("value", ("bloom.serialize",)),
    "bloom.serialize.self_ms": ("self", ("bloom.serialize",)),
    "bloom.deserialize.self_ms": ("self", ("bloom.deserialize",)),
    "bloom.embed.self_ms": ("self", ("bloom.embed",)),
    "bloom.extract.self_ms": ("self", ("bloom.extract",)),
    "protocol.filter_mac.calls": ("calls", ("protocol.filter_mac",)),
    "protocol.filter_mac.self_ms": ("self", ("protocol.filter_mac",)),
    "protocol.verify_result.self_ms": ("self", ("protocol.verify_result",)),
    "protocol.result_mac.calls": ("calls", ("protocol.result_mac",)),
    "owner.add_file.self_ms": ("self", ("owner.add_file",)),
    "owner.gen_token.self_ms": ("self", ("owner.gen_token",)),
    "owner.verify.self_ms": ("self", ("owner.verify",)),
    "owner.refresh_bloom.self_ms": ("self", ("owner.refresh_bloom",)),
    "server.add.self_ms": ("self", ("server.add",)),
    "server.search.self_ms": ("self", ("server.search",)),
    "server.get_bloom.self_ms": ("self", ("server.get_bloom",)),
    "server.ciphertexts_for.self_ms": ("self", ("server.ciphertexts_for",)),
    "user.gen_token.self_ms": ("self", ("user.gen_token",)),
    "user.guess_counter.self_ms": ("self", ("user.guess_counter",)),
    "user.verify.self_ms": ("self", ("user.verify",)),
    "wire.encode.self_ms": ("self", ("wire.encode",)),
    "wire.decode.self_ms": ("self", ("wire.decode",)),
    "wire.transport.self_ms": ("self", ("wire.transport",)),
}


def layer_from_spans(totals: dict[str, list[float]], ops: int) -> dict[str, float]:
    """Per-op values of the span-derived metrics.

    totals maps a span name to [calls, self seconds, value sum] over the
    spans of timed operations.
    """
    out = {}
    for metric, (stat, names) in SPAN_SOURCES.items():
        rows = [totals[n] for n in names if n in totals]
        if stat == "calls":
            total = sum(r[0] for r in rows)
        elif stat == "self":
            total = sum(r[1] for r in rows) * 1e3
        else:
            total = sum(r[2] for r in rows)
        out[metric] = total / ops
    return out
