"""The forward-privacy audit (harness.audit) over recorded episodes: an
honest run passes it in both modes, and a transcript in which a token or a
delta comes before the upload it names fails it."""

import pytest

from dsse.errors import DsseError
from dsse.harness.audit import RecordingTransport, audit
from dsse.harness.phi import synthesize_stream
from dsse.harness.scenario import SimulatedSystem, default_bloom_params
from dsse.protocol import FULL, SearchTokenEnvelope
from dsse.wire import GetBloom, Reply, Rotate, decode


def recorded_episode(mode: str, n_files: int = 240, seed: int = 11):
    """Uploads with owner searches, delegated queries (full mode: filter
    deltas), a refresh and a rotation in between, all through one recorded
    client. A refused step is counted and the episode goes on, so that
    the audit reads whatever the server was sent."""
    system = SimulatedSystem(mode, default_bloom_params(n_files))
    recorder = RecordingTransport(system.client.transport)
    system.client.transport = recorder
    group_key = system.owner.keys.r if mode == FULL else None
    refused = 0
    full = mode == FULL
    try:
        for i, phi in enumerate(synthesize_stream(seed, n_files)):
            keyword = f"pulse_oxygen:{phi.readings['pulse_oxygen']}"
            steps = [lambda: system.add_phi(phi)]
            if i % 8 == 7:
                steps.append(lambda: system.owner_query(keyword))
            if full and i % 8 == 3:
                steps.append(lambda: system.user_query(system.users[0], keyword))
            if full and i == n_files // 3:
                steps.append(
                    lambda: system.client.refresh(system.owner.refresh_bloom(system.now))
                )
            if full and i == n_files // 2:
                steps.append(lambda: system.rotate_revoking(None))
            for step in steps:
                try:
                    step()
                except DsseError:
                    refused += 1
    finally:
        system.close()
    return recorder.frames, group_key, refused


def kinds(frames):
    """Searches sent, and GET_BLOOM replies that were deltas with taus."""
    searches = deltas = 0
    for request, reply in frames:
        msg, answer = decode(request), decode(reply)
        searches += isinstance(msg, SearchTokenEnvelope)
        deltas += (
            isinstance(msg, GetBloom)
            and isinstance(answer, Reply)
            and isinstance(answer.value, tuple)
            and isinstance(answer.value[0], list)
            and bool(answer.value[0])
        )
    return searches, deltas


@pytest.mark.parametrize("mode", ["full", "basic"])
def test_an_honest_episode_passes_the_audit(mode):
    frames, group_key, refused = recorded_episode(mode)
    assert audit(frames, group_key) == []
    assert refused == 0
    searches, deltas = kinds(frames)
    assert searches >= 30
    assert deltas >= 10 if mode == FULL else deltas == 0


def test_a_token_moved_before_the_uploads_it_reaches_fails_the_audit():
    frames, group_key, _ = recorded_episode(FULL, n_files=80)
    msgs = [decode(request) for request, _ in frames]
    rotated = next(i for i, msg in enumerate(msgs) if isinstance(msg, Rotate))
    last_search = max(
        i for i, msg in enumerate(msgs[:rotated]) if isinstance(msg, SearchTokenEnvelope)
    )
    # the token, under the first group key, as if the server had held it
    # before the second upload
    moved = frames[:1] + [frames[last_search]] + frames[1:last_search] + frames[last_search + 1 :]
    findings = audit(moved, group_key)
    assert findings and all("reaches a label added at frame" in f for f in findings)


def test_a_delta_moved_before_the_uploads_it_names_fails_the_audit():
    frames, group_key, _ = recorded_episode(FULL, n_files=80)
    delta = next(
        i for i, (request, reply) in enumerate(frames)
        if isinstance(decode(request), GetBloom) and decode(reply).value
        and isinstance(decode(reply).value[0], list) and decode(reply).value[0]
    )
    moved = [frames[delta]] + frames[:delta] + frames[delta + 1 :]
    assert audit(moved, group_key) == [
        "frame 0: delta tau not added before it"
    ] * len(decode(frames[delta][1]).value[0])
