"""The forward-privacy audit (harness.audit) over recorded episodes: an
honest run passes it in both modes, and a transcript in which a token or a
delta comes before the upload it names, or a REFRESH holds a later upload's
label, fails it."""

import pytest

from dsse.crypto import LAMBDA
from dsse.errors import DsseError, NotFoundError, ProtocolError
from dsse.harness.audit import RecordingTransport, audit
from dsse.harness.phi import synthesize_stream
from dsse.harness.scenario import SimulatedSystem, default_bloom_params
from dsse.owner import DataOwner
from dsse.protocol import BASIC, FULL, AddPayload, RefreshPayload, SearchTokenEnvelope
from dsse.server import CloudServer
from dsse.wire import Client, GetBloom, Reply, Rotate, decode, encode


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


def test_a_refresh_holding_a_later_label_fails_the_audit():
    frames, group_key, _ = recorded_episode(FULL, n_files=80)
    msgs = [decode(request) for request, _ in frames]
    at = next(i for i, msg in enumerate(msgs) if isinstance(msg, RefreshPayload))
    later = next(i for i in range(at + 1, len(msgs)) if isinstance(msgs[i], AddPayload))
    tau = msgs[later].entries[0][0]
    refresh = msgs[at]
    elements = [refresh.elements[i : i + LAMBDA] for i in range(0, len(refresh.elements), LAMBDA)]
    # the label the next upload brings, in its sorted place: a server
    # holding it could match that upload against the filter on arrival
    planted = RefreshPayload(b"".join(sorted([*elements, tau])), refresh.sigma, refresh.t)
    forged = frames[:at] + [(encode(planted), frames[at][1])] + frames[at + 1 :]
    assert audit(frames, group_key) == []
    assert audit(forged, group_key) == [
        f"frame {at}: a refresh element is a label added at frame {later}"
    ]
    # and one whose elements are out of order, which would link their
    # places to the keyword table's first-upload order
    unsorted = RefreshPayload(b"".join(elements[::-1]), refresh.sigma, refresh.t)
    forged = frames[:at] + [(encode(unsorted), frames[at][1])] + frames[at + 1 :]
    assert audit(forged, group_key) == [f"frame {at}: refresh elements not strictly ascending"]


def test_a_byte_identical_replayed_add_brings_no_finding():
    # an owner retrying after a lost ack sends the same frame again
    frames, group_key, _ = recorded_episode(FULL, n_files=80)
    msgs = [decode(request) for request, _ in frames]
    first = next(i for i, msg in enumerate(msgs) if isinstance(msg, AddPayload))
    mid = len(frames) // 2
    replayed = frames[:mid] + [frames[first]] + frames[mid:]
    assert audit(replayed, group_key) == []


def test_a_label_brought_again_by_another_add_is_a_finding():
    frames, group_key, _ = recorded_episode(FULL, n_files=80)
    msgs = [decode(request) for request, _ in frames]
    adds = [i for i, msg in enumerate(msgs) if isinstance(msg, AddPayload)]
    first, last = adds[0], adds[-1]
    tau = msgs[first].entries[0][0]
    payload = msgs[last]
    entries = [(tau, payload.entries[0][1]), *payload.entries[1:]]
    again = AddPayload(payload.file_id, payload.ciphertext, entries, payload.sigma, payload.t)
    forged = frames[:last] + [(encode(again), frames[last][1])] + frames[last + 1 :]
    findings = audit(forged, group_key)
    assert findings[0] == f"frame {last}: label first added at frame {first} added again"
    # the label now counts as the later upload's, so tokens before it reach it
    assert all(f.endswith(f"reaches a label added at frame {last}") for f in findings[1:])


def test_a_token_that_ends_at_a_missing_label_or_is_refused_brings_no_finding():
    owner = DataOwner.generate(BASIC)
    client = Client.in_process(CloudServer(BASIC))
    recorder = client.transport = RecordingTransport(client.transport)
    for i in range(3):
        client.add(owner.add_file(f"f{i}".encode(), ["w"], 1_700_000_000 + i * 600))
    client.search(owner.gen_token("w"))
    with pytest.raises(NotFoundError):  # a key no upload's chain starts from
        client.search(SearchTokenEnvelope(0, b"\x0b" * LAMBDA))
    with pytest.raises(ProtocolError):  # a key the server refuses
        client.search(SearchTokenEnvelope(0, b"\x0b" * (LAMBDA - 1)))
    frames = recorder.frames
    assert len(frames) == 6 and audit(frames, None) == []
    # the middle upload dropped: the walk from the head ends at its label
    assert audit(frames[:1] + frames[2:], None) == []
    # the same gap with the search moved before the last upload: what the
    # walk reached before the gap is still a finding
    moved = frames[:1] + [frames[3], frames[2]] + frames[4:]
    assert audit(moved, None) == ["frame 1: the token reaches a label added at frame 2"]
