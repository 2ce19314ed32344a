"""Stateful model test of the three roles: random interleavings of uploads,
replayed uploads, refreshes, group-key rotations that revoke a user, user
queries, owner queries at the current and older counters, every adversary
behaviour, filter headers from outside, clock jumps and snapshot round
trips, checked after every step against the plaintext oracle. One owner,
one AdversarialServer, two users on one in-process client: the users share
the client but each holds the filter it verified.
"""

import struct
import zlib

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from dsse.bloom import BLOCK_BITS, BloomParams
from dsse.crypto import chain_label
from dsse.errors import (
    DsseError,
    FormatError,
    NotFoundError,
    StaleEpochError,
    StaleFilterError,
    TamperedFilterError,
)
from dsse.harness.oracle import PlaintextOracle
from dsse.harness.scenario import ADVERSARY_BEHAVIORS, AdversarialServer
from dsse.owner import DataOwner
from dsse.protocol import FRESHNESS_WINDOW, FULL, RefreshPayload, verify_result
from dsse.server import MergedEntry
from dsse.user import AuthorizedUser
from dsse.wire import Client

NOW = 1_700_000_000
PARAMS = BloomParams(2.0**-30, 3_000)  # two 8 KB blocks: a delta may touch one
KEYWORDS = ("hr:60", "hr:61", "spo2:97", "spo2:98", "temp:37")
# (m, k) of a filter header that breaks the rules, from the served filter's
BAD_HEADERS = {
    "k above 64": lambda m, k: (m, 65),
    "m not whole blocks": lambda m, k: (m + 8, k),
    "m below one block": lambda m, k: (BLOCK_BITS - 8, k),
}


def held_state(user: AuthorizedUser):
    tags = user._tags
    return tags and (tags.bf.serialize(), tags._agg, user._version)


class ThreeRoles(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.owner = DataOwner.generate(FULL, PARAMS)
        self._serve(AdversarialServer(FULL, PARAMS, group_key=self.owner.keys.r))
        self.users = [AuthorizedUser.from_owner(self.owner) for _ in range(2)]
        self.oracle = PlaintextOracle()
        self.now = NOW
        self.uploaded_at: dict[bytes, int] = {}
        self.payloads = []
        self.armed = False
        self.revoked: int | None = None  # the user left out of every rotation

    def _serve(self, server: AdversarialServer) -> None:
        self.server = server
        self.client = Client.in_process(server)

    @initialize()
    def both_users_hold_a_filter(self):
        self.upload(set(KEYWORDS))
        for i in range(len(self.users)):
            self.user_query(i, KEYWORDS[0])

    # -- owner actions --------------------------------------------------

    @rule(keywords=st.sets(st.sampled_from(KEYWORDS), min_size=1))
    def upload(self, keywords):
        self.now += 600
        payload = self.owner.add_file(f"f{self.now}".encode(), sorted(keywords), self.now)
        self.client.add(payload)
        self.oracle.add(payload.file_id, keywords)
        self.uploaded_at[payload.file_id] = self.now
        self.payloads.append(payload)

    @rule(data=st.data())
    def replay_an_upload(self, data):
        """An owner whose ack was lost sends a stored payload again: the
        server acks it and changes nothing."""
        payload = data.draw(st.sampled_from(self.payloads))
        before = self.server.snapshot(), dict(self.server._versions)
        self.client.add(payload)
        assert (self.server.snapshot(), self.server._versions) == before

    @rule()
    def refresh(self):
        self.now += 600
        self.client.refresh(self.owner.refresh_bloom(self.now))

    @rule(i=st.sampled_from((0, 1)))
    def rotate_and_revoke(self, i):
        """The owner rotates the group key and hands it to the server and to
        every user but one: the one revoked before, if any, so the other
        stays authorized."""
        if self.revoked is None:
            self.revoked = i
        r, epoch = self.owner.rotate_group_key()
        self.client.rotate(r, epoch)
        for j, user in enumerate(self.users):
            if j != self.revoked:
                user.update_group_key(r, epoch)

    @rule()
    def advance_past_the_freshness_window(self):
        self.now += FRESHNESS_WINDOW + 1

    # -- the adversary --------------------------------------------------

    @rule(behavior=st.sampled_from(ADVERSARY_BEHAVIORS))
    def arm_or_disarm(self, behavior):
        self.server.set_adversary(behavior)
        self.armed = behavior != "honest"

    @rule(header=st.sampled_from(tuple(BAD_HEADERS)), i=st.sampled_from((0, 1)))
    def hand_over_a_bad_filter_header(self, header, i):
        """A REFRESH whose packed filter header breaks the rules is refused
        before its body is read, and so is a GET_BLOOM answer with that
        header handed to a user; neither changes what its receiver holds."""
        server = self.server
        m, k = BAD_HEADERS[header](server.bf.m, server.bf.k)
        raw = struct.pack(">II", m, k) + bytes(m // 8)  # a body of the header's length
        deflater = zlib.compressobj(wbits=-15)
        packed = deflater.compress(raw) + deflater.flush()
        before = server.snapshot(), dict(server._versions)
        with pytest.raises(FormatError):
            self.client.refresh(RefreshPayload(packed, server.sigma, server.t))
        assert (server.snapshot(), server._versions) == before
        user = self.users[i]
        held = held_state(user)
        with pytest.raises(FormatError):
            user.gen_token((raw, server.sigma, server.t), KEYWORDS[0], self.now)
        assert held_state(user) == held and user.token_filter is None

    # -- queries ----------------------------------------------------------

    @rule(i=st.sampled_from((0, 1)), keyword=st.sampled_from(KEYWORDS))
    def user_query(self, i, keyword):
        user = self.users[i]
        if i == self.revoked:
            # no answer; past the filter checks, the server refuses the token
            with pytest.raises(DsseError) as refused:
                user.query(self.client, keyword, self.now)
            if not isinstance(refused.value, (TamperedFilterError, StaleFilterError)):
                assert isinstance(refused.value, StaleEpochError), repr(refused.value)
            return
        expected = self.oracle.ids_newest_first(keyword)
        fresh = self.now - self.server.t <= FRESHNESS_WINDOW
        held = held_state(user)
        try:
            ids, cts, gamma, cnt = user.query(self.client, keyword, self.now)
        except TamperedFilterError:
            # a refused update leaves the held filter, its tags and version
            assert self.armed and held_state(user) == held
            return
        except NotFoundError:
            assert self.armed or not expected
            return
        except StaleFilterError:
            assert self.armed or not fresh
            return
        except DsseError as exc:
            assert self.armed, repr(exc)
            return
        verified = user.verify(keyword, cnt, ids, cts, gamma, self.now).ok
        if self.armed:
            # a stale filter still inside the freshness window is accepted by
            # design: what verifies is the answer as of that filter's time
            t = user.token_filter[1]
            assert not verified or ids == [i for i in expected if self.uploaded_at[i] <= t]
            return
        assert fresh and verified and ids == expected
        assert user._tags.bf.serialize() == self.server.bf.serialize()

    @rule(keyword=st.sampled_from(KEYWORDS))
    def owner_query(self, keyword):
        expected = self.oracle.ids_newest_first(keyword)
        if not expected:
            return
        ids, cts, gamma = self.client.search(self.owner.gen_token(keyword))
        verified = self.owner.verify(keyword, ids, cts, gamma, self.now).ok
        if self.armed:  # a cheating answer must fail verification
            assert not verified or ids == expected
            return
        assert ids == expected
        assert verified

    @rule(behavior=st.sampled_from(ADVERSARY_BEHAVIORS), keyword=st.sampled_from(KEYWORDS))
    def owner_query_from_a_newly_armed_server(self, behavior, keyword):
        """A behaviour armed right before a search gets to bite: armed at
        random, most are disarmed or re-armed before any search reaches
        the server."""
        self.arm_or_disarm(behavior)
        self.owner_query(keyword)

    @rule(keyword=st.sampled_from(KEYWORDS), data=st.data())
    def owner_query_at_an_older_counter(self, keyword, data):
        """A search at any counter the keyword has had answers with the
        files it had then, and verifies at that counter."""
        c = data.draw(st.integers(1, self.owner.tbl[keyword].cnt))
        ids, cts, gamma = self.client.search(self.owner.token_for_counter(keyword, c))
        expected = self.oracle.ids_newest_first(keyword)[-c:]
        verified = verify_result(self.owner.keys.k_mac, keyword, c, ids, cts, gamma).ok
        if self.armed:
            assert not verified or ids == expected
            return
        assert ids == expected
        assert verified

    @invariant()
    def merged_entries_are_a_prefix_of_one_list(self):
        """A keyword's merged entries are its counters 1..L, each answering
        with its own counter's prefix of one shared list of L ids."""
        k_prf = self.owner.keys.k_prf
        for keyword, rec in self.owner.tbl.items():
            labels = [chain_label(k_prf, keyword, c) for c in range(1, rec.cnt + 1)]
            entries = [self.server.tbl[tau] for tau in labels]
            merged = [e for e in entries if isinstance(e, MergedEntry)]
            assert all(isinstance(e, MergedEntry) for e in entries[: len(merged)])
            assert [e.n for e in merged] == list(range(1, len(merged) + 1))
            assert all(e.chain is merged[0].chain for e in merged)
            assert not merged or len(merged[0].chain) == len(merged)

    # -- persistence ------------------------------------------------------

    @rule()
    def snapshot_and_restore(self):
        """Restored roles replace the live ones; a restored server serves
        honestly and logs only its current version, and a restored user
        holds no filter."""
        owner_blob, server_blob = self.owner.snapshot(), self.server.snapshot()
        self.owner = DataOwner.restore(owner_blob)
        self._serve(AdversarialServer.restore(server_blob))
        user_blobs = [user.snapshot() for user in self.users]
        self.users = [AuthorizedUser.restore(blob) for blob in user_blobs]
        assert self.owner.snapshot() == owner_blob
        assert self.server.snapshot() == server_blob
        assert [user.snapshot() for user in self.users] == user_blobs
        self.armed = False


ThreeRoles.TestCase.settings = settings(
    max_examples=100,
    stateful_step_count=25,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
test_three_roles = ThreeRoles.TestCase
