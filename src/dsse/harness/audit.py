"""Forward-privacy audit from the server's view.

RecordingTransport sits between a Client and its transport and keeps every
request frame the server decodes, with the reply it sent, in order. audit()
reads only that transcript and the group key the server started with (each
ROTATE in the transcript hands it the next one), which is what the server
itself holds. It checks what forward privacy promises (Stefanov,
Papamanthou and Shi, NDSS 2014; Bost, CCS 2016): a search token reaches
nothing uploaded after it, so a later upload cannot be linked to an
earlier search.

- It rebuilds the table from the ADD frames, each label with the frame
  that brought it. A byte-identical replay of an earlier frame brings
  nothing new; any other label that comes again is a finding, keeps the
  entry it came with first (as the server's table does) and counts as
  the later frame's.
- It walks each SEARCH token over the final table with the server's own
  walk (CloudServer.walk), without merges: every label the walk reaches
  must come from an ADD sent before the token.
- Every tau in a GET_BLOOM delta must come from an ADD sent before it.
- No element of a REFRESH may be a label that a later ADD brings: the
  server could match that upload against the filter when it arrives. And
  the elements must be strictly ascending, so that their order says
  nothing of the keyword table they came from.
"""

from __future__ import annotations

from ..errors import DsseError
from ..crypto import LAMBDA
from ..protocol import BASIC, FULL, AddPayload, RefreshPayload, SearchTokenEnvelope
from ..server import CloudServer
from ..wire import CODE_OK, GetBloom, Reply, Rotate, decode


class RecordingTransport:
    """A transport that passes each request on and records it with its
    reply: (request frame, reply frame), in the order they were sent."""

    def __init__(self, inner):
        self.inner = inner
        self.frames: list[tuple[bytes, bytes]] = []

    def request(self, data: bytes) -> bytes:
        reply = self.inner.request(data)
        self.frames.append((data, reply))
        return reply

    def close(self) -> None:
        self.inner.close()


def audit(frames: list[tuple[bytes, bytes]], group_key: bytes | None) -> list[str]:
    """What the transcript shows the server can link: each finding names
    the frame it was seen at. None means forward privacy held. group_key
    is the one the server started with at epoch 1, None in basic mode."""
    full = group_key is not None
    server = CloudServer(FULL, group_key=group_key) if full else CloudServer(BASIC)
    added: dict[bytes, int] = {}  # label -> the frame whose ADD brought it
    seen: set[bytes] = set()  # ADD frames already read
    searches: list[tuple[int, SearchTokenEnvelope, bytes | None, int]] = []
    refreshed: list[tuple[int, list[bytes]]] = []  # frame, its elements
    findings: list[str] = []
    for at, (request, reply) in enumerate(frames):
        msg, answer = decode(request), decode(reply)
        ok = isinstance(answer, Reply) and answer.code == CODE_OK
        if isinstance(msg, AddPayload):
            if request in seen:
                continue
            seen.add(request)
            server.places.append(msg.file_id)
            for tau, mu in msg.entries:
                if tau in added:
                    findings.append(f"frame {at}: label first added at frame {added[tau]} added again")
                added[tau] = at
                if len(mu) == server.tbl.width:  # as the server's mode reads it
                    server.tbl.extend([(tau, mu)], len(server.places) - 1)
        elif isinstance(msg, SearchTokenEnvelope):
            searches.append((at, msg, server.r, server.epoch))
        elif isinstance(msg, RefreshPayload):
            elements = [msg.elements[i : i + LAMBDA] for i in range(0, len(msg.elements), LAMBDA)]
            if any(a >= b for a, b in zip(elements, elements[1:])):
                findings.append(f"frame {at}: refresh elements not strictly ascending")
            refreshed.append((at, elements))
        elif isinstance(msg, Rotate) and ok:
            server.r, server.epoch = msg.group_key, msg.epoch
        elif isinstance(msg, GetBloom) and ok and isinstance(answer.value[0], list):
            for tau in answer.value[0]:  # a delta
                if added.get(tau, at) >= at:
                    findings.append(f"frame {at}: delta tau not added before it")
    for at, elements in refreshed:
        for element in elements:
            if added.get(element, at) > at:
                findings.append(
                    f"frame {at}: a refresh element is a label added at frame {added[element]}"
                )
    for at, envelope, r, epoch in searches:
        server.r, server.epoch = r, epoch
        try:
            for tau, *_ in server.walk(envelope):
                if added[tau] > at:
                    findings.append(
                        f"frame {at}: the token reaches a label added at frame {added[tau]}"
                    )
        except DsseError:
            pass  # a refused token, or the end of what it reaches (a gap, a loop)
    return findings
