"""Command-line front end for the three-party simulator.

State lives in a directory (default ./dsse-state): owner.bin, server.bin,
user_<name>.bin, meta.json, plus last_search.json transcripts. Commands
default to driving an in-process server restored from server.bin; pass
--connect HOST:PORT to talk to a remote `dsse serve --listen` instead.
"""

from __future__ import annotations

import argparse
import base64
import json
import os
import signal
import sys
import threading
from contextlib import contextmanager

from .bloom import BloomParams
from .encoding import write_atomic
from .errors import DsseError, TransportError
from .harness.bench import REFERENCES, long_state_run, run_bench
from .harness.phi import synthesize_stream
from .harness.scenario import ADVERSARY_BEHAVIORS, ScenarioConfig, run_scenario
from .owner import DataOwner
from .protocol import FULL, verify_result
from .server import CloudServer
from .user import AuthorizedUser
from .wire import Client, WireServer


def _paths(state_dir: str) -> dict[str, str]:
    return {
        "owner": os.path.join(state_dir, "owner.bin"),
        "server": os.path.join(state_dir, "server.bin"),
        "meta": os.path.join(state_dir, "meta.json"),
        "search": os.path.join(state_dir, "last_search.json"),
    }


def _user_path(state_dir: str, name: str) -> str:
    return os.path.join(state_dir, f"user_{name}.bin")


def _load_meta(state_dir: str) -> dict:
    with open(_paths(state_dir)["meta"]) as f:
        return json.load(f)


def _save_meta(state_dir: str, meta: dict) -> None:
    write_atomic(_paths(state_dir)["meta"], json.dumps(meta, indent=2).encode())


def _host_port(value: str) -> tuple[str, int]:
    """argparse type of --connect and --listen: HOST:PORT, split at the last
    colon, with a port from 0 to 65535 (0 listens on any free port)."""
    host, colon, port = value.rpartition(":")
    if not colon or not (port.isascii() and port.isdigit()) or int(port) > 65535:
        raise argparse.ArgumentTypeError(f"expected HOST:PORT, got {value!r}")
    return host, int(port)


class _ServerHandle:
    """Local (load/save server.bin) or remote (socket) server access."""

    def __init__(self, state_dir: str, connect: tuple[str, int] | None):
        self.state_dir = state_dir
        self.remote = connect is not None
        if self.remote:
            self.client = Client.connect(*connect)
            self.server = None
        else:
            self.server = CloudServer.load(_paths(state_dir)["server"])
            self.client = Client.in_process(self.server)

    def close(self) -> None:
        if self.remote:
            self.client.close()
        else:
            self.server.save(_paths(self.state_dir)["server"])


@contextmanager
def _owner_request(state_dir: str, owner: DataOwner, handle: _ServerHandle):
    """Send a request that changed the owner, then save the owner and close
    the handle. An error reply means the server kept its state, so the
    owner's is not saved either; after a TransportError the outcome is
    unknown, and the owner is saved as if the request landed."""
    refused = False
    try:
        yield
    except DsseError as exc:
        refused = not isinstance(exc, TransportError)
        raise
    finally:
        if not refused:
            owner.save(_paths(state_dir)["owner"])
        handle.close()


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_gen_keys(args: argparse.Namespace) -> int:
    os.makedirs(args.state_dir, exist_ok=True)
    params = BloomParams(args.fp, args.capacity)
    owner = DataOwner.generate(args.mode, params)
    server = CloudServer(
        args.mode, params,
        group_key=owner.keys.r if args.mode == FULL else None,
    )
    paths = _paths(args.state_dir)
    owner.save(paths["owner"])
    server.save(paths["server"])
    users = [u for u in args.users.split(",") if u] if args.mode == FULL else []
    for name in users:
        AuthorizedUser.from_owner(owner).save(_user_path(args.state_dir, name))
    _save_meta(args.state_dir, {
        "users": users,
        "revoked": [],
        "last_t": 0,
        "files": 0,
    })
    print(f"initialized {args.mode} state in {args.state_dir} (users: {users or '-'})")
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    meta = _load_meta(args.state_dir)
    owner = DataOwner.load(_paths(args.state_dir)["owner"])
    handle = _ServerHandle(args.state_dir, args.connect)
    added = 0
    try:
        # continuing runs pick up after the last timestamp and skew the seed
        # so the value stream does not repeat
        if meta["last_t"]:
            stream = synthesize_stream(
                args.seed + meta["files"], args.n, args.period,
                meta["last_t"] + args.period,
            )
        else:
            stream = synthesize_stream(args.seed, args.n, args.period)
        for phi in stream:
            payload = owner.add_file(phi.to_bytes(), phi.keywords(), phi.timestamp)
            handle.client.add(payload)
            meta["last_t"] = phi.timestamp
            added += 1
    finally:
        owner.save(_paths(args.state_dir)["owner"])
        meta["files"] += added
        _save_meta(args.state_dir, meta)
        handle.close()
    print(f"ingested {added} files (total {meta['files']}), last_t={meta['last_t']}")
    return 0


def cmd_refresh(args: argparse.Namespace) -> int:
    meta = _load_meta(args.state_dir)
    owner = DataOwner.load(_paths(args.state_dir)["owner"])
    handle = _ServerHandle(args.state_dir, args.connect)
    now = meta["last_t"] + 1
    with _owner_request(args.state_dir, owner, handle):
        payload = owner.refresh_bloom(now)
        handle.client.refresh(payload)
    meta["last_t"] = now
    _save_meta(args.state_dir, meta)
    print(
        f"filter refreshed with digit embeddings for {len(owner.tbl)} keywords: "
        f"{payload.n} elements"
    )
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    meta = _load_meta(args.state_dir)
    now = meta["last_t"] + 60
    handle = _ServerHandle(args.state_dir, args.connect)
    try:
        if args.actor == "owner":
            owner = DataOwner.load(_paths(args.state_dir)["owner"])
            ids, cts, gamma = handle.client.search(owner.gen_token(args.keyword))
            guessed = owner.tbl[args.keyword].cnt
            probes = token_filter = name = None
        else:
            name = args.user or (meta["users"][0] if meta["users"] else None)
            if name is None:
                print("no users provisioned; re-run gen-keys with --users", file=sys.stderr)
                return 2
            user = AuthorizedUser.load(_user_path(args.state_dir, name))
            ids, cts, gamma, guessed = user.query(handle.client, args.keyword, now)
            probes = user.last_probe_stats.total
            sigma, t = user.token_filter
            token_filter = {"sigma": sigma.hex(), "t": t}
    finally:
        handle.close()

    transcript = {
        "keyword": args.keyword,
        "actor": args.actor,
        "user": name,  # the user the search ran as: verify loads exactly that one
        "guessed_cnt": guessed,
        "token_filter": token_filter,
        "now": now,
        "ids": [i.hex() for i in ids],
        "ciphertexts": [base64.b64encode(c).decode() for c in cts],
        "proof": None if gamma is None else {"gamma": gamma.hex()},
    }
    write_atomic(_paths(args.state_dir)["search"], json.dumps(transcript).encode())
    print(f"{len(ids)} results for {args.keyword!r} (counter {guessed}"
          + (f", {probes} filter probes" if probes is not None else "") + ")")
    for i in ids:
        print(f"  {i.hex()}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    with open(_paths(args.state_dir)["search"]) as f:
        tr = json.load(f)
    if tr["proof"] is None:
        print("no proof in basic mode; nothing to verify", file=sys.stderr)
        return 2
    gamma = bytes.fromhex(tr["proof"]["gamma"])
    ids = [bytes.fromhex(i) for i in tr["ids"]]
    cts = [base64.b64decode(c) for c in tr["ciphertexts"]]
    if tr["actor"] == "owner":  # at the counter searched, not the owner's current one
        owner = DataOwner.load(_paths(args.state_dir)["owner"])
        report = verify_result(
            owner.keys.k_mac, tr["keyword"], tr["guessed_cnt"], ids, cts, gamma
        )
    else:
        user = AuthorizedUser.load(_user_path(args.state_dir, tr["user"]))
        recorded = tr.get("token_filter")  # absent: no filter was accepted
        token_filter = recorded and (bytes.fromhex(recorded["sigma"]), recorded["t"])
        report = user.verify(
            tr["keyword"], tr["guessed_cnt"], ids, cts, gamma, tr["now"], token_filter
        )
    for check, value in (
        ("cardinality", report.cardinality_ok),
        ("aggregate-mac", report.gamma_ok),
        ("filter-mac", report.sigma_ok),
        ("freshness", report.fresh_ok),
    ):
        state = "skipped" if value is None else ("ok" if value else "FAILED")
        print(f"  {check:14} {state}")
    print("verification:", "PASS" if report.ok else "FAIL")
    return 0 if report.ok else 1


def cmd_rotate(args: argparse.Namespace) -> int:
    meta = _load_meta(args.state_dir)
    if args.revoke not in meta["users"]:
        print(f"unknown user {args.revoke!r}", file=sys.stderr)
        return 2
    owner = DataOwner.load(_paths(args.state_dir)["owner"])
    handle = _ServerHandle(args.state_dir, args.connect)
    with _owner_request(args.state_dir, owner, handle):
        r, epoch = owner.rotate_group_key()
        handle.client.rotate(r, epoch)
    meta["users"].remove(args.revoke)
    meta["revoked"].append(args.revoke)
    for name in meta["users"]:
        user = AuthorizedUser.load(_user_path(args.state_dir, name))
        user.update_group_key(r, epoch)
        user.save(_user_path(args.state_dir, name))
    _save_meta(args.state_dir, meta)
    print(f"revoked {args.revoke}; epoch now {epoch}, "
          f"{len(meta['users'])} users re-keyed")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    server = CloudServer.load(_paths(args.state_dir)["server"])
    wire_server = WireServer(server, *args.listen)
    wire_server.start()
    actual = wire_server.address
    print(f"serving {args.state_dir} on {actual[0]}:{actual[1]} (ctrl-c to stop)", flush=True)
    # SIGTERM stops the listener and saves, as ctrl-c does
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        pass
    finally:
        wire_server.stop()
        server.save(_paths(args.state_dir)["server"])
    return 0


def cmd_scenario(args: argparse.Namespace) -> int:
    config = ScenarioConfig(
        mode=args.mode,
        n_files=args.n,
        n_queries=args.queries,
        adversary=args.adversary,
        seed=args.seed,
        transport="socket" if args.socket else "inprocess",
    )
    report = run_scenario(config)
    print(report.table())
    if args.out:
        with open(args.out, "w") as f:
            f.write(report.to_jsonl())
        print(f"records written to {args.out}")
    return 1 if report.failed else 0


def cmd_bench(args: argparse.Namespace) -> int:
    if args.long:
        n = args.long_n
        print(f"long state run: {n} files (this takes a while)...")
        sizes = long_state_run(n, progress_every=max(n // 20, 1))
        ref_tbl = REFERENCES["tbl_c_bytes_at_1m"]
        ref_bf = REFERENCES["bf_bytes"]
        print(f"files={sizes.n_files} keywords={sizes.n_keywords} "
              f"elapsed={sizes.seconds:.0f}s")
        print(f"tbl_c: {sizes.tbl_bytes} bytes "
              f"(reference {ref_tbl:.0f}, ratio {sizes.tbl_bytes / ref_tbl:.2f})")
        print(f"bf:    {sizes.bf_bytes} bytes "
              f"(reference {ref_bf:.0f}, ratio {sizes.bf_bytes / ref_bf:.2f})")
        return 0
    report = run_bench(add_files=args.add_files)
    print(report.table())
    if args.out:
        with open(args.out, "w") as f:
            f.write(report.to_jsonl())
        print(f"records written to {args.out}")
    return 0 if all(report.laws.values()) else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dsse",
        description="Forward-private searchable-encryption simulator",
    )
    ap.add_argument("--state-dir", default="dsse-state",
                    help="directory holding owner/server/user state")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-keys", help="create keys and empty states")
    p.add_argument("--mode", choices=["basic", "full"], default="full")
    p.add_argument("--users", default="u1,u2",
                   help="comma-separated authorized user names (full mode)")
    p.add_argument("--fp", type=float, default=2.0**-30,
                   help="bloom filter false-positive target")
    p.add_argument("--capacity", type=int, default=200_000,
                   help="bloom filter capacity (expected elements)")
    p.set_defaults(func=cmd_gen_keys)

    p = sub.add_parser("ingest", help="synthesize and upload a PHI stream")
    p.add_argument("--n", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--period", type=int, default=600)
    p.add_argument("--connect", type=_host_port, metavar="HOST:PORT",
                   help="a remote `dsse serve`")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("refresh", help="rebuild and upload the counter filter")
    p.add_argument("--connect", type=_host_port, metavar="HOST:PORT")
    p.set_defaults(func=cmd_refresh)

    p = sub.add_parser("search", help="query one keyword")
    p.add_argument("--keyword", required=True)
    p.add_argument("--as", dest="actor", choices=["owner", "user"], default="user")
    p.add_argument("--user", help="user name (default: first provisioned)")
    p.add_argument("--connect", type=_host_port, metavar="HOST:PORT")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("verify", help="verify the last search transcript")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("rotate", help="rotate the group key, revoking a user")
    p.add_argument("--revoke", required=True)
    p.add_argument("--connect", type=_host_port, metavar="HOST:PORT")
    p.set_defaults(func=cmd_rotate)

    p = sub.add_parser("serve", help="serve server state over TCP")
    p.add_argument("--listen", type=_host_port, default="127.0.0.1:7730",
                   metavar="HOST:PORT")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("scenario", help="run an end-to-end scenario")
    p.add_argument("--adversary", choices=list(ADVERSARY_BEHAVIORS), default="honest")
    p.add_argument("--mode", choices=["basic", "full"], default="full")
    p.add_argument("--n", type=int, default=10_000)
    p.add_argument("--queries", type=int, default=50)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--socket", action="store_true",
                   help="drive the scenario over a TCP socket")
    p.add_argument("--out", help="write line-delimited records here")
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser("bench", help="timing and size measurements")
    p.add_argument("--add-files", type=int, default=500)
    p.add_argument("--long", action="store_true",
                   help="20-year owner-state size run (slow, opt-in)")
    p.add_argument("--long-n", type=int, default=1_051_200)
    p.add_argument("--out", help="write line-delimited records here")
    p.set_defaults(func=cmd_bench)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DsseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: missing state file ({exc.filename}); run gen-keys first",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
