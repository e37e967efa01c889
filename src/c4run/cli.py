"""c4run command line: the OCI-facing entrypoints plus serve/recover.

Exit codes: 0 success, 1 usage, 2 not-found, 3 illegal-state, 4 timeout,
5 internal. The state-directory root comes from --statedir-root or the
C4RUN_STATEDIR_ROOT environment variable.

Each verb is a short-lived process, so this module imports only what the
lifecycle verbs run; serve and recover load the pipeline and its backend
when chosen. Run as a program (``python -m c4run.cli`` or the ``c4run``
script), the process ends through errors.exit_process once main() has
returned.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

from . import runtime
from .errors import C4Error, EXIT_USAGE, UsageError, exit_process
from .statedir import StateDir

DEFAULT_ROOT_ENV = "C4RUN_STATEDIR_ROOT"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="c4run", description=__doc__)
    parser.add_argument(
        "--statedir-root",
        type=Path,
        default=None,
        help=f"state directory root (default: ${DEFAULT_ROOT_ENV} or ~/.local/state/c4run)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("create", help="materialize persistent state from a bundle")
    p.add_argument("cid")
    p.add_argument("--bundle", type=Path, required=True)
    p.add_argument("--reuse-bundle", action="store_true", help="hardlink the rootfs instead of copying")

    p = sub.add_parser("start", help="launch or reattach to the anchor")
    p.add_argument("cid")

    p = sub.add_parser("state", help="print the status envelope")
    p.add_argument("cid")

    p = sub.add_parser("wait", help="wait for a terminal state and print the exit result")
    p.add_argument("cid")
    p.add_argument("--timeout", type=float, default=None)

    p = sub.add_parser("kill", help="terminate the anchor and cancel in-flight stages")
    p.add_argument("cid")
    p.add_argument("--signal", type=int, default=signal.SIGTERM)
    p.add_argument("--grace", type=float, default=runtime.DEFAULT_KILL_GRACE_S)

    p = sub.add_parser("delete", help="remove persistent artifacts (terminal instances only)")
    p.add_argument("cid")
    p.add_argument("--force", action="store_true", help="kill first if necessary")

    p = sub.add_parser("serve", help="run the stage pipeline loop")
    p.add_argument("cid")
    p.add_argument("--no-fail-fast", dest="fail_fast", action="store_false")
    p.add_argument("--poll-ms", type=float, default=50.0)
    p.add_argument("--workers", type=int, default=4)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--until-idle", dest="mode", action="store_const", const="until-idle")
    mode.add_argument("--until-done", dest="mode", action="store_const", const="until-done")
    mode.add_argument("--forever", dest="mode", action="store_const", const="forever")
    p.set_defaults(mode="forever")

    p = sub.add_parser("recover", help="reconcile claimed requests after a crash")
    p.add_argument("cid")

    return parser


def _root(args: argparse.Namespace) -> Path:
    if args.statedir_root is not None:
        return args.statedir_root
    env = os.environ.get(DEFAULT_ROOT_ENV)
    if env:
        return Path(env)
    return Path.home() / ".local" / "state" / "c4run"


def _serve(args: argparse.Namespace, root: Path) -> int:
    from .serve import ServeLoop

    sd = StateDir(root, args.cid)
    stopping = {"flag": False}

    def _on_signal(_sig, _frame):
        stopping["flag"] = True

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)

    loop = ServeLoop(
        sd,
        fail_fast=args.fail_fast,
        poll_interval=args.poll_ms / 1000.0,
        workers=args.workers,
        stop_check=lambda: stopping["flag"],
    )
    summary = loop.run(mode=args.mode)
    print(json.dumps(summary.to_json()))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0

    root = _root(args)

    try:
        if args.command == "create":
            out = runtime.cmd_create(root, args.cid, args.bundle, reuse_bundle=args.reuse_bundle)
        elif args.command == "start":
            out = runtime.cmd_start(root, args.cid)
        elif args.command == "state":
            out = runtime.cmd_state(root, args.cid)
        elif args.command == "wait":
            out = runtime.cmd_wait(root, args.cid, timeout=args.timeout)
        elif args.command == "kill":
            out = runtime.cmd_kill(root, args.cid, sig=args.signal, grace_s=args.grace)
        elif args.command == "delete":
            out = runtime.cmd_delete(root, args.cid, force=args.force)
        elif args.command == "serve":
            return _serve(args, root)
        elif args.command == "recover":
            from .serve import ServeLoop

            sd = StateDir(root, args.cid)
            loop = ServeLoop(sd)
            out = {"cid": args.cid, "recovered": loop.recover()}
        else:  # pragma: no cover - argparse enforces the choices
            raise UsageError(f"unknown command {args.command}")
    except C4Error as exc:
        print(f"c4run {args.command}: {exc}", file=sys.stderr)
        return exc.exit_code
    print(json.dumps(out))
    return 0


def entrypoint() -> None:
    exit_process(main())


if __name__ == "__main__":
    entrypoint()
