"""The scram command line.

Verbs: list, project, setup, tool list, tool info, runtime, build, install,
bootstrap. Exit codes: 0 success, 1 operational failure, 2 usage error.
Operational errors render as one line on standard error:
``scram: <context>: <message>``. See docs/cli.md for the full table.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from . import __version__
from .configuration import detect_architecture
from .errors import AreaError, ScramError
from .project import (
    Registry,
    area_context,
    area_environment,
    bootstrap_install,
    create_dev_area,
    list_installs,
    register_install,
    run_build,
    setup_tool,
    tool_info,
    tool_list,
)
from .runtime import emit_shell, load_app_env_file
from .sitefile import SiteInfo


class CommandLine:
    """scram's argv parser. Canonical argv of every verb is read by
    ``parse_canonical``; anything else (help, version, usage errors and
    the other spellings argparse accepts) goes to ``argparse_parser``,
    the one reference grammar, so its output and exit codes are
    argparse's own."""

    def parse_args(self, argv: list[str] | None = None) -> SimpleNamespace:
        argv = sys.argv[1:] if argv is None else list(argv)
        args = parse_canonical(argv)
        return argparse_parser().parse_args(argv) if args is None else args


def build_parser() -> CommandLine:
    return CommandLine()


def _is_word(token: str) -> bool:
    """A token argparse reads as a positional value whatever it holds."""
    return not token.startswith("-")


def parse_canonical(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse gives for ``argv`` if it has one of the
    exact shapes below, else None:

    ``[--arch A | --refresh]... VERB`` followed by ``runtime -sh|-csh
    [--app X]``, ``tool list``, ``tool info N``, ``setup [N [V [U]]]``,
    ``project N V``, ``install [--force]``, ``list [P]``, ``bootstrap URL
    [--dest D]`` or ``build ARGS...``, where every value and build
    argument is a word (does not start with ``-``)."""
    arch, refresh, i, n = None, False, 0, len(argv)
    while i < n and argv[i] in ("--arch", "--refresh"):
        if argv[i] == "--refresh":
            refresh, i = True, i + 1
        elif i + 1 < n and _is_word(argv[i + 1]):
            arch, i = argv[i + 1], i + 2
        else:
            return None
    if i == n:
        return None
    verb, rest = argv[i], argv[i + 1:]
    fields = _verb_fields(verb, rest)
    if fields is None:
        return None
    return SimpleNamespace(arch=arch, refresh=refresh, verb=verb, **fields)


def _verb_fields(verb: str, rest: list[str]) -> dict | None:
    n = len(rest)
    if verb == "runtime":
        if (n in (1, 3) and rest[0] in ("-sh", "-csh")
                and (n == 1 or rest[1] == "--app" and _is_word(rest[2]))):
            return {"dialect": rest[0][1:], "app": rest[2] if n == 3 else None}
        return None
    if verb == "install":
        return {"force": rest == ["--force"]} if rest in ([], ["--force"]) else None
    if verb == "bootstrap":
        if (n == 1 or n == 3 and rest[1] == "--dest") and all(map(_is_word, rest[::2])):
            return {"url": rest[0], "dest": rest[2] if n == 3 else "."}
        return None
    if not all(map(_is_word, rest)):
        return None
    if verb == "tool":
        if rest == ["list"]:
            return {"tool_verb": "list"}
        if n == 2 and rest[0] == "info":
            return {"tool_verb": "info", "name": rest[1]}
        return None
    if verb == "build":
        return {"args": rest}
    if verb == "list" and n <= 1:
        return {"project": rest[0] if rest else None}
    if verb == "project" and n == 2:
        return {"name": rest[0], "project_version": rest[1]}
    if verb == "setup" and n <= 3:
        return dict(zip(("name", "tool_version", "url"), rest + [None] * (3 - n)))
    return None


def argparse_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="scram",
        description="Configuration management and developer workspaces.",
    )
    parser.add_argument("--version", action="version",
                        version=f"scram {__version__}")
    parser.add_argument("--arch", metavar="OS__RELEASE",
                        help="override the detected architecture")
    parser.add_argument("--refresh", action="store_true",
                        help="refetch unversioned (HEAD) documents")
    verbs = parser.add_subparsers(dest="verb", required=True, metavar="VERB")

    p = verbs.add_parser("list", help="list registered central installations")
    p.add_argument("project", nargs="?", default=None)

    p = verbs.add_parser("project", help="create a linked developer area")
    p.add_argument("name")
    p.add_argument("project_version", metavar="version")

    p = verbs.add_parser("setup", help="resolve tools into the current area")
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("tool_version", metavar="version", nargs="?", default=None)
    p.add_argument("url", nargs="?", default=None)

    p = verbs.add_parser("tool", help="query the area's tools")
    tool_verbs = p.add_subparsers(dest="tool_verb", required=True,
                                  metavar="list|info")
    tool_verbs.add_parser("list", help="tools with active and default versions")
    info = tool_verbs.add_parser("info", help="details of one tool")
    info.add_argument("name")

    p = verbs.add_parser("runtime", help="emit the area's runtime environment")
    dialect = p.add_mutually_exclusive_group(required=True)
    dialect.add_argument("-csh", dest="dialect", action="store_const",
                         const="csh", help="emit csh syntax")
    dialect.add_argument("-sh", dest="dialect", action="store_const",
                         const="sh", help="emit Bourne shell syntax")
    p.add_argument("--app", default=None,
                   help="overlay an application environment file")

    p = verbs.add_parser("build", help="run the configured build command")
    p.add_argument("args", nargs=argparse.REMAINDER)

    p = verbs.add_parser("install", help="register this central installation")
    p.add_argument("--force", action="store_true",
                   help="register even without a verified build")

    p = verbs.add_parser("bootstrap",
                         help="install a project from its bootstrap document")
    p.add_argument("url")
    p.add_argument("--dest", default=".",
                   help="directory to install under (default: .)")
    return parser


def _make_prompt(stdin):
    if stdin is None or not hasattr(stdin, "isatty") or not stdin.isatty():
        return None

    def prompt(tool: str, var: str, hint: str):
        if hint:
            print(f"{tool}: {hint}", file=sys.stderr)
        sys.stderr.write(f"value for {var} of {tool} (empty to give up): ")
        sys.stderr.flush()
        answer = stdin.readline().strip()
        return answer or None

    return prompt


def main(argv: list[str] | None = None, env=None, cwd: str | None = None) -> int:
    env = os.environ if env is None else env
    cwd = os.getcwd() if cwd is None else cwd
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        arch = detect_architecture(args.arch, env=env)
        code = _dispatch(args, env, cwd, arch) or 0
        # a closed stdout fails here, as one line, not at exit
        sys.stdout.flush()
        return code
    except ScramError as exc:
        context = exc.context or args.verb
        print(f"scram: {context}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # last resort for a path that no scram helper turned into an error
        where = "" if exc.filename is None else f": {exc.filename}"
        print(f"scram: {args.verb}: {exc.strerror or exc}{where}", file=sys.stderr)
        return 1


def _dispatch(args, env, cwd, arch) -> int:
    if args.verb == "list":
        sys.stdout.write(list_installs(Registry.locate(env), args.project, arch))
        return 0

    if args.verb == "project":
        area = create_dev_area(args.name, args.project_version,
                               Registry.locate(env), cwd, arch=arch)
        print(f"Developer area created: {area.root}")
        return 0

    if args.verb == "bootstrap":
        if not args.dest:
            raise AreaError("--dest is empty; name the directory to install under")
        area, _ = bootstrap_install(
            args.url, args.dest, site=SiteInfo.locate(env, args.dest),
            prompt=_make_prompt(sys.stdin), env=env, arch=arch, refresh=args.refresh)
        print(f"Central installation assembled: {area.root}")
        print("Run 'scram build' and 'scram install' inside it to publish.")
        return 0

    area = area_context(cwd)

    if args.verb == "setup":
        site = SiteInfo.locate(env, area.install_root)
        with area.lock():
            written = setup_tool(
                area, args.name, args.tool_version, args.url, site=site,
                prompt=_make_prompt(sys.stdin), env=env, arch=arch,
                refresh=args.refresh)
        for name in written:
            print(f"set up {name}")
        return 0

    if args.verb == "tool":
        if args.tool_verb == "list":
            sys.stdout.write(tool_list(area, arch))
        else:
            sys.stdout.write(tool_info(area, args.name, arch))
        return 0

    if args.verb == "runtime":
        if args.app == "":
            raise AreaError("--app is empty; name an application environment file")
        delta = area_environment(area, arch)
        if args.app:
            delta = delta.merge(load_app_env_file(area.root, args.app))
        sys.stdout.write(emit_shell(delta, env, args.dialect))
        return 0

    if args.verb == "build":
        site = SiteInfo.locate(env, area.install_root)
        with area.lock():
            return run_build(area, args.args, site=site, env=env, arch=arch)

    if args.verb == "install":
        with area.lock():
            record = register_install(area, Registry.locate(env), arch=arch,
                                      force=args.force)
        print(f"Registered {record.project} {record.version} ({record.arch}) "
              f"at {record.location}")
        return 0

    raise AssertionError(f"unrouted verb {args.verb}")


def console_main() -> None:
    """Run ``main`` on ``sys.argv`` and end the process without the
    interpreter's teardown: every state file is published by a rename and
    every lock is an ``flock``, so there is nothing left to clean up, and
    ``atexit`` handlers do not run."""
    code = main()
    try:
        sys.stdout.flush()
    except OSError as exc:
        # only output that main did not flush itself (help, version) is left
        if code == 0:
            print(f"scram: {exc.strerror or exc}", file=sys.stderr)
            code = 1
    try:
        sys.stderr.flush()
    finally:
        os._exit(code)


if __name__ == "__main__":
    console_main()
