"""Shared fixtures: the conformance corpus and a toy installable project."""

from __future__ import annotations

import os
import select
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"

SESSION_START = time.perf_counter()

# An audit hook cannot be removed, so one is installed for the session and
# forwards each event to the recorder that ``audit_events`` sets, if any.
_audit_recorder = None


def _forward_audit_event(event: str, args: tuple) -> None:
    if _audit_recorder is not None:
        _audit_recorder(event, args)


sys.addaudithook(_forward_audit_event)


@contextmanager
def audit_events(recorder):
    """Call ``recorder(event, args)`` for every audit event (PEP 578)
    raised inside the block."""
    global _audit_recorder
    _audit_recorder = recorder
    try:
        yield
    finally:
        _audit_recorder = None

TOY_ARCH = "Linux__2.4"

SOCKETS_DOC = """<doc type=BuildSystem::ToolDoc version=1.0>
<Tool name=sockets version=1.0>
</Tool>
"""

GCC_DOC = """<doc type=BuildSystem::ToolDoc version=1.0>
<Tool name=gcc version=2.95.2>
</Tool>
"""

HTL_DOC = """<doc type=BuildSystem::ToolDoc version=1.0>
<Tool name=htl version=1.4>
<Lib name=htl>
</Tool>
<Tool name=htl version=1.5>
<Lib name=htl>
</Tool>
"""


@dataclass
class ToyProject:
    root: Path
    specs: Path
    install_root: Path
    workspace: Path
    bootstrap_url: str
    requirements_url: str
    registry_path: Path
    site_path: Path
    env: dict = field(default_factory=dict)

    @property
    def central_root(self) -> Path:
        return self.install_root / "ORCA_7_1_3"


def make_toy_project(tmp_path: Path, *, with_config: bool = True) -> ToyProject:
    """A fully file:-backed installable project: four tool specs, one
    configuration pinning them, a requirements selection, and a bootstrap
    document downloading one source file."""
    specs = tmp_path / "specs"
    specs.mkdir()
    install_root = tmp_path / "central"
    install_root.mkdir()
    workspace = tmp_path / "work"
    workspace.mkdir()

    (specs / "sockets.tooldoc").write_text(SOCKETS_DOC)
    (specs / "gcc.tooldoc").write_text(GCC_DOC)
    (specs / "htl.tooldoc").write_text(HTL_DOC)
    (specs / "boost.tooldoc").write_text((FIXTURES / "boost.tooldoc").read_text())
    (specs / "README.src").write_text("toy project sources\n")

    (specs / "toy.conf").write_text(
        "<doc type=BuildSystem::Configuration version=1.0>\n"
        f'<require name=gcc version=2.95.2 url="file:{specs}/gcc.tooldoc">\n'
        f'<require name=sockets version=1.0 url="file:{specs}/sockets.tooldoc">\n'
        f'<require name=boost version=1.28.0 url="file:{specs}/boost.tooldoc">\n'
        f'<require name=htl version=1.4 url="file:{specs}/htl.tooldoc">\n'
    )
    (specs / "toy.reqs").write_text(
        "<doc type=BuildSystem::Requirements version=2.0>\n"
        f'<include url="file:{specs}/toy.conf">\n'
        "<select name=gcc>\n"
        "<select name=sockets>\n"
        "<select name=boost>\n"
        "<select name=htl>\n"
    )
    config_line = (f'<config url="file:{specs}/toy.reqs">\n' if with_config else "")
    (specs / "toy.boot").write_text(
        "<doc type=BuildSystem::BootStrapDoc version=1.0>\n"
        "<project name=ORCA version=7_1_3>\n"
        f'<download url="file:{specs}/README.src" to="src/README">\n'
        + config_line
    )

    site_path = tmp_path / "site.cfg"
    site_path.write_text(
        "tool.boost.BOOST_BASE = /opt/boost\n"
        "tool.boost.LIBDIR = /opt/boost/lib\n"
        "tool.boost.INCLUDE = /opt/boost/include\n"
        "build.command = true\n"
    )
    registry_path = tmp_path / "scramdb"
    env = {
        "SCRAM_ARCH": TOY_ARCH,
        "SCRAM_SITE": str(site_path),
        "SCRAM_LOOKUPDB": str(registry_path),
        "SCRAM_CACHE": str(tmp_path / "cache"),
        "PATH": "/usr/bin:/bin",
        "HOME": str(tmp_path),
    }
    return ToyProject(
        root=tmp_path,
        specs=specs,
        install_root=install_root,
        workspace=workspace,
        bootstrap_url=f"file:{specs}/toy.boot",
        requirements_url=f"file:{specs}/toy.reqs",
        registry_path=registry_path,
        site_path=site_path,
        env=env,
    )


@pytest.fixture
def toy(tmp_path) -> ToyProject:
    return make_toy_project(tmp_path)


@pytest.fixture
def child_env():
    """Maps an environment to a copy in which a child Python process
    imports this scram."""
    import scram

    src = str(Path(scram.__file__).parent.parent)
    return lambda env: dict(env, PYTHONPATH=src)


@pytest.fixture
def kill_when_held(child_env):
    """Run a Python snippet in a child process, wait until it prints
    ``held`` (once it holds a lock), then SIGKILL it."""

    def run(script: str) -> None:
        child = subprocess.Popen([sys.executable, "-c", script],
                                 stdout=subprocess.PIPE,
                                 env=child_env(os.environ))
        try:
            ready, _, _ = select.select([child.stdout], [], [], 30)
            assert ready and child.stdout.readline() == b"held\n"
        finally:
            child.kill()
            child.wait()
            child.stdout.close()

    return run


@pytest.fixture(scope="session")
def boost_text() -> str:
    return (FIXTURES / "boost.tooldoc").read_text()

@pytest.fixture(scope="session")
def configuration_text() -> str:
    return (FIXTURES / "toolbox.conf").read_text()

@pytest.fixture(scope="session")
def requirements_text() -> str:
    return (FIXTURES / "project.reqs").read_text()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    elapsed = time.perf_counter() - SESSION_START
    terminalreporter.write_line(
        f"full-suite wall time: {elapsed:.1f}s (budget 60s: "
        f"{'PASS' if elapsed < 60 else 'FAIL'})"
    )


_ACCEPTANCE_SEEN: set[str] = set()


def pytest_runtest_logreport(report):
    """One pass/fail line per acceptance criterion."""
    import re

    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    matched = re.search(r"test_c(\d+)", report.nodeid)
    if not matched:
        return
    criterion = f"C{matched.group(1)}"
    status = "PASS" if report.passed else "FAIL"
    key = f"{criterion}:{status}:{report.nodeid}"
    if key in _ACCEPTANCE_SEEN:
        return
    _ACCEPTANCE_SEEN.add(key)
    print(f"\nACCEPTANCE {criterion} {status} ({report.nodeid.split('::')[-1]})")
