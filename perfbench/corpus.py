"""Seeded synthetic corpus: ToolDocs, configuration, requirements, bootstrap
document, site file, library roots and app-env overlays, plus the ground
truth the checker compares scram's output against.

The corpus is a pure function of ``(seed, n_tools)``. Every document refers
to its neighbours by relative URL; the only absolute paths (the
configuration's ``<base>``, the site file's checkout command and library
roots) are written as ``@CORPUS@`` and substituted when the files are
written, so the digest over the unsubstituted texts identifies the corpus
independently of where it is written.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass, field

ARCH = "Linux__2.6"
PROJECT = "BENCH"
PROJECT_VERSION = "1_0"
AREA_NAME = f"{PROJECT}_{PROJECT_VERSION}"
APP_NAME = "viewer"
PLACEHOLDER = "@CORPUS@"

_SYLLABLES = ("ka", "lo", "mi", "ne", "ru", "ta", "vo", "xe", "zu", "gri",
              "pha", "sto", "qua", "bel", "dor", "fen")


@dataclass
class Tool:
    """Ground truth for one tool, independent of scram's own code."""

    name: str                      # as written in the ToolDoc
    versions: list[str]
    pinned: str                    # effective pin under ARCH
    probed: bool                   # LIBDIR left to the library prober
    deps: list[int]                # indices of external tools
    inline: bool                   # block inlines the shared fragment
    base: str = ""
    libdir: str = ""               # site value, or relative probe dir

    @property
    def key(self) -> str:
        return self.name.casefold()

    @property
    def var(self) -> str:
        return self.key.upper()

    @property
    def doc(self) -> str:
        return f"{self.key}.tooldoc"


@dataclass
class Corpus:
    seed: int
    n_tools: int
    tools: list[Tool]
    select_order: list[int]        # runtime order of tool indices
    overrides: dict[int, str]      # developer-area local overrides
    files: dict[str, str] = field(default_factory=dict)  # relpath -> text
    app_env: dict[str, list[tuple[str, str, bool]]] = field(default_factory=dict)

    @property
    def digest(self) -> str:
        h = hashlib.sha256()
        for path in sorted(self.files):
            h.update(path.encode() + b"\0" + self.files[path].encode() + b"\0")
        return h.hexdigest()

    def write(self, root: str) -> None:
        for rel, text in self.files.items():
            path = os.path.join(root, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as fh:
                fh.write(text.replace(PLACEHOLDER, root))

    def bootstrap_url(self, root: str) -> str:
        return f"file:{root}/proj.boot"

    def tool_url(self, root: str, tool: Tool) -> str:
        return f"file:{root}/tools/{tool.doc}"

    def libdir(self, root: str, tool: Tool) -> str:
        return os.path.join(root, tool.libdir) if tool.probed else tool.libdir

    def bindings(self, root: str, tool: Tool, version: str) -> dict[str, tuple[str, str]]:
        """Expected ``name -> (value, provenance)`` of a resolved tool."""
        out = {
            f"{tool.var}_BASE": (tool.base, "site-file"),
            f"{tool.var}_LIBDIR": (self.libdir(root, tool),
                                   "probe" if tool.probed else "site-file"),
            f"{tool.var}_INCLUDE": (f"{tool.base}/include", "substitution"),
        }
        for j in tool.deps:
            dep = self.tools[j]
            out[f"{tool.var}_WITH_{dep.var}"] = (f"{dep.base}/share", "substitution")
        if tool.inline:
            out["SITE_POLICY"] = (f"policy-{self.seed}", "substitution")
        out["PATH"] = (self.exec_dir(tool, version), "substitution")
        out["LD_LIBRARY_PATH"] = (self.libdir(root, tool), "substitution")
        return out

    @staticmethod
    def exec_dir(tool: Tool, version: str) -> str:
        return f"{tool.base}/{version}/bin"

    def runtime_prepends(self, root: str, versions: dict[int, str]) -> list[tuple[str, str]]:
        """Tool prepends in configuration (select) order."""
        out = []
        for i in self.select_order:
            tool = self.tools[i]
            out.append(("PATH", self.exec_dir(tool, versions.get(i, tool.pinned))))
            out.append(("LD_LIBRARY_PATH", self.libdir(root, tool)))
        return out


def _name(rng: random.Random, i: int) -> str:
    stem = rng.choice(_SYLLABLES) + rng.choice(_SYLLABLES)
    stem = stem.capitalize() if rng.random() < 0.5 else stem
    return f"{stem}{i:03d}"


def _spread(rng: random.Random, n: int, values: tuple[int, ...]) -> list[int]:
    """``n`` values cycling through ``values``, shuffled."""
    out = [values[i % len(values)] for i in range(n)]
    rng.shuffle(out)
    return out


def _version(rng: random.Random) -> str:
    return f"{rng.randint(1, 9)}.{rng.randint(0, 12)}.{rng.randint(0, 9)}"


def generate(seed: int, n_tools: int) -> Corpus:
    rng = random.Random(f"scram-perfbench:{seed}:{n_tools}")
    # every count below is exact, so that seeds differ in names, versions
    # and order but not in the amount of work they give scram
    version_counts = _spread(rng, n_tools, (2, 3, 4))
    dep_counts = _spread(rng, n_tools, (0, 0, 1, 1, 2))
    probed = set(rng.sample(range(n_tools), n_tools // 2))
    inlined = set(rng.sample(range(n_tools), round(0.3 * n_tools)))
    tools: list[Tool] = []
    for i in range(n_tools):
        versions: list[str] = []
        while len(versions) < version_counts[i]:
            v = _version(rng)
            if v not in versions:
                versions.append(v)
        deps = sorted(rng.sample(range(i), min(i, dep_counts[i])))
        tool = Tool(name=_name(rng, i), versions=versions,
                    pinned=rng.choice(versions), probed=i in probed,
                    deps=deps, inline=i in inlined)
        tool.base = f"/sw/{tool.key}"
        tool.libdir = (f"libroots/{tool.key}" if tool.probed
                       else f"/sw/{tool.key}/lib")
        tools.append(tool)

    # a tenth of the tools pin an Architecture-scoped version that beats the
    # unscoped pin; a twentieth more carry a SunOS pin that must never match
    scoped = set(rng.sample(range(n_tools), n_tools // 10))
    foreign = set(rng.sample(range(n_tools), n_tools // 20))
    unscoped_pin = {}
    for i, tool in enumerate(tools):
        unscoped_pin[i] = tool.pinned
        if i in scoped:
            others = [v for v in tool.versions if v != tool.pinned]
            unscoped_pin[i] = rng.choice(others)

    select_order = list(range(n_tools))
    rng.shuffle(select_order)
    # some tools share the library directory of the tool selected just
    # before them, so that the runtime prepend meets its own value at the
    # head of LD_LIBRARY_PATH and must not repeat it
    for pos in range(1, n_tools, 10):
        before, tool = tools[select_order[pos - 1]], tools[select_order[pos]]
        if not before.probed and not tool.probed:
            tool.libdir = before.libdir

    # local overrides: a tenth (at least one), never a tool whose externals
    # include another override, so each resolves against pinned versions
    overrides: dict[int, str] = {}
    for i in rng.sample(range(n_tools), n_tools):
        if len(overrides) == max(1, n_tools // 10):
            break
        if not any(j in overrides for j in tools[i].deps) and not any(
                i in tools[k].deps for k in overrides):
            overrides[i] = rng.choice([v for v in tools[i].versions
                                       if v != tools[i].pinned])
    corpus = Corpus(seed, n_tools, tools, select_order, overrides)
    files = corpus.files

    for tool in tools:
        files[f"tools/{tool.doc}"] = _tool_doc(corpus, tool)
        if tool.probed:
            files[f"{tool.libdir}/lib{tool.key}.so"] = ""
            files[f"{tool.libdir}/README"] = f"{tool.name} libraries\n"
    files["tools/common.frag"] = (
        f"<Environment name=SITE_POLICY value=policy-{seed}>\n"
        "  Site-wide policy tag shared by every tool that inlines it.\n"
        "</Environment>\n"
    )

    conf = ["<doc type=BuildSystem::Configuration version=1.0>",
            f'<base url="file:{PLACEHOLDER}/tools/">']
    for i, tool in enumerate(tools):
        conf.append(f'<require name={tool.name} version={unscoped_pin[i]} '
                    f'url="{tool.doc}">')
        conf.append("</require>")
    conf.append("<Architecture name=Linux__2>")
    conf += [f'  <require name={tools[i].name} version={tools[i].pinned} '
             f'url="{tools[i].doc}">' for i in sorted(scoped)]
    conf.append("</Architecture>")
    conf.append("<Architecture name=SunOS__5>")
    conf += [f'  <require name={tools[i].name} version={tools[i].versions[0]} '
             f'url="{tools[i].doc}">' for i in sorted(foreign)]
    conf.append("  <require name=SunCC version=5.4 url=\"suncc.tooldoc\">")
    conf.append("</Architecture>")
    files["conf/site.conf"] = "\n".join(conf) + "\n"

    reqs = ["<doc type=BuildSystem::Requirements version=2.0>",
            '<include url="vcs:?module=conf/site.conf">']
    for pos, i in enumerate(select_order):
        if pos % 7 == 3:
            reqs.append(f"<Architecture name=Linux__2><select name={tools[i].name}>"
                        "</Architecture>")
        else:
            reqs.append(f"<select name={tools[i].name}>")
    reqs.append("<Architecture name=SunOS__5>\n<select name=SunCC>\n</Architecture>")
    files["proj.reqs"] = "\n".join(reqs) + "\n"

    files["proj.boot"] = (
        "<doc type=BuildSystem::BootStrapDoc version=1.0>\n"
        f"<project name={PROJECT} version={PROJECT_VERSION}>\n"
        '<download url="src/README.src" to="src/README">\n'
        '<download url="src/BuildFile.src" to="config/BuildFile">\n'
        '<config url="proj.reqs">\n'
    )
    files["src/README.src"] = f"benchmark project, seed {seed}\n"
    files["src/BuildFile.src"] = "<export>\n" * (1 + n_tools // 50)

    files["site.cfg"] = "\n".join(
        ["# generated site description"]
        + [f"tool.{t.key}.{t.var}_BASE = {t.base}" for t in tools]
        + [f"tool.{t.key}.{t.var}_LIBDIR = {t.libdir}" for t in tools
           if not t.probed]
        + [f"search.libroots = {PLACEHOLDER}/libroots",
           f"scheme.cvs.command = cp {PLACEHOLDER}/{{module}} {{out}}",
           "build.command = /usr/bin/env"]
    ) + "\n"

    n_app = 8 + n_tools // 20
    for area in ("central", "developer"):
        entries = [(f"VIEWER_{k}", f"{area}-{rng.randint(0, 10**6)} x", False)
                   for k in range(n_app)]
        entries.append(("PATH", f"/sw/viewer/{area}/bin", True))
        corpus.app_env[area] = entries
        lines = ["<doc type=BuildSystem::AppEnvDoc version=1.0>"]
        for name, value, is_path in entries:
            kind = " type=Runtime_path" if is_path else ""
            lines.append(f'<Environment name={name} value="{value}"{kind}>')
        files[f"app-env/{area}"] = "\n".join(lines) + "\n"
    return corpus


def _tool_doc(corpus: Corpus, tool: Tool) -> str:
    out = ["<doc type=BuildSystem::ToolDoc version=1.0>"]
    for version in tool.versions:
        out += [
            f"<Tool name={tool.name} version={version}>",
            f"<info url=http://tools.example.org/{tool.key}></info>",
            f"<Lib name={tool.key}>",
            "<Client>",
            f"<Environment name={tool.var}_BASE>",
            f"  Top of the {tool.name} installation.",
            "</Environment>",
            f"<Environment name={tool.var}_LIBDIR type=lib></Environment>",
            "</Client>",
        ]
        for j in tool.deps:
            dep = corpus.tools[j]
            out += [f"<External ref={dep.name} version={dep.pinned}>",
                    f"{tool.name} links against {dep.name}.",
                    "</External>"]
        out.append(f"<Environment name={tool.var}_INCLUDE "
                   f"value=${tool.var}_BASE/include></Environment>")
        for j in tool.deps:
            dep = corpus.tools[j]
            out.append(f"<Environment name={tool.var}_WITH_{dep.var} "
                       f"value=${dep.var}_BASE/share></Environment>")
        if tool.inline:
            out.append('<inline url="common.frag">')
        out += [
            f"<Environment name=PATH value=${tool.var}_BASE/{version}/bin",
            "             type=Runtime_path></Environment>",
            f"<Environment name=LD_LIBRARY_PATH value=${tool.var}_LIBDIR",
            "             type=Runtime_path></Environment>",
            "</Tool>",
        ]
    return "\n".join(out) + "\n"
