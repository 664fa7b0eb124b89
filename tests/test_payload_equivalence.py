"""The tokenizer makes no event for a CharData run that ``str.strip``
leaves empty. This guard checks that no table reads such a run: every
document of the benchmark's seed-1 4-tool corpus (``perfbench/corpus.py``,
loaded by path) gives the same payload from ``tokenize_markup`` as from the
reference scanner with every blank run kept."""

import importlib.util
import sys
from functools import partial
from pathlib import Path

from scram.configuration import parse_configuration, parse_requirements
from scram.markup import CHARDATA, splice_inline, strip_doc_header, tokenize_markup
from scram.project import parse_bootstrap
from scram.runtime import parse_app_env
from scram.tooldoc import parse_tool_doc

from eventhelpers import payload_fields, scanner_tokenize

CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"


def load_corpus():
    spec = importlib.util.spec_from_file_location("perfbench_corpus", CORPUS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def parser_for(rel):
    if rel.startswith("tools/") and rel.endswith(".tooldoc"):
        return parse_tool_doc
    if rel.startswith("app-env/"):
        return parse_app_env
    return {"conf/site.conf": parse_configuration, "proj.reqs": parse_requirements,
            "proj.boot": parse_bootstrap}.get(rel)


def payload(root, rel, parser, tokenize):
    """The payload of one document, ``<inline>`` fragments tokenized and
    spliced the same way."""
    def resolve(url, tag):
        return tokenize((root / "tools" / url).read_text(), url)

    events = tokenize((root / rel).read_text(), rel)
    return payload_fields(parser(strip_doc_header(splice_inline(events, resolve))))


def test_blank_runs_carry_nothing_a_table_reads(tmp_path):
    corpus = load_corpus().generate(1, 4)
    corpus.write(str(tmp_path))
    root = tmp_path
    documents = [(rel, parser_for(rel)) for rel in sorted(corpus.files)
                 if parser_for(rel)]
    # 4 tool documents, the configuration, requirements, bootstrap and
    # two app-env overlays
    assert len(documents) == 9
    keep_blank = partial(scanner_tokenize, keep_blank=True)
    blank_runs = 0
    for rel, parser in documents:
        kept = keep_blank((root / rel).read_text(), rel)
        blank_runs += sum(ev.kind is CHARDATA and not ev.text.strip() for ev in kept)
        assert (payload(root, rel, parser, tokenize_markup)
                == payload(root, rel, parser, keep_blank)), rel
    assert blank_runs > 100  # the corpus does exercise the dropped runs
