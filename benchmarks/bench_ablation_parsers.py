"""Ablation: bespoke per-manufacturer parsers vs. the generic parser.

The paper had to write one normalizer per manufacturer format; this
bench measures what a single generic format assumption would lose.
"""

from repro.parsing.base import ParserRegistry
from repro.parsing.formats import all_parsers
from repro.parsing.formats.generic import GenericParser
from repro.synth.dataset import generate_corpus

from conftest import write_exhibit

SEED = 2018


def _parse_with(registry: ParserRegistry, corpus) -> int:
    recovered = 0
    for document in corpus.disengagement_documents:
        try:
            parser = registry.resolve(document.lines)
        except Exception:
            continue
        report = parser.parse(document.lines, document.document_id)
        recovered += len(report.disengagements)
    return recovered


def test_ablation_parsers(benchmark, exhibit_dir):
    corpus = generate_corpus(SEED)
    truth = len(corpus.truth_disengagements())

    bespoke = ParserRegistry()
    for parser in all_parsers():
        bespoke.register(parser)

    generic = ParserRegistry()
    for name in {d.manufacturer for d in
                 corpus.disengagement_documents}:
        generic.register(GenericParser(name))

    bespoke_recovered = _parse_with(bespoke, corpus)
    generic_recovered = _parse_with(generic, corpus)

    report = "\n".join([
        "Ablation: per-manufacturer parsers vs generic parser "
        "(clean text)",
        f"  bespoke parsers: {bespoke_recovered}/{truth} "
        f"({100 * bespoke_recovered / truth:.2f}%)",
        f"  generic parser:  {generic_recovered}/{truth} "
        f"({100 * generic_recovered / truth:.2f}%)",
    ])
    write_exhibit(exhibit_dir, "ablation_parsers", report)

    assert bespoke_recovered == truth  # clean text: lossless
    # The generic format only overlaps the pipe-separated reports
    # (Bosch); the bespoke parsers recover the majority the generic
    # one cannot.
    assert generic_recovered < 0.6 * truth

    benchmark(_parse_with, bespoke, corpus)
