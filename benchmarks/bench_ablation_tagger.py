"""Ablation: expanded (corpus-built) dictionary vs. seed-only dictionary.

Quantifies what the paper's multi-pass dictionary construction buys
over the Table III seed phrases alone, both under its voting scheme
("based on the maximum number of shared keywords").
"""

from repro.nlp import FailureDictionary, VotingTagger, evaluate_tagger

from conftest import write_exhibit


def test_ablation_expanded_vs_seed_dictionary(benchmark, db, exhibit_dir):
    records = [r for r in db.disengagements if r.truth_tag is not None]
    texts = [r.description for r in records]
    expanded = FailureDictionary.build(texts)
    seeds = FailureDictionary.from_seeds()

    voting = evaluate_tagger(VotingTagger(expanded), records)
    voting_seed = evaluate_tagger(VotingTagger(seeds), records)

    report = "\n".join([
        "Ablation: tagging dictionary (tag accuracy / category accuracy)",
        f"  voting + expanded dictionary: {voting.tag_accuracy:.4f} / "
        f"{voting.category_accuracy:.4f}",
        f"  voting + seed dictionary:     {voting_seed.tag_accuracy:.4f}"
        f" / {voting_seed.category_accuracy:.4f}",
    ])
    write_exhibit(exhibit_dir, "ablation_tagger", report)

    # The ranking the design choice predicts.
    assert voting.tag_accuracy >= voting_seed.tag_accuracy
    assert voting.tag_accuracy > 0.97

    # Time the production configuration.
    tagger = VotingTagger(expanded)
    sample = texts[:500]

    def tag_sample():
        return [tagger.tag(t).tag for t in sample]

    benchmark(tag_sample)
