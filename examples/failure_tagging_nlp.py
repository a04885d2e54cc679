"""NLP failure tagging: build the failure dictionary, tag logs, and
inspect where the tagger disagrees with ground truth.

Also shows tagging *your own* log lines through the public API.

Usage::

    python examples/failure_tagging_nlp.py
"""

from repro.api import PipelineConfig, run_pipeline
from repro.nlp.dictionary import FailureDictionary
from repro.nlp.evaluation import evaluate_tagger, per_manufacturer_accuracy
from repro.nlp.tagger import VotingTagger

CUSTOM_LOGS = [
    "Software module froze. As a result driver safely disengaged "
    "and resumed manual control.",
    "The AV didn't see the lead vehicle, driver safely disengaged.",
    "Disengage for a recklessly behaving road user",
    "Takeover-Request — watchdog error",
    "LIDAR failed to localize in time near the off-ramp",
    "Planner failed to anticipate the other driver's behavior",
    "Driver took over, no further detail recorded",
]


def main() -> None:
    result = run_pipeline(PipelineConfig(seed=2018))
    db = result.database
    records = [r for r in db.disengagements
               if r.truth_tag is not None]

    print("Building the failure dictionary from the corpus...")
    dictionary = FailureDictionary.build(
        [r.description for r in records])
    seeds = sum(1 for e in dictionary.entries if e.source == "seed")
    learned = len(dictionary) - seeds
    print(f"  {len(dictionary)} entries ({seeds} seed phrases, "
          f"{learned} learned by co-occurrence)")

    tagger = VotingTagger(dictionary)
    report = evaluate_tagger(tagger, records)
    print(f"  tag accuracy {report.tag_accuracy:.2%}, category "
          f"accuracy {report.category_accuracy:.2%} over "
          f"{report.total} records")

    print("\nTop confusions (truth -> predicted):")
    for (truth, predicted), count in report.top_confusions(5):
        print(f"  {truth.display_name:28s} -> "
              f"{predicted.display_name:28s} x{count}")

    print("\nPer-manufacturer accuracy:")
    for name, accuracy in per_manufacturer_accuracy(
            tagger, records).items():
        print(f"  {name:15s} {accuracy:.2%}")

    print("\nTagging custom log lines:")
    for text in CUSTOM_LOGS:
        tagged = tagger.tag(text)
        marker = "" if tagged.confident else "  (low confidence)"
        print(f"  [{tagged.tag.display_name:28s} | "
              f"{tagged.category}] {text[:60]}{marker}")


if __name__ == "__main__":
    main()
