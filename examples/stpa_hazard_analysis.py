"""STPA hazard analysis: overlay the tagged failure data onto the
Fig. 3 hierarchical control structure.

Walks the control structure, localizes every disengagement to a
component and an unsafe-control-action kind, and reports which control
loop absorbs the failures — the analysis behind the paper's case
studies.

Usage::

    python examples/stpa_hazard_analysis.py
"""

from repro.api import PipelineConfig, run_pipeline
from repro.stpa.control_loops import CONTROL_LOOPS
from repro.stpa.hazards import causal_factor_for_tag
from repro.stpa.mapping import overlay_failures
from repro.stpa.structure import build_control_structure
from repro.taxonomy import FaultTag


def main() -> None:
    structure = build_control_structure()
    print("Control structure components:")
    for component in structure.components():
        print(f"  {component.name:20s} [{component.kind}] "
              f"{component.description[:55]}")

    print("\nControl loops (Fig. 3):")
    for loop in CONTROL_LOOPS.values():
        print(f"  {loop.name}: {' -> '.join(loop.nodes)}")
        print(f"      {loop.description}")

    print("\nTag localization (Table III -> Fig. 3):")
    for tag in FaultTag:
        factor = causal_factor_for_tag(tag)
        if factor is None:
            continue
        print(f"  {tag.display_name:28s} -> {factor.component:18s} "
              f"({factor.uca})")

    print("\nRunning the pipeline and overlaying failures...")
    result = run_pipeline(PipelineConfig(seed=2018))
    overlay = overlay_failures(result.database.disengagements)

    print(f"\n{overlay.total} disengagements overlaid "
          f"({overlay.unlocalized} unlocalized / Unknown-T):")
    localized = overlay.total - overlay.unlocalized
    for component, count in overlay.by_component.most_common():
        print(f"  {component:20s} {count:5d}  "
              f"({count / localized:.1%})")

    print("\nBy unsafe-control-action kind:")
    for uca, count in overlay.by_uca.most_common():
        print(f"  {str(uca):55s} {count:5d}")

    print("\nFailures per control loop:")
    for name, count in overlay.loop_counts().items():
        print(f"  {name}: {count}")

    dominant = overlay.dominant_component()
    print(f"\nDominant failure site: {dominant} — consistent with the "
          "paper's finding that perception faults drive "
          "disengagements.")


if __name__ == "__main__":
    main()
