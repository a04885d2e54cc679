"""STPA-derived failure ontology (Table III).

A thin object wrapper over :mod:`repro.taxonomy` that the pipeline and
reporting layers use: tags, their categories, the Table IV ML/Design
subcategory split, and the human-readable definitions.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import OntologyError
from ..taxonomy import (
    ML_SUBCATEGORY,
    TAG_CATEGORY,
    TAG_DEFINITIONS,
    FailureCategory,
    FaultTag,
)


@dataclass(frozen=True)
class Ontology:
    """The fault-tag / failure-category ontology of the study."""

    def tags(self) -> list[FaultTag]:
        """All fault tags, in Table III order."""
        return list(FaultTag)

    def categories(self) -> list[FailureCategory]:
        """All coarse failure categories."""
        return list(FailureCategory)

    def category(self, tag: FaultTag) -> FailureCategory:
        """Coarse category of ``tag``."""
        try:
            return TAG_CATEGORY[tag]
        except KeyError:
            raise OntologyError(f"tag {tag!r} not in ontology") from None

    def definition(self, tag: FaultTag) -> str:
        """Human-readable Table III definition of ``tag``."""
        try:
            return TAG_DEFINITIONS[tag]
        except KeyError:
            raise OntologyError(f"tag {tag!r} has no definition") from None

    def tags_in(self, category: FailureCategory) -> list[FaultTag]:
        """All tags whose coarse category is ``category``."""
        return [tag for tag in FaultTag
                if TAG_CATEGORY[tag] is category]

    def validate(self) -> None:
        """Check internal consistency (every tag categorized/defined)."""
        for tag in FaultTag:
            if tag not in TAG_CATEGORY:
                raise OntologyError(f"tag {tag} lacks a category")
            if tag not in TAG_DEFINITIONS:
                raise OntologyError(f"tag {tag} lacks a definition")
        for tag, subcategory in ML_SUBCATEGORY.items():
            if TAG_CATEGORY[tag] is not FailureCategory.ML_DESIGN:
                raise OntologyError(
                    f"{tag} has ML subcategory {subcategory} but is "
                    f"categorized {TAG_CATEGORY[tag]}")
