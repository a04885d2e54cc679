"""Pipeline configuration."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..rng import DEFAULT_SEED
from .chaos import ChaosConfig, CrashPoint
from .resilience import POLICY_MODES, FailurePolicy

@dataclass
class PipelineConfig:
    """Knobs for one end-to-end pipeline run.

    The defaults reproduce the paper's setup: one scanner profile, the
    0.75 manual-transcription threshold, and ground-truth tags attached
    so every run scores its tagger.  The switches exist for the
    ablation benches (OCR channel off, correction off, seed-only
    dictionary, planned tests dropped).  Every field is part of the
    checkpoint config fingerprint unless it is named in
    :data:`~repro.pipeline.checkpoint.NOT_FINGERPRINTED`.
    """

    #: Seed for corpus synthesis and the OCR channel.
    seed: int = DEFAULT_SEED
    #: Restrict to a subset of manufacturers (None = all of Table I).
    manufacturers: list[str] | None = None
    #: Disable the OCR noise channel entirely (documents pass through
    #: clean) — ablation only.
    ocr_enabled: bool = True
    #: Disable the post-OCR correction pass — ablation only.
    correction_enabled: bool = True
    #: "expanded" builds the failure dictionary from the corpus (the
    #: paper's multi-pass construction); "seed" uses only the
    #: hand-curated seeds.
    dictionary_mode: str = "expanded"
    #: Drop planned-test disengagements instead of annotating them.
    drop_planned: bool = False
    #: How the run reacts to unexpected per-unit failures
    #: (``fail_fast`` / ``quarantine`` / ``threshold``).
    failure_policy: str = "quarantine"
    #: ``threshold`` mode: abort once a stage's error rate exceeds
    #: this fraction.
    max_error_rate: float = 0.1
    #: Bounded retries for transient stage faults.
    max_retries: int = 2
    #: Optional pipeline-level fault injection (testing/chaos runs).
    chaos: ChaosConfig | None = None
    #: Checkpoint directory for crash-safe incremental progress
    #: (None disables checkpointing entirely).
    checkpoint_dir: str | Path | None = None
    #: Resume from ``checkpoint_dir``: restore completed units and
    #: stage artifacts instead of recomputing them.
    resume: bool = False
    #: Optional kill-point injection: die hard at a named pipeline
    #: boundary (crash-recovery testing only).
    crash: CrashPoint | None = None
    #: Record hierarchical spans (run → stage → unit) into
    #: ``trace.jsonl`` inside this directory (None disables tracing,
    #: mirroring ``checkpoint_dir``).  Tracing never alters pipeline
    #: output bytes.
    trace_dir: str | Path | None = None
    #: Render the finished run's metrics (stage durations,
    #: unit/retry/quarantine counters, cache hit rates) from its
    #: diagnostics and fold them into the process-global
    #: :func:`repro.obs.metrics.default_registry`.  Off by default.
    metrics_enabled: bool = False

    def __post_init__(self) -> None:
        if self.dictionary_mode not in ("seed", "expanded"):
            raise ValueError(
                f"dictionary_mode must be 'seed' or 'expanded', got "
                f"{self.dictionary_mode!r}")
        if self.failure_policy not in POLICY_MODES:
            raise ValueError(
                f"failure_policy must be one of {POLICY_MODES}, got "
                f"{self.failure_policy!r}")
        if not 0.0 <= self.max_error_rate <= 1.0:
            raise ValueError(
                f"max_error_rate {self.max_error_rate} outside [0, 1]")
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}")
        if self.resume and self.checkpoint_dir is None:
            raise ValueError(
                "resume=True requires a checkpoint_dir to resume from")

    @property
    def checkpointing_active(self) -> bool:
        """Whether this run journals (and may restore) checkpoints."""
        return self.checkpoint_dir is not None

    @property
    def tracing_active(self) -> bool:
        """Whether this run records spans (a trace directory is set)."""
        return self.trace_dir is not None

    @property
    def trace_path(self) -> Path | None:
        """The JSONL trace file this run writes (None when inactive)."""
        if not self.tracing_active:
            return None
        return Path(self.trace_dir) / "trace.jsonl"

    def resolved_policy(self) -> FailurePolicy:
        """The :class:`FailurePolicy` these knobs describe."""
        return FailurePolicy(
            mode=self.failure_policy,
            max_error_rate=self.max_error_rate,
            max_retries=self.max_retries)
