"""Pipeline configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ..ocr.fallback import DEFAULT_CONFIDENCE_THRESHOLD
from ..ocr.scanner import ScannerProfile
from ..rng import DEFAULT_SEED
from .chaos import ChaosConfig, CrashPoint
from .resilience import POLICY_MODES, FailurePolicy

@dataclass
class PipelineConfig:
    """Knobs for one end-to-end pipeline run.

    The defaults reproduce the paper's setup; the switches exist for
    the ablation benches (OCR channel off, correction off, seed-only
    dictionary, generic parser).
    """

    #: Seed for corpus synthesis and the OCR channel.
    seed: int = DEFAULT_SEED
    #: Restrict to a subset of manufacturers (None = all of Table I).
    manufacturers: list[str] | None = None
    #: Scan-quality regime.
    scanner_profile: ScannerProfile = field(default_factory=ScannerProfile)
    #: Disable the OCR noise channel entirely (documents pass through
    #: clean) — ablation only.
    ocr_enabled: bool = True
    #: Disable the post-OCR correction pass — ablation only.
    correction_enabled: bool = True
    #: Mean page confidence below which a page is manually transcribed.
    fallback_threshold: float = DEFAULT_CONFIDENCE_THRESHOLD
    #: "expanded" builds the failure dictionary from the corpus (the
    #: paper's multi-pass construction); "seed" uses only the
    #: hand-curated seeds.
    dictionary_mode: str = "expanded"
    #: Drop planned-test disengagements instead of annotating them.
    drop_planned: bool = False
    #: Attach ground-truth tags to parsed records for evaluation.
    attach_truth: bool = True
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
    #: Master switch: ``False`` ignores ``checkpoint_dir`` without
    #: having to clear it (the CLI's ``--no-checkpoint``).
    checkpoint_enabled: bool = True
    #: Optional kill-point injection: die hard at a named pipeline
    #: boundary (crash-recovery testing only).
    crash: CrashPoint | None = None
    #: Fan Stage II-III out across a pool of this many worker
    #: processes (0 = serial: the same chunks run in-process; any
    #: count produces byte-identical output).
    workers: int = 0
    #: Units per dispatched chunk in the parallel fan-out.  ``None``
    #: resolves per stage to ``ceil(n_units / (workers * 4))``,
    #: clamped (see :func:`~repro.pipeline.parallel.resolve_batch_size`);
    #: output is byte-identical at any size.  Like ``workers``, it
    #: picks an execution strategy, never an output, so it is excluded
    #: from the checkpoint config fingerprint — a run journaled
    #: unbatched resumes under batching and vice versa.
    batch_size: int | None = None
    #: Record hierarchical spans (run → stage → unit) for this run.
    #: Off by default; tracing never alters pipeline output bytes.
    trace_enabled: bool = False
    #: Where the JSONL trace is published (``trace.jsonl`` inside).
    #: Setting a directory implies tracing, mirroring
    #: ``checkpoint_dir``; ``trace_enabled`` alone writes under the
    #: working directory.
    trace_dir: str | Path | None = None
    #: Collect run metrics (stage durations, unit/retry/quarantine
    #: counters, cache hit rates) into the process-global
    #: :func:`repro.obs.default_registry`.  Off by default.
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
        if not 0.0 <= self.fallback_threshold <= 1.0:
            raise ValueError(
                f"fallback_threshold {self.fallback_threshold} "
                "outside [0, 1]")
        if self.resume and self.checkpoint_dir is None:
            raise ValueError(
                "resume=True requires a checkpoint_dir to resume from")
        if self.workers < 0:
            raise ValueError(
                f"workers must be >= 0, got {self.workers}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError(
                f"batch_size must be >= 1, got {self.batch_size}")

    @property
    def checkpointing_active(self) -> bool:
        """Whether this run journals (and may restore) checkpoints."""
        return self.checkpoint_dir is not None and self.checkpoint_enabled

    @property
    def tracing_active(self) -> bool:
        """Whether this run records spans (flag or directory set).

        Like ``workers``, the observability knobs are excluded from
        the checkpoint config fingerprint: they observe the run, they
        never shape a unit's output, so a traced run may resume an
        untraced checkpoint (and vice versa).
        """
        return self.trace_enabled or self.trace_dir is not None

    @property
    def trace_path(self) -> Path | None:
        """The JSONL trace file this run writes (None when inactive)."""
        if not self.tracing_active:
            return None
        return Path(self.trace_dir or ".") / "trace.jsonl"

    def resolved_parallelism(self) -> tuple[int, str]:
        """``(worker count, executor mode)`` for this run.

        ``workers=0`` resolves to ``(0, "serial")`` (chunks run
        in-process), any other count to an N-process pool.  The worker
        count is deliberately excluded from the checkpoint
        :func:`~repro.pipeline.checkpoint.config_fingerprint`: it
        chooses an execution strategy, never an output, so a run
        crashed under 4 workers may resume serially (or vice versa)
        and still reproduce the uninterrupted database byte for byte.
        """
        if self.workers <= 0:
            return 0, "serial"
        return self.workers, "process"

    def resolved_policy(self) -> FailurePolicy:
        """The :class:`FailurePolicy` these knobs describe."""
        return FailurePolicy(
            mode=self.failure_policy,
            max_error_rate=self.max_error_rate,
            max_retries=self.max_retries)
