"""Labeled cohort: subjects, diagnostic labels, per-measure feature matrices."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .connectome import MEASURES
from .errors import ValidationError

LABEL_HC = 0
LABEL_MCI = 1

LABEL_NAMES = {LABEL_HC: "HC", LABEL_MCI: "MCI"}
LABEL_CODES = {"HC": LABEL_HC, "MCI": LABEL_MCI}


@dataclass(frozen=True)
class LabeledCohort:
    """Subjects with labels (0 = HC, 1 = MCI) and one feature matrix per measure.

    The feature keys must be exactly the three measures, with identical row
    counts and identical column counts (the single-measure models share one
    input width, and fusion concatenates equal-width blocks); row i of every
    matrix belongs to ``subject_ids[i]``.
    """

    subject_ids: tuple
    labels: np.ndarray
    features: dict

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "subject_ids", tuple(self.subject_ids))
        n = len(self.subject_ids)
        if labels.shape != (n,):
            raise ValidationError("labels must match the number of subjects")
        if not np.all((labels == LABEL_HC) | (labels == LABEL_MCI)):
            raise ValidationError("labels must be binary (0 = HC, 1 = MCI)")
        if len(set(self.subject_ids)) != n:
            raise ValidationError("duplicate subject id in cohort")
        unknown = [key for key in self.features if key not in MEASURES]
        if unknown:
            raise ValidationError(f"unknown feature keys in cohort: {unknown}")
        missing = [m for m in MEASURES if m not in self.features]
        if missing:
            raise ValidationError(f"cohort is missing measures: {missing}")
        features = {}
        for measure in MEASURES:
            matrix = np.asarray(self.features[measure], dtype=np.float64)
            if matrix.ndim != 2 or matrix.shape[0] != n:
                raise ValidationError(
                    f"feature matrix for {measure!r} must have one row per"
                    f" subject (got shape {matrix.shape} for {n} subjects)"
                )
            features[measure] = matrix
        widths = {m: features[m].shape[1] for m in MEASURES}
        if len(set(widths.values())) != 1:
            raise ValidationError(
                f"feature matrices must have the same number of columns for"
                f" every measure (got {widths})"
            )
        object.__setattr__(self, "features", features)

    @property
    def size(self) -> int:
        return len(self.subject_ids)

    def class_counts(self) -> dict:
        return {
            "HC": int(np.sum(self.labels == LABEL_HC)),
            "MCI": int(np.sum(self.labels == LABEL_MCI)),
        }

    def subset(self, indices) -> "LabeledCohort":
        """New cohort containing the given rows, in the given order."""
        indices = np.asarray(indices, dtype=np.int64)
        return LabeledCohort(
            subject_ids=tuple(self.subject_ids[i] for i in indices),
            labels=self.labels[indices],
            features={m: self.features[m][indices] for m in MEASURES},
        )

    def fused(self) -> np.ndarray:
        """All three feature matrices concatenated columnwise, canonical order."""
        return np.hstack([self.features[m] for m in MEASURES])
