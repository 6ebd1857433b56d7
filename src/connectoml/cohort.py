"""Labeled cohort: subjects, diagnostic labels, and their feature matrix.

A cohort keeps every subject's features in one read-only, C-contiguous
``(n_subjects, 3*d)`` float64 matrix, the three measures side by side in
:data:`~connectoml.connectome.MEASURES` order. ``features[m]`` is the
``(n_subjects, d)`` column block of measure ``m``, a view of that matrix,
and :meth:`LabeledCohort.fused` returns the matrix itself, with no copy.
:meth:`LabeledCohort.subset` gathers its rows once. :func:`measure_columns`
cuts the blocks out of any matrix so laid out. The loaders of
:mod:`connectoml.dataio` write the matrix in place and hand it over to the
constructor as it is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .connectome import MEASURES
from .errors import ValidationError

LABEL_HC = 0
LABEL_MCI = 1

LABEL_NAMES = {LABEL_HC: "HC", LABEL_MCI: "MCI"}
LABEL_CODES = {"HC": LABEL_HC, "MCI": LABEL_MCI}


def measure_columns(matrix: np.ndarray) -> dict:
    """Each measure's column block, a view, of an ``(n, 3*d)`` matrix laid
    out as a cohort's, keyed in measure order."""
    width = matrix.shape[1] // len(MEASURES)
    return {
        measure: matrix[:, i * width : (i + 1) * width]
        for i, measure in enumerate(MEASURES)
    }


def _checked_subjects(subject_ids, labels):
    """``(subject_ids, labels)`` as a tuple and int64 labels, checked."""
    subject_ids = tuple(subject_ids)
    labels = np.asarray(labels, dtype=np.int64)
    n = len(subject_ids)
    if labels.shape != (n,):
        raise ValidationError("labels must match the number of subjects")
    if not np.all((labels == LABEL_HC) | (labels == LABEL_MCI)):
        raise ValidationError("labels must be binary (0 = HC, 1 = MCI)")
    if len(set(subject_ids)) != n:
        raise ValidationError("duplicate subject id in cohort")
    return subject_ids, labels


@dataclass(frozen=True, eq=False, init=False)
class LabeledCohort:
    """Subjects with labels (0 = HC, 1 = MCI) and their feature matrix.

    ``matrix`` is ``(n_subjects, 3*d)``, laid out as the module docstring
    says; row i belongs to ``subject_ids[i]``. The cohort keeps a
    read-only view of it, not a copy (a copy only if it is not a
    C-contiguous float64 array); ``features`` holds the measures' column
    views.
    """

    subject_ids: tuple
    labels: np.ndarray
    features: dict

    def __init__(self, subject_ids, labels, matrix):
        subject_ids, labels = _checked_subjects(subject_ids, labels)
        matrix = np.ascontiguousarray(matrix, dtype=np.float64).view()
        n = len(subject_ids)
        if matrix.ndim != 2 or matrix.shape[0] != n:
            raise ValidationError(
                f"feature matrix must have one row per subject (got shape"
                f" {matrix.shape} for {n} subjects)"
            )
        if matrix.shape[1] % len(MEASURES):
            raise ValidationError(
                f"feature matrix must have the same number of columns for"
                f" every measure (got {matrix.shape[1]} columns for"
                f" {len(MEASURES)} measures)"
            )
        matrix.flags.writeable = False
        object.__setattr__(self, "subject_ids", subject_ids)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "features", measure_columns(matrix))
        object.__setattr__(self, "_matrix", matrix)

    @property
    def size(self) -> int:
        return len(self.subject_ids)

    def class_counts(self) -> dict:
        return {
            "HC": int(np.sum(self.labels == LABEL_HC)),
            "MCI": int(np.sum(self.labels == LABEL_MCI)),
        }

    def subset(self, indices) -> "LabeledCohort":
        """New cohort containing the given rows, in the given order; one
        gather of the matrix's rows."""
        indices = np.asarray(indices, dtype=np.int64)
        return LabeledCohort(
            tuple(self.subject_ids[i] for i in indices),
            self.labels[indices],
            self._matrix[indices],
        )

    def fused(self) -> np.ndarray:
        """All three feature matrices side by side, canonical order: the
        cohort's read-only matrix itself, not a copy."""
        return self._matrix
