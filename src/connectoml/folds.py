"""Stratified fold assignment and deterministic seed derivation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class FoldAssignment:
    """Train/test index split for one fold."""

    fold: int
    train_indices: np.ndarray
    test_indices: np.ndarray


def derive_seed(master_seed: int, *stream: int) -> int:
    """Mix a master seed with stream identifiers into a new 32-bit seed.

    The fixed mixing function is numpy's ``SeedSequence``, keyed on the
    ordered tuple ``(master_seed, *stream)``, so derived streams are
    reproducible and independent of scheduling.
    """
    words = [int(master_seed), *(int(s) for s in stream)]
    return int(np.random.SeedSequence(words).generate_state(1)[0])


def check_fold_minimum(k: int) -> None:
    """``ValidationError`` unless k >= 2: the fold check that needs no
    labels."""
    if k < 2:
        raise ValidationError("k must be at least 2")


def stratified_kfold(labels, k: int, seed: int) -> list[FoldAssignment]:
    """Partition subjects into k disjoint folds preserving class balance.

    Each class, in ascending label order, draws one seeded permutation of
    its indices, and fold f tests the sorted union of every
    ``permutation[f::k]``: the permutations are dealt round-robin, so
    per-fold class counts differ by at most one from perfect
    stratification. Fold f trains on every other index, ascending. Both
    index arrays are int64.

    Raises ``ValidationError`` unless k >= 2 and every class has at least
    k members; the lowest short class is named.
    """
    labels = np.asarray(labels)
    check_fold_minimum(k)
    classes, counts = np.unique(labels, return_counts=True)
    for cls, count in zip(classes, counts):
        if count < k:
            raise ValidationError(
                f"class {int(cls)} has {int(count)} members,"
                f" fewer than k={k} folds"
            )
    rng = np.random.default_rng(seed)
    dealt = [
        rng.permutation(np.flatnonzero(labels == cls)) for cls in classes
    ]
    everything = np.arange(labels.size, dtype=np.int64)
    folds = []
    for fold_index in range(k):
        test_indices = np.sort(
            np.concatenate([order[fold_index::k] for order in dealt])
        ).astype(np.int64)
        folds.append(
            FoldAssignment(
                fold=fold_index,
                train_indices=np.delete(everything, test_indices),
                test_indices=test_indices,
            )
        )
    return folds
