"""Validity checking for condensed models.

A condensed model may arrive from outside the process — a JSON file, a
network payload — and a malformed or tampered one can poison everything
downstream (generation, coarsening, privacy accounting).  This module
checks the structural invariants the rest of the library assumes and
reports every violation found.
"""

from __future__ import annotations

import numpy as np

from repro.core.statistics import CondensedModel, stacked_covariances

#: Groups whose covariance eigenvalues :func:`validate_model` computes in
#: one stacked ``eigvalsh`` call; bounds the stack's memory.
_VALIDATION_BLOCK = 256


def validate_model(
    model: CondensedModel, strict: bool = False
) -> list[str]:
    """Check a condensed model's structural invariants.

    Parameters
    ----------
    model:
        The model to check.
    strict:
        When true, raise ``ValueError`` listing the problems instead of
        returning them.

    Returns
    -------
    list of str
        Human-readable descriptions of every violation (empty when the
        model is valid):

        * non-finite entries in any group's sums;
        * non-positive group counts;
        * a group below the model's declared ``k``;
        * an implied covariance with significantly negative eigenvalues
          (beyond raw-sum round-off);
        * second-order diagonal entries smaller than allowed by the
          Cauchy-Schwarz bound ``Sc_jj >= Fs_j^2 / n``.
    """
    # Per-group problem lists keep the report in group order although
    # the eigenvalue check runs per block, after the scalar checks.
    found: list[list[str]] = []
    decomposed = []
    for index, group in enumerate(model.groups):
        prefix = f"group {index}"
        group_problems: list[str] = []
        found.append(group_problems)
        if group.count <= 0:
            group_problems.append(
                f"{prefix}: non-positive count {group.count}"
            )
            continue
        if not np.isfinite(group.first_order).all():
            group_problems.append(f"{prefix}: non-finite first-order sums")
            continue
        if not np.isfinite(group.second_order).all():
            group_problems.append(f"{prefix}: non-finite second-order sums")
            continue
        if group.count < model.k:
            group_problems.append(
                f"{prefix}: size {group.count} below the declared "
                f"k={model.k}"
            )
        # Cauchy-Schwarz on each attribute: n * Sc_jj >= Fs_j^2.
        lower_bound = group.first_order**2 / group.count
        diagonal = np.diag(group.second_order)
        scale = np.abs(diagonal).max() + 1.0
        violation = lower_bound - diagonal
        if (violation > 1e-6 * scale).any():
            worst = int(np.argmax(violation))
            group_problems.append(
                f"{prefix}: second-order diagonal below the "
                f"Cauchy-Schwarz bound at attribute {worst}"
            )
            continue
        decomposed.append(index)
    for start in range(0, len(decomposed), _VALIDATION_BLOCK):
        block = decomposed[start:start + _VALIDATION_BLOCK]
        eigenvalues = np.linalg.eigvalsh(
            stacked_covariances([model.groups[index] for index in block])
        )
        for index, values in zip(block, eigenvalues):
            eigen_scale = max(abs(float(values[-1])), 1.0)
            if values[0] < -1e-6 * eigen_scale:
                found[index].append(
                    f"group {index}: covariance has significantly "
                    f"negative eigenvalue {values[0]:.3e}"
                )
    problems = [problem for group_problems in found
                for problem in group_problems]
    if strict and problems:
        raise ValueError(
            "invalid condensed model: " + "; ".join(problems)
        )
    return problems
