"""repro — condensation-based privacy preserving data mining.

A full reproduction of Aggarwal & Yu, *A Condensation Approach to
Privacy Preserving Data Mining*: condense a data set into groups of at
least ``k`` records, retain only per-group first/second-order sums, and
regenerate anonymized records that preserve inter-attribute
correlations — so existing mining algorithms run on the output
unchanged.

Quickstart
----------
>>> import numpy as np
>>> from repro import StaticCondenser
>>> data = np.random.default_rng(0).normal(size=(300, 5))
>>> anonymized = StaticCondenser(k=20, random_state=0).fit_generate(data)
>>> anonymized.shape
(300, 5)

Package map
-----------
* :mod:`repro.core` — the paper's algorithms (Figs. 1-4, §2.1).
* :mod:`repro.parallel` — sharded parallel condensation with a
  worker-count-independent determinism contract.
* :mod:`repro.datasets` — UCI statistical twins and generators.
* :mod:`repro.neighbors`, :mod:`repro.mining` — from-scratch mining
  algorithms that consume the anonymized output.
* :mod:`repro.baselines` — the Agrawal-Srikant perturbation approach.
* :mod:`repro.privacy` — indistinguishability accounting and attacks.
* :mod:`repro.evaluation` — the paper's experimental protocol (§4).
"""

from repro.core import (
    ClasswiseCondenser,
    CondensedModel,
    DynamicCondenser,
    DynamicGroupMaintainer,
    GroupStatistics,
    StaticCondenser,
    create_condensed_groups,
    generate_anonymized_data,
    split_group_statistics,
)
from repro.metrics import covariance_compatibility
from repro.parallel import condense_sharded
from repro.privacy import linkage_attack, privacy_report

__version__ = "1.18.0"

__all__ = [
    "ClasswiseCondenser",
    "CondensedModel",
    "DynamicCondenser",
    "DynamicGroupMaintainer",
    "GroupStatistics",
    "StaticCondenser",
    "create_condensed_groups",
    "generate_anonymized_data",
    "split_group_statistics",
    "condense_sharded",
    "covariance_compatibility",
    "linkage_attack",
    "privacy_report",
    "__version__",
]
