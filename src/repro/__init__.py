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

from repro._lazy import lazy_exports

#: Exported name -> the module that defines it.  Names resolve on first
#: access (PEP 562), so ``import repro.serve`` or ``repro lint`` loads
#: only what it uses instead of every subsystem.
_EXPORTS = {
    "ClasswiseCondenser": "repro.core",
    "CondensedModel": "repro.core",
    "DynamicCondenser": "repro.core",
    "DynamicGroupMaintainer": "repro.core",
    "GroupStatistics": "repro.core",
    "StaticCondenser": "repro.core",
    "create_condensed_groups": "repro.core",
    "generate_anonymized_data": "repro.core",
    "split_group_statistics": "repro.core",
    "condense_sharded": "repro.parallel",
    "covariance_compatibility": "repro.metrics",
    "linkage_attack": "repro.privacy",
    "privacy_report": "repro.privacy",
}

__version__ = "1.20.0"

__all__ = [*_EXPORTS, "__version__"]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
