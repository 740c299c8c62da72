"""Pedagogical extractor: a C4.5rules surrogate fitted to the network.

The classic TREPAN/surrogate idea: ignore the network's internals entirely
and fit a symbolic learner to its *predictions*.  The training records are
relabelled with the network's outputs and the existing
:class:`~repro.baselines.c45.rules.C45Rules` generator — tree induction,
pessimistic pruning, rule generalisation, subset selection — produces an
ordered attribute rule list that mimics the network rather than the raw data.

Because the surrogate learns attribute-level conditions directly, no
binary→attribute translation step is needed; its rule set is immediately
servable and SQL-able.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.baselines.c45.rules import C45Rules, C45RulesConfig
from repro.data.dataset import Dataset, codes_from_labels
from repro.extractors.base import BaseExtractor
from repro.extractors.registry import register_extractor
from repro.nn.network import ThreeLayerNetwork
from repro.preprocessing.encoder import TupleEncoder
from repro.rules.ruleset import RuleSet


@register_extractor
class C45SurrogateExtractor(BaseExtractor):
    """Fit C4.5rules to the network's predictions instead of the labels."""

    name = "c45-surrogate"

    def __init__(self, config: Optional[C45RulesConfig] = None) -> None:
        self.config = config or C45RulesConfig()

    def params(self) -> Dict:
        return {"c45rules": asdict(self.config)}

    def _extract_ruleset(
        self,
        network: ThreeLayerNetwork,
        dataset: Dataset,
        encoded: np.ndarray,
        network_labels: np.ndarray,
        class_labels: List[str],
        encoder: Optional[TupleEncoder],
    ) -> Tuple[RuleSet, Optional[object]]:
        # The oracle dataset: the same columns (and record dicts, if built),
        # labelled with the network's predictions.
        oracle = dataset.with_label_codes(
            codes_from_labels(network_labels, class_labels), class_labels
        )
        surrogate = C45Rules(self.config).fit(oracle)
        ruleset = surrogate.ruleset
        ruleset.name = "C4.5 surrogate"
        return ruleset, None
