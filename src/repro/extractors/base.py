"""The ``Extractor`` protocol: one interface over every rule-extraction strategy.

The paper's pipeline hard-wires a single *decompositional* extractor
(algorithm RX: cluster hidden activations, enumerate, substitute).  The
extractor zoo generalises that to a family of strategies behind one protocol,
PSyKE-style:

* **decompositional** extractors open the network up (``neurorule``);
* **pedagogical** extractors treat the trained network as a labelling oracle
  and learn rules from its input/output behaviour (``c45-surrogate``,
  ``covering``).

Every extractor consumes the same inputs — a trained (usually pruned)
:class:`~repro.nn.network.ThreeLayerNetwork`, the training
:class:`~repro.data.dataset.Dataset` and the
:class:`~repro.preprocessing.encoder.TupleEncoder` that binarises tuples for
the network — and emits the same :class:`ExtractorResult` around a plain
:class:`~repro.rules.ruleset.RuleSet`.  Because the rule set is the one
declarative interchange form of the whole system, everything downstream
(the NumPy rule compiler, the serving registry, the SQL pushdown
classifier) consumes any extractor's output unchanged.

:class:`BaseExtractor` implements the shared plumbing — input validation,
encoding, oracle labelling, fidelity/accuracy measurement, timing — so a
concrete extractor only implements :meth:`BaseExtractor._extract_ruleset`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.data.dataset import Dataset
from repro.exceptions import ExtractionError
from repro.nn.network import ThreeLayerNetwork
from repro.preprocessing.encoder import TupleEncoder
from repro.rules.ruleset import RuleSet

try:  # Protocol is 3.8+; keep the import explicit for clarity.
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover - unreachable on supported versions
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls


@runtime_checkable
class Extractor(Protocol):
    """What every rule-extraction strategy speaks.

    ``name`` identifies the strategy (the registry key and the artifact
    metadata value); :meth:`params` reports the configuration that produced a
    rule set (persisted next to the rules so cached artifacts are
    self-describing); :meth:`extract` runs the strategy.
    """

    name: str

    def params(self) -> Dict:
        """The strategy's configuration as plain JSON-ready data."""
        ...

    def extract(
        self,
        network: ThreeLayerNetwork,
        dataset: Dataset,
        encoder: Optional[TupleEncoder] = None,
    ) -> "ExtractorResult":
        """Extract a rule set describing ``network`` on ``dataset``."""
        ...


@dataclass
class ExtractorResult:
    """What every extractor returns: a rule set plus uniform quality metrics.

    ``ruleset`` is the final deliverable — attribute-level rules when an
    encoder was available (the servable/SQL-able form), binary-input rules
    otherwise.  ``fidelity`` and ``training_accuracy`` are measured the same
    way for every extractor (agreement of the *final* rule set with the
    network / the true labels on the training data), so comparison tables
    compare like with like.  ``details`` carries strategy-specific artifacts
    (for ``neurorule`` the full RX :class:`~repro.core.extraction.ExtractionResult`
    with clustering and tabulation).
    """

    ruleset: RuleSet
    extractor: str
    params: Dict = field(default_factory=dict)
    default_class: str = ""
    fidelity: float = 0.0
    training_accuracy: float = 0.0
    seconds: float = 0.0
    details: Optional[object] = field(default=None, repr=False)

    @property
    def n_rules(self) -> int:
        return self.ruleset.n_rules

    def __repr__(self) -> str:
        return (
            f"ExtractorResult({self.extractor!r}, rules={self.n_rules}, "
            f"fidelity={self.fidelity:.3f}, accuracy={self.training_accuracy:.3f}, "
            f"seconds={self.seconds:.2f})"
        )


class BaseExtractor:
    """Shared harness: validate, encode, consult the oracle, measure, time.

    Subclasses set :attr:`name` and implement :meth:`_extract_ruleset`; the
    public :meth:`extract` wraps it with the uniform bookkeeping so every
    strategy's result is measured identically.
    """

    name: str = "base"

    # -- subclass surface ---------------------------------------------------

    def params(self) -> Dict:
        """Configuration payload persisted with extracted artifacts."""
        return {}

    def _extract_ruleset(
        self,
        network: ThreeLayerNetwork,
        dataset: Dataset,
        encoded: np.ndarray,
        network_labels: np.ndarray,
        class_labels: List[str],
        encoder: Optional[TupleEncoder],
    ) -> Tuple[RuleSet, Optional[object]]:
        """Produce ``(ruleset, details)``; implemented by each strategy."""
        raise NotImplementedError

    # -- the uniform harness ------------------------------------------------

    def extract(
        self,
        network: ThreeLayerNetwork,
        dataset: Dataset,
        encoder: Optional[TupleEncoder] = None,
    ) -> ExtractorResult:
        """Run the strategy and measure its output uniformly.

        The training inputs are encoded once; the network's predictions on
        them are the oracle labels every pedagogical strategy learns from and
        the reference every strategy's fidelity is measured against.
        """
        if len(dataset) == 0:
            raise ExtractionError(
                f"extractor {self.name!r} cannot run on an empty dataset"
            )
        class_labels = list(dataset.schema.classes)
        if len(class_labels) != network.n_outputs:
            raise ExtractionError(
                f"dataset has {len(class_labels)} classes but the network has "
                f"{network.n_outputs} outputs"
            )
        if encoder is not None and encoder.n_inputs != network.n_inputs:
            raise ExtractionError(
                f"encoder produces {encoder.n_inputs} inputs but the network "
                f"has {network.n_inputs}"
            )
        # The span is the stopwatch: ExtractorResult.seconds (and through it
        # `extractors compare`'s extraction_seconds) is the same measurement
        # a --trace dump shows as extractor.extract.
        with obs.trace(
            "extractor.extract", extractor=self.name, rows=len(dataset)
        ) as span:
            encoded = self._encode(dataset, encoder, network)
            network_labels = np.asarray(
                [class_labels[int(i)] for i in network.predict_indices(encoded)],
                dtype=object,
            )
            ruleset, details = self._extract_ruleset(
                network, dataset, encoded, network_labels, class_labels, encoder
            )
        seconds = span.seconds

        rule_labels = self._rule_labels(ruleset, dataset, encoded, encoder)
        truth = np.asarray(dataset.labels, dtype=object)
        return ExtractorResult(
            ruleset=ruleset,
            extractor=self.name,
            params=self.params(),
            default_class=ruleset.default_class,
            fidelity=float(np.mean(rule_labels == network_labels)),
            training_accuracy=float(np.mean(rule_labels == truth)),
            seconds=seconds,
            details=details,
        )

    # -- helpers ------------------------------------------------------------

    @staticmethod
    def _encode(
        dataset: Dataset,
        encoder: Optional[TupleEncoder],
        network: ThreeLayerNetwork,
    ) -> np.ndarray:
        if encoder is not None:
            return encoder.encode_dataset(dataset)
        raise ExtractionError(
            "rule extraction needs the tuple encoder the network was trained "
            "with; pass encoder="
        )

    @staticmethod
    def _rule_labels(
        ruleset: RuleSet,
        dataset: Dataset,
        encoded: np.ndarray,
        encoder: Optional[TupleEncoder],
    ) -> np.ndarray:
        """The final rule set's labels on the training data.

        Attribute rule sets evaluate on the records; binary rule sets on the
        encoded matrix — both through the compiled batch path.
        """
        if ruleset.rules and ruleset.is_binary:
            return ruleset.predict_batch(encoded, encoder=encoder)
        return ruleset.predict_batch(dataset)
