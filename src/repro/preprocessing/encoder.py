"""The tuple encoder: from relational tuples to binary network inputs.

:class:`TupleEncoder` composes the per-attribute encoders
(:class:`~repro.preprocessing.thermometer.ThermometerEncoder`,
:class:`~repro.preprocessing.thermometer.OrdinalThermometerEncoder`,
:class:`~repro.preprocessing.onehot.OneHotEncoder`) into a single mapping
from tuples to fixed-width 0/1 vectors, and keeps the
:class:`~repro.preprocessing.features.InputFeature` descriptors needed to
translate extracted rules back to attribute conditions.  A batch is encoded
column by column (:meth:`TupleEncoder.transform_matrix`): a
:class:`~repro.data.dataset.Dataset` hands over its stored column arrays,
so no per-record dict is built, and a plain list of record mappings is
read one attribute at a time.

Two constructors matter in practice:

* :func:`agrawal_encoder` reproduces the exact 86-input coding of Table 2 of
  the paper;
* :func:`default_encoder` builds a sensible coding for an arbitrary schema
  (used by the public :class:`~repro.core.neurorule.NeuroRuleClassifier` when
  the caller does not provide a coding of their own).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.data.agrawal import agrawal_schema
from repro.data.dataset import Dataset, Record
from repro.data.schema import (
    CategoricalAttribute,
    ContinuousAttribute,
    Schema,
)
from repro.exceptions import EncodingError
from repro.preprocessing.discretization import (
    Discretizer,
    EqualWidthDiscretizer,
    ExplicitCutsDiscretizer,
)
from repro.preprocessing.features import InputFeature
from repro.preprocessing.onehot import OneHotEncoder
from repro.preprocessing.thermometer import OrdinalThermometerEncoder, ThermometerEncoder

AttributeEncoder = Union[ThermometerEncoder, OrdinalThermometerEncoder, OneHotEncoder]


class TupleEncoder:
    """Composite binary encoder for whole records.

    Parameters
    ----------
    schema:
        The schema whose attributes are encoded, in schema order.
    encoders:
        Mapping from attribute name to its per-attribute encoder.  Every
        schema attribute must have exactly one encoder.
    """

    def __init__(self, schema: Schema, encoders: Mapping[str, AttributeEncoder]) -> None:
        missing = [a.name for a in schema.attributes if a.name not in encoders]
        if missing:
            raise EncodingError(f"no encoder supplied for attributes: {missing}")
        unknown = [name for name in encoders if name not in schema]
        if unknown:
            raise EncodingError(f"encoders supplied for unknown attributes: {unknown}")
        self.schema = schema
        self.encoders: Dict[str, AttributeEncoder] = {
            a.name: encoders[a.name] for a in schema.attributes
        }
        self.features: List[InputFeature] = []
        self._group_slices: Dict[str, slice] = {}
        start = 0
        for attribute in schema.attributes:
            encoder = self.encoders[attribute.name]
            width = encoder.width
            self.features.extend(encoder.features(start))
            self._group_slices[attribute.name] = slice(start, start + width)
            start += width
        self.n_inputs = start
        self._by_name = {f.name: f for f in self.features}

    # -- encoding -----------------------------------------------------------

    def encode_record(self, record: Record) -> np.ndarray:
        """Encode one record into a 0/1 vector of length ``n_inputs``."""
        out = np.zeros(self.n_inputs, dtype=float)
        for attribute in self.schema.attributes:
            encoder = self.encoders[attribute.name]
            if attribute.name not in record:
                raise EncodingError(f"record missing attribute {attribute.name!r}")
            out[self._group_slices[attribute.name]] = encoder.encode_value(record[attribute.name])
        return out

    def transform_matrix(
        self, data: Union[Dataset, Sequence[Record]]
    ) -> np.ndarray:
        """Vectorised encoding of a whole batch into an ``(n, n_inputs)`` matrix.

        This is the single batch entry point of the inference pipeline: it
        accepts a :class:`~repro.data.dataset.Dataset`, whose stored column
        arrays feed the per-attribute encoders directly, or a plain sequence
        of records, and encodes column by column using the cached column
        layout (``group_slice`` per attribute plus each per-attribute
        encoder's precomputed threshold/position tables), never touching
        records one at a time.
        """
        if isinstance(data, Dataset) and (
            data.schema.attribute_names != self.schema.attribute_names
        ):
            raise EncodingError(
                "dataset schema does not match the encoder schema: "
                f"{data.schema.attribute_names} vs {self.schema.attribute_names}"
            )
        out = np.zeros((len(data), self.n_inputs), dtype=float)
        if not len(data):
            return out
        for attribute in self.schema.attributes:
            if isinstance(data, Dataset):
                column = data.column(attribute.name)
            else:
                try:
                    column = [r[attribute.name] for r in data]
                except KeyError as exc:
                    raise EncodingError(
                        f"record missing attribute {attribute.name!r}"
                    ) from exc
            out[:, self._group_slices[attribute.name]] = self.encoders[
                attribute.name
            ].encode_column(column)
        return out

    def encode_dataset(self, dataset: Dataset) -> np.ndarray:
        """Encode every record of ``dataset`` into an ``(n, n_inputs)`` matrix."""
        return self.transform_matrix(dataset)

    def encode_records(self, records: Sequence[Record]) -> np.ndarray:
        """Encode a plain sequence of records."""
        return self.transform_matrix(list(records))

    # -- feature lookup -------------------------------------------------------

    def feature(self, index: int) -> InputFeature:
        """Feature descriptor for input ``index`` (0-based)."""
        if not (0 <= index < self.n_inputs):
            raise EncodingError(f"input index {index} out of range 0..{self.n_inputs - 1}")
        return self.features[index]

    def feature_by_name(self, name: str) -> InputFeature:
        """Feature descriptor for a paper-style input name such as ``"I13"``."""
        try:
            return self._by_name[name]
        except KeyError as exc:
            raise EncodingError(f"unknown input name {name!r}") from exc

    def group_slice(self, attribute: str) -> slice:
        """Column slice of the inputs derived from ``attribute``."""
        try:
            return self._group_slices[attribute]
        except KeyError as exc:
            raise EncodingError(f"unknown attribute {attribute!r}") from exc

    def input_names(self) -> List[str]:
        """All input names, ``I1`` .. ``In``, in order."""
        return [f.name for f in self.features]

    def describe(self) -> str:
        """Multi-line description of the coding (akin to Table 2)."""
        lines = ["input  attribute     meaning"]
        for feature in self.features:
            lines.append(
                f"{feature.name:<6} {feature.attribute:<13} {feature.describe_literal(1)}"
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Ready-made encoders
# ---------------------------------------------------------------------------

def agrawal_encoder(schema: Optional[Schema] = None) -> TupleEncoder:
    """The exact 86-input coding of Table 2 of the paper.

    ======================  ============  =================================
    Attribute               Inputs        Coding
    ======================  ============  =================================
    salary                  I1 – I6       thermometer, cuts every 25 000
    commission              I7 – I13      thermometer, cuts every 10 000
    age                     I14 – I19     thermometer, cuts every 10 years
    elevel                  I20 – I23     ordinal thermometer (5 levels)
    car                     I24 – I43     one-hot (20 makes)
    zipcode                 I44 – I52     one-hot (9 codes)
    hvalue                  I53 – I66     thermometer, cuts every 100 000
    hyears                  I67 – I76     thermometer, cuts every 3 years
    loan                    I77 – I86     thermometer, cuts every 50 000
    ======================  ============  =================================

    The constant bias input the paper appends as the 87th input is *not* part
    of the encoder; the network adds it itself (see
    :class:`repro.nn.network.ThreeLayerNetwork`).
    """
    schema = schema or agrawal_schema()

    def continuous(name: str) -> ContinuousAttribute:
        attribute = schema.attribute(name)
        assert isinstance(attribute, ContinuousAttribute)
        return attribute

    def categorical(name: str) -> CategoricalAttribute:
        attribute = schema.attribute(name)
        assert isinstance(attribute, CategoricalAttribute)
        return attribute

    encoders: Dict[str, AttributeEncoder] = {
        "salary": ThermometerEncoder(
            continuous("salary"),
            ExplicitCutsDiscretizer([25_000, 50_000, 75_000, 100_000, 125_000]).partition(
                continuous("salary")
            ),
        ),
        "commission": ThermometerEncoder(
            continuous("commission"),
            # The commission partition covers [10 000, 75 000]; zero commission
            # falls below every threshold and is coded as all zeros, exactly as
            # described in Section 2.3.
            ExplicitCutsDiscretizer([20_000, 30_000, 40_000, 50_000, 60_000, 70_000]).partition(
                ContinuousAttribute("commission", 10_000.0, 75_000.0)
            ),
        ),
        "age": ThermometerEncoder(
            continuous("age"),
            ExplicitCutsDiscretizer([30, 40, 50, 60, 70]).partition(continuous("age")),
        ),
        "elevel": OrdinalThermometerEncoder(categorical("elevel")),
        "car": OneHotEncoder(categorical("car")),
        "zipcode": OneHotEncoder(categorical("zipcode")),
        "hvalue": ThermometerEncoder(
            continuous("hvalue"),
            ExplicitCutsDiscretizer([100_000 * i for i in range(1, 14)]).partition(
                continuous("hvalue")
            ),
        ),
        "hyears": ThermometerEncoder(
            continuous("hyears"),
            ExplicitCutsDiscretizer([1 + 3 * i for i in range(1, 10)]).partition(
                continuous("hyears")
            ),
        ),
        "loan": ThermometerEncoder(
            continuous("loan"),
            ExplicitCutsDiscretizer([50_000 * i for i in range(1, 10)]).partition(
                continuous("loan")
            ),
        ),
    }
    return TupleEncoder(schema, encoders)


def default_encoder(
    schema: Schema,
    dataset: Optional[Dataset] = None,
    discretizer: Optional[Discretizer] = None,
    n_subintervals: int = 5,
) -> TupleEncoder:
    """Build a reasonable binary coding for an arbitrary schema.

    Continuous attributes get equal-width thermometer coding with
    ``n_subintervals`` sub-intervals (or the supplied ``discretizer``);
    ordered categorical attributes get ordinal thermometer coding; unordered
    categorical attributes get one-hot coding.  Binary 0/1 attributes are
    treated as ordered so they map to a single input.
    """
    discretizer = discretizer or EqualWidthDiscretizer(n_subintervals=n_subintervals)
    encoders: Dict[str, AttributeEncoder] = {}
    for attribute in schema.attributes:
        if isinstance(attribute, ContinuousAttribute):
            values = None
            if dataset is not None:
                values = [float(r[attribute.name]) for r in dataset.records]
            partition = discretizer.partition(attribute, values)
            encoders[attribute.name] = ThermometerEncoder(attribute, partition)
        else:
            ordered = attribute.ordered or attribute.values in ((0, 1), ("0", "1"))
            if ordered:
                normalised = (
                    attribute
                    if attribute.ordered
                    else CategoricalAttribute(attribute.name, attribute.values, ordered=True)
                )
                encoders[attribute.name] = OrdinalThermometerEncoder(normalised)
            else:
                encoders[attribute.name] = OneHotEncoder(attribute)
    return TupleEncoder(schema, encoders)
