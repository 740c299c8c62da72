"""Property tests: the chunk fabric is bit-identical to the scalar reference.

The whole refactor rests on these equivalences: whatever route tuples take
through the fabric — sequential chunks, zero-copy slices, label-code arrays —
the values must match the scalar reference paths bit for bit.  Generation is
checked per seed against one-shot :meth:`AgrawalGenerator.generate`; labels
are checked per benchmark function (all ten) against the scalar labeller
applied record by record.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.agrawal import AgrawalGenerator
from repro.data.chunks import concat_chunks
from repro.data.functions import FUNCTIONS, label_batch

N = 1_200
CHUNK = 256


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    function=st.integers(min_value=1, max_value=10),
)
def test_sequential_chunks_bit_identical_to_generate(seed, function):
    """Per seed: chunked generation reproduces one-shot generation exactly."""
    chunks = list(
        AgrawalGenerator(function=function, perturbation=0.05, seed=seed).iter_chunks(
            N, chunk_size=CHUNK
        )
    )
    reference = AgrawalGenerator(
        function=function, perturbation=0.05, seed=seed
    ).generate(N)
    merged = concat_chunks(chunks)
    for name in reference.schema.attribute_names:
        column = merged.column(name)
        assert column.dtype == reference.column(name).dtype
        assert np.array_equal(column, reference.column(name))
    assert merged.labels == reference.labels


@pytest.mark.parametrize("function", range(1, 11))
def test_chunk_labels_match_scalar_labeller(function):
    """Per function 1-10: chunk label codes decode to the scalar labels."""
    generator = AgrawalGenerator(function=function, perturbation=0.0, seed=function)
    labeller = FUNCTIONS[function]
    for chunk in generator.iter_chunks(N, chunk_size=CHUNK):
        scalar = [labeller(record) for record in chunk.records]
        assert chunk.label_array().tolist() == scalar
        batch = label_batch(function, chunk.columns)
        assert batch.tolist() == scalar


@pytest.mark.parametrize("function", range(1, 11))
def test_slices_preserve_labels(function):
    """Zero-copy slicing never detaches codes from their rows."""
    generator = AgrawalGenerator(function=function, perturbation=0.05, seed=3)
    chunk = next(generator.iter_chunks(N, chunk_size=N))
    window = chunk.subset(slice(100, 900))
    assert window.labels == chunk.labels[100:900]
    rejoined = concat_chunks([chunk.subset(slice(i, i + 97)) for i in range(0, N, 97)])
    assert rejoined.labels == chunk.labels
