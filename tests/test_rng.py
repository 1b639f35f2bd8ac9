import numpy as np
import pytest

from crossbt.rng import substream, substream_state

# Seeds of 2**64 and above and negative seeds reach the key masked to 64 bits.
SEEDS = [0, 7, 2**63 + 11, 2**64 - 1, 2**64, 2**64 + 5, 2**70 + 3, -1, -12345]
INDICES = [0, 1, 2**63, 2**64 - 1]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("index", INDICES)
def test_rekeyed_generator_resumes_the_substream(seed, index):
    # Consecutive permutations of one stream, with a draw from another
    # stream in between and the state read back and restored around it, as
    # a candidate's restarts are drawn in a block.
    bits = np.random.Philox(0)
    shuffle = np.random.Generator(bits)
    bits.state = substream_state(seed, index)
    drawn = [shuffle.permutation(37)]
    stopped = bits.state
    bits.state = substream_state(seed + 1, index + 1)
    shuffle.permutation(37)
    bits.state = stopped
    drawn += [shuffle.permutation(37), shuffle.permutation(37)]
    reference = substream(seed, index)
    for got in drawn:
        assert np.array_equal(got, reference.permutation(37))
