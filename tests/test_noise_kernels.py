"""The Gumbel and uniform noise kernels against their earlier forms.

The kernels read the step law's cached ``logs`` view (log-probabilities and
the log of the row's total) in place of taking logs of the row on every
call. The forms they replaced are kept below as references, and on every
row kind the sampling path meets (random rows with zeros, point rows,
T = 0.5, top-k, top-p) the new kernels must give the same noise and the
same picks bit for bit, from the same ``random()`` calls in the same order.
"""

from __future__ import annotations

import math
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfgen.dist import DistTable, argmax, draw
from cfgen.generators import _fresh_gumbel, _gumbel_given, _uniform_given
from cfgen.tokenlm import SamplingParams, ToyLM, Vocab

_REF_FLOOR = 1e-300
_REF_CEIL = 1.0 - 1e-16
MAX_RANDOM = 1 - 2**-53  # the largest value random() returns: (2**53 - 1) / 2**53


# The forms below ran with the builtin ``sum``, which added left to right
# before Python 3.12; ``ref_sum`` keeps that on every version.


def ref_sum(values):
    acc = 0
    for v in values:
        acc += v
    return acc


def ref_argmax(probs, gumbels):
    best, best_score = -1, -math.inf
    for i, p in enumerate(probs):
        if p <= 0.0:
            continue
        score = math.log(p) + gumbels[i]
        if score > best_score:
            best, best_score = i, score
    return best


def ref_std_gumbel(u):
    u = min(max(u, _REF_FLOOR), _REF_CEIL)
    return -math.log(-math.log(u))


def ref_gumbel_given(probs, obs, rng):
    top = ref_std_gumbel(rng.random()) + math.log(ref_sum(probs))
    noise = []
    for i, p in enumerate(probs):
        if i == obs:
            noise.append(top - math.log(p))
        elif p <= 0.0:
            noise.append(ref_std_gumbel(rng.random()))
        else:
            u = min(max(rng.random(), _REF_FLOOR), _REF_CEIL)
            log_p = math.log(p)
            perturbed = log_p - math.log(math.exp(log_p - top) - math.log(u))
            if perturbed >= top:
                perturbed = top - 1e-12
            noise.append(perturbed - log_p)
    return tuple(noise)


def ref_uniform_given(probs, obs, rng):
    width = probs[obs]
    lo = ref_sum(p for p in probs[:obs] if p > 0.0)
    u = lo + rng.random() * width
    if u >= lo + width:
        u = math.nextafter(lo + width, lo)
    return u


class Scripted:
    """A generator that returns a fixed stream and counts what it hands out."""

    def __init__(self, values):
        self.values, self.calls = list(values), 0

    def random(self):
        u = self.values[self.calls % len(self.values)]
        self.calls += 1
        return u


def bits(values):
    return [v.hex() for v in values]


def step_law(weights, params):
    """The step law of a one-position model whose only row has ``weights``."""
    tokens = tuple(f"t{i}" for i in range(len(weights)))
    total = ref_sum(weights)
    row = DistTable({t: w / total for t, w in zip(tokens, weights)})
    return ToyLM(Vocab(tokens), 1, "table", table={(): row}).step_law(params)


PARAMS = (
    SamplingParams(),
    SamplingParams(temperature=0.5),
    SamplingParams(temperature=0.0),
    SamplingParams(top_k=2),
    SamplingParams(top_p=0.7),
    SamplingParams(temperature=2.0, top_k=3, top_p=0.9),
)

# every value random() can return is a multiple of 2**-53 in [0, 1)
uniforms = st.integers(0, 2**53 - 1).map(lambda n: n * 2**-53)


def check_kernels(probs, view, stream):
    """The new kernels and picks against the references, for every observed
    token of one row, on one scripted stream."""
    size = len(probs)
    a, b = Scripted(stream), Scripted(stream)
    fresh = _fresh_gumbel(b, size)
    assert bits(fresh) == bits(ref_std_gumbel(a.random()) for _ in range(size))
    assert argmax(view[0], fresh) == ref_argmax(probs, fresh)
    for obs in range(size):
        if probs[obs] <= 0.0:
            # zero probability: no noise, and no draw made
            assert _gumbel_given(view, obs, b) is None
            assert _uniform_given(probs, obs, b) is None
            continue
        want, got = ref_gumbel_given(probs, obs, a), _gumbel_given(view, obs, b)
        assert bits(got) == bits(want)
        assert argmax(view[0], got) == ref_argmax(probs, want) == obs
        want_u, got_u = ref_uniform_given(probs, obs, a), _uniform_given(probs, obs, b)
        assert got_u.hex() == want_u.hex()
        assert draw(probs, got_u) == obs
        assert a.calls == b.calls


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    weights=st.lists(st.integers(0, 4), min_size=1, max_size=7).filter(any),
    params=st.sampled_from(PARAMS),
    stream=st.lists(st.one_of(st.sampled_from([0.0, MAX_RANDOM]), uniforms), min_size=1),
)
@example(weights=[0, 3, 0], params=PARAMS[0], stream=[0.0, MAX_RANDOM, 0.5])
def test_kernels_match_their_references(weights, params, stream):
    law = step_law(weights, params)
    check_kernels(law.row(()), law.logs(()), stream)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(weights=st.lists(st.integers(0, 4), min_size=2, max_size=9).filter(any))
def test_kernels_match_their_references_over_many_seeds(weights):
    for params in PARAMS:
        law = step_law(weights, params)
        probs, view = law.row(()), law.logs(())
        for seed in range(25):
            rng = random.Random(seed)
            check_kernels(probs, view, [rng.random() for _ in range(4 * len(probs) ** 2)])


def test_logs_view_of_a_row():
    law = step_law([1, 0, 3], SamplingParams())
    probs = law.row(())
    logs, log_total = law.logs(())
    assert logs == (math.log(0.25), -math.inf, math.log(0.75))
    assert log_total == math.log(ref_sum(probs))
    assert law.logs(()) is law.logs(())


def test_contexts_with_empty_share_the_point_view():
    law = step_law([1, 1], SamplingParams())
    assert law.logs((0,)) is law.logs((1, 0)) == ((0.0, -math.inf), 0.0)
    assert law._logs.keys() == {(0,)}
    assert law._rows == {}


def test_largest_uniform_is_below_the_old_ceiling_clamp():
    # the removed upper clamp min(u, 1 - 1e-16) never changed a random() value
    assert float(1 - 1e-16) == 1 - 2**-53 == MAX_RANDOM
    assert (2**53 - 1) * 2**-53 == MAX_RANDOM
    assert bits([-math.log(-math.log(MAX_RANDOM))]) == bits([ref_std_gumbel(MAX_RANDOM)])
