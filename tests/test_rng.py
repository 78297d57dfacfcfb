import copy
import itertools
import pickle

import numpy as np
import pytest

from optbench.core import Rng
from optbench.core.noise import AdditiveNoise
from optbench.core.rng import BLOCK_VALUES, Cursor, chunk_uses, random_of


def test_same_seed_same_stream():
    a, b = Rng(42), Rng(42)
    assert np.array_equal(a.gaussian(10), b.gaussian(10))
    assert np.array_equal(a.uniform(size=5), b.uniform(size=5))
    assert np.array_equal(a.sphere(4), b.sphere(4))


def test_generator_is_built_on_first_use_with_the_seed_stream():
    rng, twin = Rng((5, 2)), np.random.Generator(np.random.PCG64(np.random.SeedSequence((5, 2))))
    child = rng.spawn(1)
    built = ["_gen" in vars(r) for r in (rng, child)]
    assert built == [False, False]  # spawning draws nothing
    assert rng.state == twin.bit_generator.state
    assert isinstance(vars(rng)["_gen"], np.random.Generator)  # the first use put the generator in place
    assert rng.gaussian(4).tobytes() == twin.standard_normal(4).tobytes()
    fresh = Rng((5, 2))
    fresh.state = rng.state  # assigning a state builds the generator too
    assert fresh.gaussian(3).tobytes() == rng.gaussian(3).tobytes()


def test_copies_of_an_unbuilt_rng_build_nothing_and_each_draw_the_seed_stream():
    rng = Rng(7)
    copies = [copy.copy(rng), pickle.loads(pickle.dumps(rng))]
    assert ["_gen" in vars(r) for r in (rng, *copies)] == [False, False, False]
    view = object.__new__(Rng)  # a view that takes the attributes of an unbuilt Rng, as a timing wrapper does
    view.__dict__.update(rng.__dict__)
    stream = _twin(7).standard_normal(6).tobytes()
    assert [r.gaussian(6).tobytes() for r in (view, rng, *copies)] == [stream] * 4
    built = object.__new__(Rng)  # a view of a built Rng shares its generator, so its state
    built.__dict__.update(rng.__dict__)
    assert built.gaussian(2).tobytes() + rng.gaussian(2).tobytes() == _twin(7).standard_normal(10)[6:].tobytes()


@pytest.mark.parametrize("seed", [-1, (3, -2)])
def test_negative_seed_is_refused_at_construction(seed):
    with pytest.raises(ValueError, match="non-negative"):
        Rng(seed)


def test_spawn_deterministic_and_distinct():
    a = Rng(1).spawn(3)
    b = Rng(1).spawn(3)
    c = Rng(1).spawn(4)
    assert np.array_equal(a.gaussian(8), b.gaussian(8))
    assert not np.array_equal(Rng(1).spawn(3).gaussian(8), c.gaussian(8))


def test_sphere_unit_norm():
    rng = Rng(0)
    for _ in range(200):
        e = rng.sphere(6)
        assert abs(np.linalg.norm(e) - 1.0) <= 1e-12


def test_sphere_isotropy():
    # sample covariance of uniform sphere points is I/d within 5%
    d, n = 5, 100_000
    rng = Rng(123)
    samples = np.stack([rng.sphere(d) for _ in range(n)])
    cov = samples.T @ samples / n
    for i in range(d):
        assert abs(cov[i, i] - 1.0 / d) <= 0.05 / d
        for j in range(i + 1, d):
            assert abs(cov[i, j]) <= 0.05 / d


def _twin(seed):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed,))))


def test_scalar_uniform_matches_generator_uniform():
    rng, twin = Rng(7), _twin(7)
    got = [rng.uniform() for _ in range(2000)]
    want = [twin.uniform(-1.0, 1.0) for _ in range(2000)]
    for low, high in [(0.001, 1.0), (-3.5, 250.0), (2.0, 40.0), (-0.2, 0.2)]:
        got += [rng.uniform(low, high) for _ in range(2000)]
        want += [twin.uniform(low, high) for _ in range(2000)]
    assert np.array(got).tobytes() == np.array(want).tobytes()


def test_random_of_raw_words_has_the_bits_of_random_on_the_same_stream():
    words_gen, random_gen = _twin(11), _twin(11)
    words = np.array([words_gen.bit_generator.random_raw() for _ in range(5000)], dtype=np.uint64)
    want = np.array([random_gen.random() for _ in range(5000)])
    assert random_of(words).tobytes() == want.tobytes()
    assert words_gen.bit_generator.state == random_gen.bit_generator.state  # one word per random() call
    edges = np.array([0, 2 ** 11 - 1, 2 ** 11, 2 ** 63, 2 ** 64 - 1], dtype=np.uint64)
    assert random_of(edges).tolist() == [0.0, 0.0, 2.0 ** -53, 0.5, 1.0 - 2.0 ** -53]


@pytest.mark.parametrize("d", [1, 2, 3, 50])
def test_sphere_matches_normalized_generator_gaussian(d):
    rng, twin = Rng(11), _twin(11)
    for _ in range(500):
        v = twin.standard_normal(d)
        assert rng.sphere(d).tobytes() == (v / np.linalg.norm(v)).tobytes()


@pytest.mark.parametrize("d", [0, -1])
def test_sphere_refuses_d_below_1_before_any_draw(d):
    rng = Rng(4)
    for form in (rng.sphere, rng.spheres):
        with pytest.raises(ValueError, match="d >= 1"):
            form(d)
    assert rng.gaussian(3).tobytes() == Rng(4).gaussian(3).tobytes()


class TinyRow:
    """Generator view that scales the ``row``-th d-vector of the normal stream (from 0) to a norm below 1e-12.

    Rows are counted in values drawn, so the row is the same whether the
    stream is drawn d values a call (``Rng.sphere``) or in blocks.
    """

    def __init__(self, gen, d, row):
        self.gen, self.lo, self.hi, self.drawn = gen, row * d, (row + 1) * d, 0

    def standard_normal(self, size=None):
        out = self.gen.standard_normal(size)
        flat, start = out.reshape(-1), self.drawn
        self.drawn += flat.size
        flat[max(self.lo - start, 0):max(self.hi - start, 0)] *= 1e-14
        return out

    def __getattr__(self, name):
        return getattr(self.gen, name)


@pytest.mark.parametrize("tiny", ["none", "first-block", "later-block"])
@pytest.mark.parametrize("d", [1, 2, 3, 50])
def test_spheres_give_the_bits_of_successive_sphere_calls(d, tiny):
    n = chunk_uses(BLOCK_VALUES, d)  # rows per block
    row = {"none": -1, "first-block": 1, "later-block": n + 2}[tiny]
    ref, rng = Rng(9), Rng(9)
    ref._gen, rng._gen = TinyRow(_twin(9), d, row), TinyRow(_twin(9), d, row)
    k = 2 * n + 3  # three blocks' worth of points, the last block only partly taken
    points = rng.spheres(d)
    for _ in range(k):
        assert next(points).tobytes() == ref.sphere(d).tobytes()
    rows_taken = k + (row >= 0)  # sphere redrew the tiny row; spheres skipped it
    assert ref._gen.drawn == rows_taken * d and rng._gen.drawn == 3 * n * d
    ref.gaussian(rng._gen.drawn - ref._gen.drawn)  # the blocks ran ahead by the rest of the last block
    assert rng.gaussian(4).tobytes() == ref.gaussian(4).tobytes()


def test_uniform_keeps_generator_argument_checks():
    rng = Rng(3)
    with pytest.raises(OverflowError):
        rng.uniform(0.0, float("inf"))
    with pytest.raises(ValueError):
        rng.uniform(1.0, -1.0)
    assert rng.uniform(np.zeros(3), 1.0).shape == (3,)  # array bounds broadcast


@pytest.mark.parametrize("n, width", [(0, 3), (1, 1), (37, 5)])
def test_raw_samples_have_the_bits_of_a_loop_of_raw_words_and_normal_fills(n, width):
    gen, raw, words = _twin(13), np.empty((n, width)), []
    for row in raw:
        words.append(gen.bit_generator.random_raw())
        gen.standard_normal(out=row)
    rng = Rng(13)
    got_words, got_raw = rng.raw_samples(n, width)
    assert got_words.dtype == np.uint64 and got_words.tolist() == words
    assert got_raw.tobytes() == raw.tobytes()
    assert rng.state == gen.bit_generator.state


def _noise_fill(distribution, shape):
    """``(fill, use)``: ``AdditiveNoise.rows`` as a cursor's fill, and one call of its entry."""
    noise = AdditiveNoise(lambda x: 0.0, 0.7, shape, distribution)
    entry = noise.entry()
    return (lambda rng: lambda n: noise.rows(rng, n)), (lambda rng: entry(None, rng))


CURSOR_FILLS = {f"{dist}{shape}": _noise_fill(dist, shape)
                for dist, shape in itertools.product(("gaussian", "student_t3"), ((), (3,)))}
CURSOR_FILLS["raw_samples"] = (lambda rng: lambda n: rng.raw_samples(n, 4)), (lambda rng: rng.raw_samples(1, 4))


@pytest.mark.parametrize("keeps", [(0,), (5,), (12,), (9, 4), (12, 12), (7, 7)], ids=str)
@pytest.mark.parametrize("fill", list(CURSOR_FILLS))
def test_cursor_keep_leaves_the_stream_where_separate_uses_leave_it(fill, keeps):
    make_fill, use = CURSOR_FILLS[fill]
    rng, ref = Rng(21), Rng(21)
    for r in (rng, ref):
        r.gaussian(2)  # a chunk that does not start the stream
    fills, inner = [], make_fill(rng)

    def counted(n):
        fills.append(n)
        return inner(n)

    cursor = Cursor(rng, counted)
    cursor.take(12)
    for k in keeps:
        cursor.keep(k)
    # a keep redraws only when it keeps fewer uses than the chunk holds; the whole chunk is kept as drawn
    assert fills == [12] + [k for k, held in zip(keeps, (12, *keeps)) if k < held]
    for _ in range(keeps[-1]):
        use(ref)
    assert rng.state == ref.state
    assert rng.gaussian(4).tobytes() == ref.gaussian(4).tobytes()


@pytest.mark.parametrize("fill", list(CURSOR_FILLS))
def test_cursor_chunks_and_keeps_in_turn_give_the_uses_in_order(fill):
    make_fill, use = CURSOR_FILLS[fill]
    rng, ref = Rng(8), Rng(8)
    cursor = Cursor(rng, make_fill(rng))
    taken = []
    for size, kept in ((6, 6), (5, 2), (4, 0), (3, 3), (7, 1)):
        chunk = cursor.take(size)
        taken += list(chunk[1] if fill == "raw_samples" else chunk)[:kept]
        cursor.keep(kept)
    uses = [use(ref) for _ in range(12)]
    want = [u[1][0] for u in uses] if fill == "raw_samples" else uses
    assert np.array(taken).tobytes() == np.array(want).tobytes()
    assert rng.gaussian(4).tobytes() == ref.gaussian(4).tobytes()
