import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chisquare

from anderson_lab.measures import (
    AtomReweight,
    BumpSchedule,
    CONDITION_MEAN,
    CONDITION_SUMMABLE,
    CONDITION_UNIFORM,
    ExplicitSites,
    FiniteAtoms,
    Identity,
    ParetoTail,
    PowersOfTwoSites,
    PotentialWindow,
    ProductLaw,
    RejectionCapError,
    UniformInterval,
    VERDICT_HOLDS,
    VERDICT_VIOLATED,
    DensitySequence,
    _categorical,
    condition_report,
    log_density_products,
    radon_nikodym_product,
    sample_window,
    sample_windows,
    sup_norm_log_partials,
)
from anderson_lab.rng import RngStream

BERNOULLI = FiniteAtoms(atoms=((-1.0, 0.5), (1.0, 0.5)))


# ---------------------------------------------------------------------------
# construction invariants
# ---------------------------------------------------------------------------

def test_atom_weights_must_sum_to_one():
    with pytest.raises(ValueError, match="sum to 1"):
        FiniteAtoms(atoms=((-1.0, 0.5), (1.0, 0.4)))


def test_atom_locations_must_be_distinct():
    with pytest.raises(ValueError, match="distinct"):
        FiniteAtoms(atoms=((1.0, 0.5), (1.0, 0.5)))


def test_single_atom_needs_explicit_escape_hatch():
    with pytest.raises(ValueError, match="two points"):
        FiniteAtoms(atoms=((5.0, 1.0),))
    trivial = FiniteAtoms(atoms=((5.0, 1.0),), allow_trivial=True)
    assert trivial.locations[0] == 5.0


def test_uniform_interval_orientation():
    with pytest.raises(ValueError):
        UniformInterval(lo=2.0, hi=1.0)


def test_pareto_moment_condition():
    with pytest.raises(ValueError, match="exceed alpha_moment"):
        ParetoTail(scale=1.0, exponent=1.0, alpha_moment=1.0)
    p = ParetoTail(scale=2.0, exponent=3.0, alpha_moment=1.0)
    # E|X|^a = b s^a / (b - a)
    assert p.abs_moment(1.0) == pytest.approx(3.0 * 2.0 / 2.0)
    assert p.abs_moment(3.0) == math.inf


def test_pareto_exact_zero_uniform_gives_a_finite_draw():
    class ZeroUniforms:
        def random(self, size):
            return np.zeros(size)

    for symmetric in (True, False):
        p = ParetoTail(scale=2.0, exponent=3.0, symmetric=symmetric)
        draws = p.sample(ZeroUniforms(), 5)
        assert np.all(np.isfinite(draws))
        assert np.all(np.abs(draws) == 2.0)


def test_exact_law_forces_identity_densities():
    seq = AtomReweight(BERNOULLI, {0: (0.75, 0.25)})
    with pytest.raises(ValueError, match="identity"):
        ProductLaw(BERNOULLI, seq, "exact")


def test_reweight_vectors_validated():
    with pytest.raises(ValueError, match="sum to 1"):
        AtomReweight(BERNOULLI, {0: (0.8, 0.1)})
    with pytest.raises(ValueError, match="length"):
        AtomReweight(BERNOULLI, {0: (1.0,)})


def test_window_shape_and_finiteness():
    with pytest.raises(ValueError):
        PotentialWindow(0, 2, np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        PotentialWindow(0, 0, np.array([np.inf]))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_window_stays_on_support():
    win = sample_window(ProductLaw.exact(BERNOULLI), 0, 3, RngStream(1))
    assert set(np.unique(win.values)) <= {-1.0, 1.0}
    assert len(win) == 4


def test_degenerate_reweight_pins_the_value():
    seq = AtomReweight(BERNOULLI, {n: (1.0, 0.0) for n in range(5)})
    law = ProductLaw.approximate(BERNOULLI, seq)
    win = sample_window(law, 0, 4, RngStream(2))
    assert np.all(win.values == -1.0)


def test_bernoulli_window_mean_is_clt_small():
    win = sample_window(ProductLaw.exact(BERNOULLI), 0, 10_000, RngStream(3))
    assert abs(np.mean(win.values)) <= 4.0 / math.sqrt(10_001)


def test_sampling_is_deterministic_in_the_stream():
    law = ProductLaw.exact(BERNOULLI)
    a = sample_window(law, -5, 5, RngStream(9, (1,)))
    b = sample_window(law, -5, 5, RngStream(9, (1,)))
    c = sample_window(law, -5, 5, RngStream(9, (2,)))
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_site_marginals_converge_to_reweighted_weights():
    beta = (0.75, 0.25)
    seq = AtomReweight(BERNOULLI, {0: beta})
    law = ProductLaw.approximate(BERNOULLI, seq)
    values = sample_windows(law, 0, 0, 100_000, RngStream(4))[:, 0]
    for loc, target in zip((-1.0, 1.0), beta):
        freq = np.mean(values == loc)
        assert abs(freq - target) <= 4.0 * math.sqrt(target * (1 - target) / 100_000)


def test_continuous_bump_rejection_sampling():
    base = UniformInterval(lo=0.0, hi=1.0)
    # tilted density 2x on [0, 1]: mass 1, sup 2
    seq = BumpSchedule(
        sites=ExplicitSites(frozenset({0})), base=base,
        density=lambda x: 2.0 * x, density_sup=2.0,
    )
    law = ProductLaw.approximate(base, seq)
    values = sample_windows(law, 0, 0, 50_000, RngStream(5))[:, 0]
    # E[X] under 2x dx is 2/3
    assert abs(np.mean(values) - 2.0 / 3.0) < 0.01


def test_bump_density_mass_is_checked():
    base = UniformInterval(lo=0.0, hi=1.0)
    with pytest.raises(ValueError, match="mass"):
        BumpSchedule(
            sites=ExplicitSites(frozenset({0})), base=base,
            density=lambda x: 3.0 * x, density_sup=3.0,
        )


def test_rejection_cap_names_the_site():
    # a misconfigured density (all mass on a sliver the proposals almost never
    # hit) must abort with the offending site, not loop forever
    from anderson_lab.measures import DensitySequence

    class Sliver(DensitySequence):
        def eval(self, n, values):
            return np.where(np.asarray(values) < 1e-9, 1e9, 0.0)

        def sup_norm(self, n):
            return 2.0  # declared far below the true peak

        def is_identity_at(self, n):
            return n != 7

        def perturbed_sites(self, lo, hi):
            return [7] if lo <= 7 <= hi else []

    base = UniformInterval(lo=0.0, hi=1.0)
    law = ProductLaw.approximate(base, Sliver())
    with pytest.raises(RejectionCapError, match="site 7"):
        sample_windows(law, 7, 7, 50, RngStream(6))


ONE_ATOM = FiniteAtoms(atoms=((2.5, 1.0),), allow_trivial=True)
THREE_ATOMS = FiniteAtoms(atoms=((-2.0, 0.2), (0.0, 0.3), (3.0, 0.5)))
FIVE_ATOMS = FiniteAtoms(
    atoms=((-2.0, 0.1), (-1.0, 0.2), (0.0, 0.3), (1.5, 0.15), (4.0, 0.25))
)


class _BumpTable(DensitySequence):
    """A sequence defined only by ``bump_at`` and ``perturbed_sites``."""

    def __init__(self, base, bumps):
        self.base, self.bumps = base, bumps

    def bump_at(self, n):
        return self.bumps.get(n)

    def perturbed_sites(self, lo, hi):
        return sorted(s for s in self.bumps if lo <= s <= hi)


def _doubling(x):
    return 2.0 * np.asarray(x)


@pytest.mark.parametrize(
    "shipped, table",
    [
        (
            AtomReweight(THREE_ATOMS, {-2: (0.5, 0.0, 0.5), 3: (0.1, 0.6, 0.3)}),
            _BumpTable(THREE_ATOMS, {-2: np.array([0.5, 0.0, 0.5]), 3: np.array([0.1, 0.6, 0.3])}),
        ),
        (
            BumpSchedule(sites=ExplicitSites(frozenset({-2, 3})), base=UniformInterval(0.0, 1.0),
                         density=_doubling, density_sup=2.0),
            _BumpTable(UniformInterval(0.0, 1.0), {-2: (_doubling, 2.0), 3: (_doubling, 2.0)}),
        ),
    ],
)
def test_a_sequence_defined_by_bump_at_answers_like_the_shipped_ones(shipped, table):
    law, law_table = (ProductLaw.approximate(shipped.base, seq) for seq in (shipped, table))
    wins = sample_windows(law, -4, 4, 3000, RngStream(61))
    assert np.array_equal(sample_windows(law_table, -4, 4, 3000, RngStream(61)), wins)
    assert table.perturbed_sites(-4, 4) == shipped.perturbed_sites(-4, 4) == [-2, 3]
    for n in range(-4, 5):
        assert table.is_identity_at(n) == shipped.is_identity_at(n) == (n not in (-2, 3))
        assert table.sup_norm(n) == shipped.sup_norm(n)
        assert table.log_sup_norm(n) == shipped.log_sup_norm(n)
        assert np.array_equal(table.eval(n, wins[:, n + 4]), shipped.eval(n, wins[:, n + 4]))
        got, want = table.atom_weights_at(n), shipped.atom_weights_at(n)
        assert (got is None) == (want is None) and (got is None or np.array_equal(got, want))
    assert shipped.sup_norm(3) == 2.0  # 0.6 / 0.3, or the declared density_sup
    assert np.array_equal(
        log_density_products(law_table, -4, wins), log_density_products(law, -4, wins)
    )
    win = sample_window(law, -4, 4, RngStream(62))
    assert radon_nikodym_product(law_table, win) == radon_nikodym_product(law, win)


def test_product_law_rejects_densities_on_another_base():
    plus_minus_two = FiniteAtoms(atoms=((-2.0, 0.5), (2.0, 0.5)))
    bump = BumpSchedule(sites=PowersOfTwoSites(), base=BERNOULLI, weights=(0.75, 0.25))
    for other in (plus_minus_two, THREE_ATOMS):
        with pytest.raises(ValueError, match="another base"):
            ProductLaw.approximate(other, bump)
    with pytest.raises(ValueError, match="another base"):
        ProductLaw.approximate(BERNOULLI, AtomReweight(THREE_ATOMS, {0: (0.2, 0.3, 0.5)}))
    # an equal base passes, and so do sequences that carry no base
    ProductLaw.approximate(FiniteAtoms(atoms=((-1.0, 0.5), (1.0, 0.5))), bump)
    ProductLaw.approximate(THREE_ATOMS, Identity())
    ProductLaw.exact(THREE_ATOMS)

    class NoBase(DensitySequence):
        def bump_at(self, n):
            return None

        def perturbed_sites(self, lo, hi):
            return []

    ProductLaw.approximate(plus_minus_two, NoBase())


# weights that keep the uniform path: no b in {1, 2, 4, 8} makes every cut
# point a multiple of 2**-b
ONE_THIRD = FiniteAtoms(atoms=((-1.0, 1 / 3), (1.0, 2 / 3)))
STEP_2_TO_MINUS_9 = FiniteAtoms(atoms=((-1.0, 1 / 512), (1.0, 511 / 512)))


def _code_bits(weights):
    """b of the byte-table path, read off the exact cut points; None on the
    uniform path."""
    cdf = np.cumsum(np.asarray(weights, dtype=float))
    cdf /= cdf[-1]
    denominators = [Fraction(float(c)).denominator for c in cdf[:-1]]
    return next((b for b in (1, 2, 4, 8) if all(2**b % d == 0 for d in denominators)), None)


def _reference_draws(rng, locations, weights, size):
    """The draw of _categorical on the path its weights pick, written plainly:
    on the table path, b-bit fields of raw words read in little-endian order,
    code c mapped to #{j < k - 1 : cdf[j] <= c / 2**b}; on the uniform path,
    rng.choice."""
    bits = _code_bits(weights)
    if bits is None:
        return locations[rng.choice(len(locations), size=size, p=weights)]
    cdf = np.cumsum(np.asarray(weights, dtype=float))
    cdf /= cdf[-1]
    words = rng.bit_generator.random_raw(-(-size * bits // 64))
    atom_of = [sum(1 for cut in cdf[:-1] if cut <= Fraction(c, 2**bits)) for c in range(2**bits)]
    atoms = [
        atom_of[(int(word) >> shift) & ((1 << bits) - 1)]
        for word in words
        for shift in range(0, 64, bits)
    ][:size]
    return np.asarray(locations, dtype=float)[np.array(atoms, dtype=np.intp)]


@pytest.mark.parametrize("base", [ONE_THIRD, STEP_2_TO_MINUS_9, THREE_ATOMS, FIVE_ATOMS])
def test_atomic_draws_replay_generator_choice(base):
    # laws on the uniform path: same values and same generator state as
    # locations[rng.choice(...)], across several chunks of the index buffer
    assert _code_bits(base.weights) is None
    for seed in (1, 2):
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = base.sample(ours, 40_007)
        want = base.locations[ref.choice(len(base.atoms), size=40_007, p=base.weights)]
        assert np.array_equal(got, want)
        assert ours.bit_generator.state == ref.bit_generator.state


class _KeptGenerator:
    """A stream stand-in whose generator can be inspected after the draw."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def generator(self):
        return self.rng


def _reference_windows(law, lo, hi, count, rng):
    """The draw of sample_windows for atomic laws, each column on its own path."""
    values = _reference_draws(rng, law.base.locations, law.base.weights, count * (hi - lo + 1))
    values = values.reshape(count, hi - lo + 1)
    for site in law.densities.perturbed_sites(lo, hi):
        beta = law.densities.atom_weights_at(site)
        values[:, site - lo] = _reference_draws(rng, law.base.locations, beta, count)
    return values


@pytest.mark.parametrize(
    "law",
    [
        # both paths are the table: b = 1 for the base, b = 2 for the bump
        ProductLaw.approximate(
            BERNOULLI, BumpSchedule(sites=PowersOfTwoSites(), base=BERNOULLI, weights=(0.75, 0.25))
        ),
        # a uniform-path base with a table-path bump that has a zero weight:
        # the middle atom never appears there
        ProductLaw.approximate(
            THREE_ATOMS,
            BumpSchedule(sites=PowersOfTwoSites(), base=THREE_ATOMS, weights=(0.5, 0.0, 0.5)),
        ),
        # a uniform-path base with one table-path and one uniform-path column
        ProductLaw.approximate(
            FIVE_ATOMS, AtomReweight(FIVE_ATOMS, {-3: (0.0, 0.0, 0.0, 0.0, 1.0), 5: (0.2,) * 5})
        ),
    ],
)
def test_perturbed_columns_replay_generator_choice(law):
    for seed in (3, 4):
        ours, ref = _KeptGenerator(seed), np.random.default_rng(seed)
        got = sample_windows(law, -9, 17, 301, ours)
        assert np.array_equal(got, _reference_windows(law, -9, 17, 301, ref))
        assert ours.rng.bit_generator.state == ref.bit_generator.state
    column = sample_windows(law, 4, 4, 5000, RngStream(5))[:, 0]
    beta = law.densities.atom_weights_at(4)
    if beta is not None:
        assert set(np.unique(column)) == set(law.base.locations[beta > 0])


@pytest.mark.parametrize(
    "seq",
    [
        BumpSchedule(sites=PowersOfTwoSites(), base=BERNOULLI, weights=(0.75, 0.25)),
        AtomReweight(BERNOULLI, {-1: (0.75, 0.25), 0: (0.25, 0.75), 2: (0.75, 0.25)}),
        # rejection-sampled columns: g(x) = 1 + x/2 against the uniform law
        BumpSchedule(sites=PowersOfTwoSites(), base=UniformInterval(-1.0, 1.0),
                     density=lambda x: 1.0 + 0.5 * x, density_sup=1.5),
    ],
)
def test_coupled_draw_holds_both_laws(seq):
    # the base block is the exact law's windows and, with the redrawn
    # columns written in, the perturbed law's windows, from one stream
    law = ProductLaw.approximate(seq.base, seq)
    for lo, hi in ((-20, 20), (3, 9)):
        values, sites, columns = sample_windows(law, lo, hi, 257, RngStream(8, (1,)), coupled=True)
        assert sites == seq.perturbed_sites(lo, hi) and columns.shape == (257, len(sites))
        exact = sample_windows(ProductLaw.exact(seq.base), lo, hi, 257, RngStream(8, (1,)))
        assert np.array_equal(values, exact)
        values[:, [k - lo for k in sites]] = columns
        assert np.array_equal(values, sample_windows(law, lo, hi, 257, RngStream(8, (1,))))


def _sha256(*arrays):
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "law, lo, hi, count, coupled, seed, values_sha, next_word_sha",
    [
        # the byte table at b = 1
        (ProductLaw.exact(BERNOULLI), 1, 865, 301, False, 11,
         "7b0a4a08e34a603f600bf1e2f693d4f2edc124e7667f83c1498c55e4c2a719b7",
         "ec78d95cb3f072b0a6a1f209d1be40b133bba7fe17b00b0badc9a090a5a51258"),
        # the coupled draw, its redrawn columns on the byte table at b = 2
        (ProductLaw.approximate(
            BERNOULLI, BumpSchedule(sites=PowersOfTwoSites(), base=BERNOULLI, weights=(0.75, 0.25))
        ), -400, 400, 257, True, 12,
         "8e763c6990574b5752c8068a922c552ec9772b193ba9c40d2b5d2407c7532868",
         "5e69289063d8c2e0cbcd266454ff279be8a6bb30253fe92acfdb8c51294c0914"),
        # the uniform replay, for the base block and both redrawn columns
        (ProductLaw.approximate(ONE_THIRD, AtomReweight(ONE_THIRD, {-3: (0.25, 0.75), 4: (0.3, 0.7)})),
         -50, 50, 1001, False, 13,
         "3a8900ce0b25e17730ef64b27cb5cd0b97f7cf39a8cafe65e4c3cd78b0fa7bad",
         "b88c72a70b14ead4bffb1d1dce79338f4a1c33484e7f499f04773c64172fb8d8"),
    ],
)
def test_sample_windows_values_and_generator_state_are_pinned(
    law, lo, hi, count, coupled, seed, values_sha, next_word_sha
):
    # sha256 of the values (with the sites and columns of a coupled draw) and
    # of the generator's next raw word, recorded before the draws were read
    # as atom indices; the values and the state the draw leaves must not move
    stream = _KeptGenerator(seed)
    got = sample_windows(law, lo, hi, count, stream, coupled=coupled)
    arrays = (got[0], np.array(got[1], dtype=float), got[2]) if coupled else (got,)
    assert _sha256(*arrays) == values_sha
    word = stream.rng.bit_generator.random_raw(1).astype("<u8")
    assert hashlib.sha256(word.tobytes()).hexdigest() == next_word_sha


@pytest.mark.parametrize(
    "law",
    [
        ProductLaw.exact(BERNOULLI),
        ProductLaw.approximate(
            BERNOULLI, BumpSchedule(sites=PowersOfTwoSites(), base=BERNOULLI, weights=(0.75, 0.25))
        ),
        ProductLaw.approximate(ONE_THIRD, AtomReweight(ONE_THIRD, {-3: (0.25, 0.75), 4: (0.3, 0.7)})),
        # a rejection-sampled column on an atomic base
        ProductLaw.approximate(
            BERNOULLI, BumpSchedule(sites=PowersOfTwoSites(), base=BERNOULLI,
                                    density=lambda x: 1.0 + 0.5 * x, density_sup=1.5),
        ),
    ],
)
def test_codes_are_the_atom_indices_of_the_same_draw(law):
    for coupled in (False, True):
        ours, ref = _KeptGenerator(21), _KeptGenerator(21)
        codes = sample_windows(law, -20, 40, 333, ours, coupled=coupled, codes=True)
        values = sample_windows(law, -20, 40, 333, ref, coupled=coupled)
        assert ours.rng.bit_generator.state == ref.rng.bit_generator.state
        if coupled:
            assert codes[1] == values[1]
            codes, values = (codes[0], codes[2]), (values[0], values[2])
        else:
            codes, values = (codes,), (values,)
        for c, v in zip(codes, values):
            assert c.dtype == np.uint8 and c.shape == v.shape
            assert np.array_equal(law.base.locations[c], v)
    with pytest.raises(ValueError, match="atomic base"):
        sample_windows(ProductLaw.exact(UniformInterval(-1.0, 1.0)), 0, 3, 2, RngStream(1), codes=True)


def test_codes_of_a_law_of_more_than_256_atoms_index_past_255():
    # a non-dyadic 300-atom base (the uniform replay) with redrawn columns
    # on the byte table whose mass sits past atom 255, where zero weights
    # come first: the codes are intp, and codes and values replay rng.choice
    base = FiniteAtoms(atoms=tuple((0.5 * j - 40.0, 1 / 300) for j in range(300)))
    beyond = (0.0,) * 299 + (1.0,)
    split = tuple(0.5 if j in (270, 299) else 0.0 for j in range(300))
    law = ProductLaw.approximate(base, AtomReweight(base, {-2: beyond, 3: split}))
    for coupled in (False, True):
        ours, ref, want = _KeptGenerator(22), _KeptGenerator(22), np.random.default_rng(22)
        codes = sample_windows(law, -5, 5, 97, ours, coupled=coupled, codes=True)
        values = sample_windows(law, -5, 5, 97, ref, coupled=coupled)
        replayed = _reference_windows(law, -5, 5, 97, want)
        assert ours.rng.bit_generator.state == ref.rng.bit_generator.state == want.bit_generator.state
        if coupled:
            codes, values = (codes[0], codes[2]), (values[0], values[2])
            assert np.array_equal(values[1], replayed[:, [-2 + 5, 3 + 5]])
            assert np.array_equal(values[1][:, 0], np.full(97, base.locations[299]))
            assert set(np.unique(values[1][:, 1])) == set(base.locations[[270, 299]])
        else:
            assert np.array_equal(values, replayed)
            codes, values = (codes,), (values,)
        for c, v in zip(codes, values):
            assert c.dtype == np.intp and np.array_equal(base.locations[c], v)


# ---------------------------------------------------------------------------
# byte-table sampler for dyadic weights
# ---------------------------------------------------------------------------

class _RawWords:
    """A generator stand-in whose raw words are given."""

    def __init__(self, words):
        self.bit_generator = self
        self.words = np.asarray(words, dtype=np.uint64)

    def random_raw(self, count):
        out, self.words = self.words[:count], self.words[count:]
        assert len(out) == count
        return out


def _every_code_once(bits):
    """Raw words whose b-bit fields, read little-endian, are 0, 1, ..., 2**b - 1."""
    packed = 0
    for code in range(1 << bits):
        packed |= code << (code * bits)
    words = -(-(bits << bits) // 64)
    return [(packed >> (64 * i)) & (2**64 - 1) for i in range(words)]


@pytest.mark.parametrize(
    "weights, bits",
    [
        ((0.5, 0.5), 1),
        ((0.75, 0.25), 2),
        ((0.0, 0.25, 0.75), 2),  # a zero-weight first atom
        ((0.25, 0.0, 0.75), 2),  # a zero-weight middle atom
        ((0.75, 0.25, 0.0), 2),  # a zero-weight last atom
        ((0.125, 0.375, 0.25, 0.25), 4),
        ((3 / 16, 0.0, 5 / 16, 0.5), 4),
        ((1 / 256, 0.0, 127 / 256, 0.5), 8),
        ((1.0,), 1),
    ],
)
def test_each_atom_owns_its_weight_of_the_codes(weights, bits):
    assert _code_bits(weights) == bits
    locations = np.arange(len(weights), dtype=float) * 2.0 - 3.0
    got = _categorical(_RawWords(_every_code_once(bits)), locations, np.array(weights), 1 << bits)
    counts = [int(np.sum(got == loc)) for loc in locations]
    assert counts == [int(w * 2**bits) for w in weights]
    # codes are assigned in order, as the uniform rule would at u = c / 2**b
    assert np.all(np.diff(got) >= 0)


@pytest.mark.parametrize(
    "weights",
    [(0.5, 0.5), (0.75, 0.25), (0.0, 0.25, 0.75), (0.125, 0.375, 0.25, 0.25), (1 / 256, 255 / 256)],
)
# one pass reads 2**14 raw bytes: 2**17 draws at b = 1, 2**14 at b = 8
@pytest.mark.parametrize("size", [0, 1, 3, 63, 65, 1001, (1 << 17) + 5, (1 << 18) + 7])
def test_table_draws_read_little_endian_fields_of_raw_words(weights, size):
    bits = _code_bits(weights)
    locations = np.array([-1.5, 0.5, 1.0, 4.0][: len(weights)])
    ours, ref = np.random.default_rng(17), np.random.default_rng(17)
    got = _categorical(ours, locations, np.array(weights), size)
    assert got.shape == (size,)
    assert np.array_equal(got, _reference_draws(ref, locations, weights, size))
    # the generator advances by exactly ceil(size * b / 64) raw words
    advanced = np.random.default_rng(17)
    advanced.bit_generator.random_raw(-(-size * bits // 64))
    assert ours.bit_generator.state == ref.bit_generator.state == advanced.bit_generator.state


def test_the_weights_alone_pick_the_path():
    # one atom, 0.5/0.5 and steps of 1/256 take the table; steps of 2**-9
    # keep the uniform path
    on_table = FiniteAtoms(atoms=((-1.0, 37 / 256), (0.0, 90 / 256), (1.0, 129 / 256)))
    on_uniform = FiniteAtoms(atoms=((-1.0, 37 / 512), (0.0, 180 / 512), (1.0, 295 / 512)))
    assert _code_bits(on_table.weights) == 8 and _code_bits(on_uniform.weights) is None
    size = 10_001
    for base, bits in ((ONE_ATOM, 1), (BERNOULLI, 1), (on_table, 8)):
        ours, advanced = np.random.default_rng(8), np.random.default_rng(8)
        base.sample(ours, size)
        advanced.bit_generator.random_raw(-(-size * bits // 64))
        assert ours.bit_generator.state == advanced.bit_generator.state
    ours, ref = np.random.default_rng(8), np.random.default_rng(8)
    got = on_uniform.sample(ours, size)
    assert np.array_equal(got, on_uniform.locations[ref.choice(3, size=size, p=on_uniform.weights)])
    assert ours.bit_generator.state == ref.bit_generator.state


def test_large_draws_equal_the_reference_draws():
    # draws of 4 MiB or more, while a view of an earlier draw is alive,
    # hold the reference draws
    size = (1 << 22) // 8 + 1001
    locations, weights = np.array([-1.5, 0.5]), (0.5, 0.5)

    def draw(seed, n=size):
        return _categorical(np.random.default_rng(seed), locations, np.array(weights), n)

    def reference(seed, n=size):
        return _reference_draws(np.random.default_rng(seed), locations, weights, n)

    kept = draw(3)[::-1]  # only a view stays alive
    second = draw(4)
    assert not np.shares_memory(kept, second)
    assert np.array_equal(kept[::-1], reference(3))
    assert np.array_equal(second, reference(4))
    del kept, second
    assert np.array_equal(draw(5, size - 7), reference(5, size - 7))
    # the uniform replay leaves the generator where rng.choice does
    base = FiniteAtoms(atoms=((-1.0, 1 / 3), (1.0, 2 / 3)))
    ours, ref = np.random.default_rng(6), np.random.default_rng(6)
    got = base.sample(ours, size)
    assert np.array_equal(got, base.locations[ref.choice(2, size=size, p=base.weights)])
    assert ours.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize(
    "weights", [(0.5, 0.5), (0.75, 0.25), (0.125, 0.375, 0.25, 0.25)]
)
def test_table_draws_pass_a_chi_square_test(weights):
    m = 1_000_000
    locations = np.arange(len(weights), dtype=float)
    got = _categorical(np.random.default_rng(20_240_601), locations, np.array(weights), m)
    observed = np.array([np.sum(got == loc) for loc in locations])
    assert observed.sum() == m
    assert chisquare(observed, m * np.array(weights)).pvalue > 1e-3


# ---------------------------------------------------------------------------
# Radon-Nikodym products
# ---------------------------------------------------------------------------

def test_identity_log_density_is_exactly_zero():
    law = ProductLaw.exact(BERNOULLI)
    win = sample_window(law, -3, 3, RngStream(7))
    assert radon_nikodym_product(law, win) == 0.0


def test_two_site_reweight_closed_form():
    seq = AtomReweight(BERNOULLI, {0: (0.75, 0.25), 1: (0.75, 0.25)})
    law = ProductLaw.approximate(BERNOULLI, seq)
    win = PotentialWindow(0, 1, np.array([-1.0, -1.0]))
    assert radon_nikodym_product(law, win) == pytest.approx(2 * math.log(1.5), abs=1e-15)


def test_zero_density_value_gives_minus_infinity():
    seq = AtomReweight(BERNOULLI, {0: (1.0, 0.0)})
    law = ProductLaw.approximate(BERNOULLI, seq)
    win = PotentialWindow(0, 0, np.array([1.0]))
    assert radon_nikodym_product(law, win) == -math.inf


def test_values_outside_support_are_rejected():
    law = ProductLaw.exact(BERNOULLI)
    with pytest.raises(ValueError, match="support"):
        radon_nikodym_product(law, PotentialWindow(0, 0, np.array([0.5])))


def test_log_density_additive_over_adjacent_windows():
    seq = AtomReweight(
        BERNOULLI, {n: (0.6, 0.4) if n % 2 else (0.3, 0.7) for n in range(-6, 7)}
    )
    law = ProductLaw.approximate(BERNOULLI, seq)
    win = sample_window(law, -6, 6, RngStream(8))
    whole = radon_nikodym_product(law, win)
    split = radon_nikodym_product(law, win.slice(-6, 0)) + radon_nikodym_product(
        law, win.slice(1, 6)
    )
    assert split == pytest.approx(whole, abs=1e-12)


def test_monte_carlo_change_of_measure_identity():
    # E_exact[chi_A * H] == P_approx[A] for the cylinder A = {V0=+1, V1=-1},
    # both matching the exact atom-product probability
    beta0, beta1 = (0.75, 0.25), (0.25, 0.75)
    seq = AtomReweight(BERNOULLI, {0: beta0, 1: beta1})
    law0 = ProductLaw.approximate(BERNOULLI, seq)
    law1 = ProductLaw.exact(BERNOULLI)
    exact_prob = beta0[1] * beta1[0]  # P[V0=+1] * P[V1=-1] under the reweighted law

    m = 100_000
    wins1 = sample_windows(law1, 0, 1, m, RngStream(10))
    chi = (wins1[:, 0] == 1.0) & (wins1[:, 1] == -1.0)
    # H = g0(V0) g1(V1) with g(x_i) = beta_i / w_i
    g0 = np.where(wins1[:, 0] == 1.0, beta0[1] / 0.5, beta0[0] / 0.5)
    g1 = np.where(wins1[:, 1] == 1.0, beta1[1] / 0.5, beta1[0] / 0.5)
    lifted = chi * g0 * g1
    lhs = float(np.mean(lifted))
    se_lhs = float(np.std(lifted, ddof=1) / math.sqrt(m))

    wins0 = sample_windows(law0, 0, 1, m, RngStream(11))
    hits = (wins0[:, 0] == 1.0) & (wins0[:, 1] == -1.0)
    rhs = float(np.mean(hits))
    se_rhs = math.sqrt(rhs * (1 - rhs) / m)

    assert abs(lhs - exact_prob) <= 3 * se_lhs
    assert abs(rhs - exact_prob) <= 3 * se_rhs
    assert abs(lhs - rhs) <= 3 * math.hypot(se_lhs, se_rhs)


# ---------------------------------------------------------------------------
# decay-condition diagnostics
# ---------------------------------------------------------------------------

def test_partials_identity_zero():
    assert sup_norm_log_partials(Identity(), 100) == 0.0


def test_partials_constant_schedule():
    seq = AtomReweight(BERNOULLI, {n: (0.75, 0.25) for n in range(-50, 51)})
    # every site has sup norm 1.5 on [-50, 50]
    n = 50
    expect = (2 * n + 1) * math.log(1.5) / n
    assert sup_norm_log_partials(seq, n) == pytest.approx(expect, rel=1e-14)


def test_partials_bumps_match_direct_sum_and_vanish():
    seq = BumpSchedule(sites=PowersOfTwoSites(), base=BERNOULLI, weights=(0.75, 0.25))
    for n in (64, 512, 4096):
        direct = math.fsum(seq.log_sup_norm(k) for k in range(-n, n + 1)) / n
        assert sup_norm_log_partials(seq, n) == pytest.approx(direct, rel=1e-14)
        assert direct <= 2 * math.log(1.5) * (math.log2(n) + 1) / n
    assert sup_norm_log_partials(seq, 4096) < 0.01


def test_condition_report_identity_all_hold():
    report = condition_report(Identity(), 256, 16)
    assert np.all(report.mean == 0.0)
    assert np.all(report.uniform == 0.0)
    assert np.all(report.partial_sums == 0.0)
    for verdict in report.verdicts.values():
        assert verdict.verdict == VERDICT_HOLDS


def test_condition_report_constant_schedule_violates_mean():
    sites = ExplicitSites(frozenset(range(-5000, 5001)))
    seq = BumpSchedule(sites=sites, base=BERNOULLI, weights=(2 / 3, 1 / 3))
    # sup norm 4/3 at every site: the Cesaro mean tends to 2 log(4/3) != 0
    report = condition_report(seq, 2048, 16)
    assert report.verdicts[CONDITION_MEAN].verdict == VERDICT_VIOLATED
    assert report.verdicts[CONDITION_MEAN].value_end == pytest.approx(
        2 * math.log(4 / 3), rel=0.01
    )


def test_condition_report_bumps_split_the_conditions():
    seq = BumpSchedule(sites=PowersOfTwoSites(), base=BERNOULLI, weights=(0.75, 0.25))
    report = condition_report(seq, 4096, 64)
    assert report.verdicts[CONDITION_MEAN].verdict == VERDICT_HOLDS
    assert report.verdicts[CONDITION_UNIFORM].verdict == VERDICT_HOLDS
    assert report.verdicts[CONDITION_SUMMABLE].verdict == VERDICT_VIOLATED
    # partial sums grow like log2(N)
    n_end = report.n_grid[-1]
    assert report.partial_sums[-1] == pytest.approx(
        2 * math.log(1.5) * (math.floor(math.log2(n_end)) + 1), rel=1e-12
    )


def test_condition_grid_equals_the_unique_geometric_grid():
    for n_max in (*range(1, 300), 1000, 4096, 20_000):
        grid = np.geomspace(1, n_max, num=min(n_max, 96)).astype(int)
        report = condition_report(Identity(), n_max, 0)
        np.testing.assert_array_equal(report.n_grid, np.unique(grid))


def test_condition_verdicts_respect_implication_order():
    strength = {VERDICT_VIOLATED: 0, "inconclusive": 1, VERDICT_HOLDS: 2}
    schedules = [
        Identity(),
        AtomReweight(BERNOULLI, {0: (0.9, 0.1), 17: (0.2, 0.8)}),
        BumpSchedule(sites=PowersOfTwoSites(), base=BERNOULLI, weights=(0.75, 0.25)),
        BumpSchedule(
            sites=ExplicitSites(frozenset(range(-600, 601, 3))),
            base=BERNOULLI, weights=(0.9, 0.1),
        ),
    ]
    for seq in schedules:
        report = condition_report(seq, 512, 32)
        s_mean = strength[report.verdicts[CONDITION_MEAN].verdict]
        s_unif = strength[report.verdicts[CONDITION_UNIFORM].verdict]
        s_sum = strength[report.verdicts[CONDITION_SUMMABLE].verdict]
        assert s_mean >= s_unif >= s_sum


def test_finite_schedule_is_summable():
    seq = AtomReweight(BERNOULLI, {-3: (0.9, 0.1), 0: (0.2, 0.8), 11: (0.7, 0.3)})
    report = condition_report(seq, 1024, 32)
    for verdict in report.verdicts.values():
        assert verdict.verdict == VERDICT_HOLDS
