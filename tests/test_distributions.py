import copy
import math
import pickle
import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from heyde_lab.distributions import (
    CHAR_TOL,
    SNAP_DENOMINATOR_CAP,
    AmbiguousCharValueError,
    accumulate,
    CharFunction,
    Distribution,
    GroupFunction,
    InvalidCharFunctionError,
    char_function,
    char_values_list,
    convolve,
    distribution_from_char,
    empirical_distribution,
    haar_on,
    is_degenerate,
    is_gaussian,
    is_idempotent_shift,
    make_distribution,
    one_set,
    point_mass,
    push_forward,
    reflect,
    sample,
    shift,
    support_within_annihilator,
    symmetrize,
    total_variation,
    uniform,
)
from heyde_lab.groups import (
    GroupElement,
    annihilator,
    character,
    make_endomorphism,
    make_group,
    scaling_endomorphism,
    subgroup_generated,
)
from heyde_lab.predicates import canonical_instance, joint_of_forms
from heyde_lab.search import random_distribution

DIST_ORDERS = [[5], [7], [9], [3, 3], [2, 3], [4]]


def elem(group, *coords):
    return group.element(coords)


@st.composite
def group_with_distribution(draw, orders_pool=DIST_ORDERS, max_support=4):
    group = make_group(draw(st.sampled_from(orders_pool)))
    size = draw(st.integers(1, min(max_support, group.order)))
    idx = draw(
        st.lists(
            st.integers(0, group.order - 1),
            min_size=size,
            max_size=size,
            unique=True,
        )
    )
    weights = draw(st.lists(st.integers(1, 9), min_size=size, max_size=size))
    total = sum(weights)
    probs = {
        group.elements[i]: Fraction(w, total) for i, w in zip(idx, weights)
    }
    return group, Distribution(group, probs)


# ---------------------------------------------------------------------------
# construction and basic operations
# ---------------------------------------------------------------------------


def test_distribution_validates():
    g5 = make_group([5])
    with pytest.raises(ValueError):
        Distribution(g5, {elem(g5, 0): Fraction(1, 2)})
    with pytest.raises(ValueError):
        Distribution(
            g5, {elem(g5, 0): Fraction(3, 2), elem(g5, 1): Fraction(-1, 2)}
        )


def test_zero_masses_dropped():
    g5 = make_group([5])
    mu = Distribution(g5, {elem(g5, 0): Fraction(1), elem(g5, 1): Fraction(0)})
    assert mu.support() == (elem(g5, 0),)


def test_point_mass_convolution():
    g5 = make_group([5])
    assert convolve(point_mass(g5, elem(g5, 3)), point_mass(g5, elem(g5, 4))) == (
        point_mass(g5, elem(g5, 2))
    )


def test_convolution_unit_and_reflection():
    g5 = make_group([5])
    mu = make_distribution(
        g5, {elem(g5, 1): Fraction(1, 3), elem(g5, 3): Fraction(2, 3)}
    )
    assert convolve(mu, point_mass(g5, elem(g5, 0))) == mu
    assert reflect(point_mass(g5, elem(g5, 3))) == point_mass(g5, elem(g5, 2))
    assert shift(mu, elem(g5, 2)).prob(elem(g5, 3)) == Fraction(1, 3)


def test_point_mass_char_is_character():
    g5 = make_group([5])
    x = elem(g5, 1)
    f = char_function(point_mass(g5, x))
    for y in g5.elements:
        assert f(y) == pytest.approx(character(x, y))
    f0 = char_function(point_mass(g5, elem(g5, 0)))
    assert all(v == pytest.approx(1) for v in f0.values.values())


def test_push_forward_char_identity():
    """push_forward(mu, alpha)-hat(y) == mu-hat(adjoint(alpha) y)."""
    g9 = make_group([9])
    alpha = scaling_endomorphism(g9, 4)
    mu = make_distribution(
        g9, {elem(g9, 1): Fraction(1, 2), elem(g9, 5): Fraction(1, 2)}
    )
    pushed = char_values_list(push_forward(mu, alpha))
    original = char_values_list(mu)
    adj = alpha.adjoint()
    for i, y in enumerate(g9.elements):
        assert pushed[i] == pytest.approx(original[g9.index(adj(y))])


@given(group_with_distribution(), st.data())
def test_convolution_theorem(gd, data):
    group, mu = gd
    _, nu = data.draw(group_with_distribution(orders_pool=[list(group.cyclic_orders)]))
    conv = char_values_list(convolve(mu, nu))
    f, g = char_values_list(mu), char_values_list(nu)
    assert all(abs(conv[i] - f[i] * g[i]) < 1e-9 for i in range(group.order))


@given(group_with_distribution())
def test_reflection_conjugates_char(gd):
    group, mu = gd
    reflected = char_values_list(reflect(mu))
    original = char_values_list(mu)
    for i in range(group.order):
        assert reflected[i] == pytest.approx(original[i].conjugate(), abs=1e-9)


@given(group_with_distribution())
def test_symmetrized_char_nonnegative(gd):
    group, mu = gd
    values = char_values_list(symmetrize(mu))
    f = char_values_list(mu)
    for i in range(group.order):
        assert values[i].imag == pytest.approx(0, abs=1e-9)
        assert values[i].real >= -1e-9
        assert values[i].real == pytest.approx(abs(f[i]) ** 2, abs=1e-9)


def _reference_char_values(mu):
    """One character() call per (element, support point), summed in support
    order."""
    support = mu.support()
    weights = [float(mu.probs[x]) for x in support]
    out = []
    for y in mu.group.elements:
        acc = 0j
        for x, w in zip(support, weights):
            acc += w * character(x, y)
        out.append(acc)
    out[0] = complex(1.0, 0.0)
    return out


@pytest.mark.parametrize("orders", [[9, 27], [3, 3, 3, 3, 3], [2, 6], [5003]])
def test_char_values_bit_identical_to_character_loop(orders):
    """Exact float equality; every exponent, 5003 included, reads the one root table."""
    group = make_group(orders)
    rng = random.Random(group.order)
    for _ in range(4):
        mu = random_distribution(group, rng, 5, 9)
        assert char_values_list(mu) == _reference_char_values(mu)


# ---------------------------------------------------------------------------
# integer form: numerators on sorted indices, Fraction dict as a view
# ---------------------------------------------------------------------------


@given(st.data())
def test_integer_and_fraction_constructors_agree(data):
    """from_weights on (support, weights) and Distribution on the Fraction
    dict of the same draw, given in reverse key order, build one law."""
    group = make_group(data.draw(st.sampled_from(DIST_ORDERS + [[9, 27], [2, 6]])))
    support = sorted(data.draw(st.lists(
        st.integers(0, group.order - 1), min_size=1, max_size=6, unique=True
    )))
    weights = data.draw(st.lists(
        st.integers(1, 12), min_size=len(support), max_size=len(support)
    ))
    total = sum(weights)
    probs = {group.elements[i]: Fraction(w, total) for i, w in zip(support, weights)}
    from_ints = Distribution.from_weights(group, support, weights)
    from_dict = Distribution(group, dict(reversed(list(probs.items()))))
    assert from_ints == from_dict
    assert from_ints.indices == tuple(support)
    g = math.gcd(*weights)
    assert from_ints.numerators == tuple(w // g for w in weights)
    assert from_ints.denominator == total // g
    for mu in (from_ints, from_dict):
        assert mu.probs == probs
        assert list(mu.probs) == [group.elements[i] for i in support]
        assert all(type(p) is Fraction for p in mu.probs.values())
        assert mu.support() == tuple(group.elements[i] for i in support)
        assert all(mu.prob(x) == probs.get(x, 0) for x in group.elements)
    assert repr(from_ints) == repr(from_dict)


def test_integer_form_is_canonical():
    g7 = make_group([7])
    half = Distribution.from_weights(g7, [1, 4], [2, 4])
    assert half == Distribution.from_weights(g7, [1, 4], [1, 2])
    assert (half.numerators, half.denominator) == ((1, 2), 3)
    assert half != Distribution.from_weights(g7, [1, 5], [1, 2])
    assert half != Distribution.from_weights(g7, [1, 4], [2, 1])
    assert half != Distribution.from_weights(make_group([8]), [1, 4], [1, 2])
    mixed = Distribution(g7, {elem(g7, 4): Fraction(1, 2), elem(g7, 0): "1/6",
                              elem(g7, 2): Fraction(1, 3)})
    assert (mixed.indices, mixed.numerators, mixed.denominator) == ((0, 2, 4), (1, 2, 3), 6)


def test_integer_constructor_reads_weights_once():
    """Weights and indices given as generators build the same law."""
    g5 = make_group([5])
    expected = Distribution.from_weights(g5, [0, 1], [2, 4])
    for weights in ([1, 2], [2, 4]):
        mu = Distribution.from_weights(g5, (i for i in [0, 1]), (w for w in weights))
        assert mu == expected and (mu.numerators, mu.denominator) == ((1, 2), 3)


def test_distribution_is_unhashable():
    mu = uniform(make_group([3]))
    with pytest.raises(TypeError):
        hash(mu)
    with pytest.raises(TypeError):
        {mu}


def _joint(group, mu):
    """The joint law of (x1 + x2, x1 + 2*x2) for iid x1, x2 with law mu."""
    return joint_of_forms(canonical_instance(group, scaling_endomorphism(group, 2), mu, mu))


def test_distribution_copies_and_pickles_after_its_view_is_built():
    g6 = make_group([2, 3])
    mu = Distribution.from_weights(g6, [1, 4], [1, 2])
    for law in (mu, _joint(g6, mu)):
        assert law.probs
        for twin in (copy.deepcopy(law), pickle.loads(pickle.dumps(law))):
            assert twin == law and twin.probs == law.probs


def test_probs_view_is_read_only():
    g5 = make_group([5])
    mu = Distribution.from_weights(g5, [0, 3], [1, 1])
    attributes = set(vars(mu))
    with pytest.raises(TypeError):
        mu.probs[elem(g5, 1)] = Fraction(1)
    assert mu.probs is mu.probs
    assert set(vars(mu)) == attributes  # the view fills an attribute set at build
    joint = _joint(g5, mu)
    with pytest.raises(TypeError):
        joint.probs[(elem(g5, 1), elem(g5, 1))] = Fraction(1)
    assert joint.probs is joint.probs


@pytest.mark.parametrize(
    "indices, weights",
    [
        ([0, 1], [0, 1]),  # zero weight
        ([0, 1], [2, -1]),  # negative weight
        ([0, 1], [1, -1]),  # negative weight, weights summing to zero
        ([2, 1], [1, 1]),  # unsorted
        ([1, 1], [1, 1]),  # duplicate
        ([0, 5], [1, 1]),  # past the last element
        ([-1, 0], [1, 1]),  # negative index
        ([0, 1], [1]),  # fewer weights than indices
        ([], []),  # empty
    ],
)
def test_integer_constructor_rejects(indices, weights):
    with pytest.raises(ValueError):
        Distribution.from_weights(make_group([5]), indices, weights)


@pytest.mark.parametrize(
    "indices, weights, message",
    [
        ([3, 1], [1, 1], "support indices must increase strictly inside the group"),
        ([2, 9], [1, 1], "support indices must increase strictly inside the group"),
        ([-1, 2], [1, 1], "support indices must increase strictly inside the group"),
        ([0, 1], [1], "support indices must increase strictly inside the group"),
        ([3, 1], [0, 1], "support indices must increase strictly inside the group"),
        ([1, 2], [1, 0], "nonpositive weight 0 at (2)"),
        ([1, 2], [1, -1], "nonpositive weight -1 at (2)"),
        ([1, 2], [-1, 3], "negative probability -1/2 at (1)"),
        ([], [], "probabilities sum to 0, expected 1"),
    ],
)
def test_integer_constructor_messages(indices, weights, message):
    """Each refusal of the build check names its cause, checked in this
    order: indices, then weights, then the sum."""
    with pytest.raises(ValueError) as err:
        Distribution.from_weights(make_group([9]), indices, weights)
    assert str(err.value) == message


def test_mass_constructor_messages():
    g9 = make_group([9])
    with pytest.raises(ValueError) as err:
        Distribution(g9, {elem(g9, 1): Fraction(1, 2)})
    assert str(err.value) == "probabilities sum to 1/2, expected 1"
    with pytest.raises(ValueError) as err:
        Distribution(g9, {elem(g9, 0): Fraction(3, 2), elem(g9, 1): Fraction(-1, 2)})
    assert str(err.value) == "negative probability -1/2 at (1)"


def test_every_build_runs_the_check_once(monkeypatch):
    """Each constructor, each law operation's result and each random draw
    runs the build check exactly once on the law it returns, and every path
    leaves the same attribute set: the integer form and the view's slot."""
    checked = []
    check = vars(Distribution)["__post_init__"]

    def counted(self, lcm=0):
        checked.append(id(self))
        check(self, lcm)

    monkeypatch.setattr(Distribution, "__post_init__", counted)
    g15 = make_group([3, 5])
    mu = Distribution.from_weights(g15, [1, 4, 7], [2, 4, 2])  # reduced by the gcd
    nu = Distribution.from_weights(g15, [0], [1])  # one point
    builds = {
        "from_weights": lambda: Distribution.from_weights(g15, [2, 9], [1, 3]),
        "masses": lambda: Distribution(g15, {elem(g15, 1, 2): "1/6", elem(g15, 0, 3): "5/6"}),
        "convolve": lambda: convolve(mu, nu),
        "reflect": lambda: reflect(mu),
        "push_forward": lambda: push_forward(mu, make_endomorphism(g15, [[2, 0], [0, 3]])),
    }
    attributes = {frozenset(vars(mu)), frozenset(vars(nu))}
    for name, build in builds.items():
        del checked[:]
        law = build()
        assert checked == [id(law)], name
        attributes.add(frozenset(vars(law)))
    # Z15 draws swap through sample's pool; Z5 x Z5 draws use its rejection set
    for group in (g15, make_group([5, 5])):
        rng = random.Random(11)
        del checked[:]
        draws = [random_distribution(group, rng, 3, 6) for _ in range(100)]
        assert checked == [id(law) for law in draws]
        attributes.update(frozenset(vars(law)) for law in draws)
    # the denominator is derived from the numerators, never stored
    assert attributes == {frozenset({"group", "indices", "numerators", "_probs"})}


# ---------------------------------------------------------------------------
# law operations against Fraction-dict references
# ---------------------------------------------------------------------------

#: (orders, non-diagonal endomorphism matrix) for the reference tests.
REFERENCE_GROUPS = [
    ([9, 27], [[3, 1], [6, 9]]),
    ([2, 6], [[1, 1], [3, 5]]),
    ([3] * 5, [[1, 1, 0, 0, 0], [0, 1, 2, 0, 0], [0, 0, 0, 0, 0],
               [1, 0, 0, 2, 0], [0, 0, 0, 1, 1]]),
]


def _reference(group, pairs):
    """Fraction dict of (element, mass) pairs summed by element."""
    masses = accumulate(pairs)
    assert all(x.group == group and p > 0 for x, p in masses.items())
    return masses


@pytest.mark.parametrize("orders, matrix", REFERENCE_GROUPS)
def test_law_operations_match_fraction_references(orders, matrix):
    group = make_group(orders)
    alpha = make_endomorphism(group, matrix)
    assert any(a for i, row in enumerate(alpha.matrix) for j, a in enumerate(row) if i != j)
    assert len(set(alpha.table)) < group.order  # images collide: masses are summed
    rng = random.Random(group.order)
    for _ in range(6):
        mu = random_distribution(group, rng, 6, 9)
        nu = random_distribution(group, rng, 5, 7)
        x = rng.choice(group.elements)
        m, n = mu.probs.items(), nu.probs.items()
        convolved = _reference(group, ((a + b, p * q) for a, p in m for b, q in n))
        assert convolve(mu, nu).probs == convolved
        reflected = _reference(group, ((-a, p) for a, p in m))
        assert reflect(mu).probs == reflected
        assert shift(mu, x).probs == _reference(group, ((a + x, p) for a, p in m))
        assert push_forward(mu, alpha).probs == _reference(group, ((alpha(a), p) for a, p in m))
        assert symmetrize(mu).probs == _reference(
            group, ((a + b, p * q) for a, p in m for b, q in reflected.items())
        )
        draws = [rng.choice(mu.support()) for _ in range(40)]
        counted = _reference(group, ((y, Fraction(1, len(draws))) for y in draws))
        assert empirical_distribution(group, draws).probs == counted
        assert point_mass(group, x).probs == {x: Fraction(1)}
    assert uniform(group).probs == {y: Fraction(1, group.order) for y in group.elements}
    for sub in (subgroup_generated(group, [x]), subgroup_generated(group, group.elements[1:3])):
        assert haar_on(sub).probs == {y: Fraction(1, len(sub)) for y in sub}


# ---------------------------------------------------------------------------
# haar distributions
# ---------------------------------------------------------------------------


def test_haar_trivial_subgroup_is_point_mass():
    g5 = make_group([5])
    assert haar_on(subgroup_generated(g5, [])) == point_mass(g5, elem(g5, 0))


def test_haar_char_is_annihilator_indicator():
    g9 = make_group([9])
    sub = subgroup_generated(g9, [elem(g9, 3)])
    f = char_function(haar_on(sub))
    ann = annihilator(sub)
    for y in g9.elements:
        expected = 1.0 if y in ann else 0.0
        assert abs(f(y) - expected) < 1e-9


def test_haar_whole_group_char_is_delta():
    g5 = make_group([5])
    f = char_function(uniform(g5))
    for y in g5.elements:
        assert abs(f(y) - (1.0 if y.is_zero else 0.0)) < 1e-9


# ---------------------------------------------------------------------------
# Fourier inversion
# ---------------------------------------------------------------------------


def _oracle_invert(f: CharFunction):
    """Independent inversion: direct mean over characters."""
    group = f.group
    out = {}
    for x in group.elements:
        acc = sum(
            f.values[y] * character(x, y).conjugate() for y in group.elements
        )
        out[x] = acc / group.order
    return out


def _loop_inversion(f: CharFunction):
    """distribution_from_char as one loop per element x over the row, one
    conjugated character value per entry; a refusal is returned as its
    exception type and message."""
    group = f.group
    masses = {}
    for x in group.elements:
        acc = 0j
        for v, c in zip(f.row, group.character_row(x)):
            acc += v * c.conjugate()
        acc /= group.order
        if abs(acc.imag) > CHAR_TOL:
            return InvalidCharFunctionError, f"inversion produced non-real mass {acc} at {x}"
        if acc.real < -CHAR_TOL:
            return InvalidCharFunctionError, f"inversion produced negative mass {acc.real} at {x}"
        if acc.real > 0:
            snapped = Fraction(acc.real).limit_denominator(SNAP_DENOMINATOR_CAP)
            close = abs(float(snapped) - acc.real) <= CHAR_TOL
            masses[x] = snapped if close else Fraction(acc.real)
    total = sum(masses.values())
    return Distribution(group, {x: p / total for x, p in masses.items()})


def _inversion(f: CharFunction):
    try:
        return distribution_from_char(f)
    except InvalidCharFunctionError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("orders", [[5], [9], [3, 3], [4, 2], [12], [2, 2, 2], [27, 9]])
def test_inversion_equals_the_per_element_loop(orders):
    """Rational rows invert to the law they came from, and rows shrunk off
    it (by up to 1e-6, hermitian) to the same exact binary masses, or the
    same refusal, as the loop over x: the masses are the same floats."""
    group = make_group(orders)
    rng = random.Random(str(orders))
    neg = group.negation_table()
    full = Distribution.from_weights(group, range(group.order), [rng.randint(1, 9) for _ in neg])
    for mu in [full, point_mass(group, group.elements[-1]), random_distribution(group, rng, 4, 9)]:
        f = char_function(mu)
        assert _inversion(f) == _loop_inversion(f) == mu
        row = list(f.row)
        for y, minus_y in enumerate(neg):
            if 0 < y <= minus_y:
                row[y] *= 1 - rng.uniform(0, 1e-6)
                row[minus_y] = row[y].conjugate()
        perturbed = CharFunction.from_row(group, row)
        assert _inversion(perturbed) == _loop_inversion(perturbed)
        assert mu is not full or isinstance(_inversion(perturbed), Distribution)
    # 1 at 0 and -1 elsewhere puts the mass (2 - |X|) / |X| at 0
    negative = CharFunction.from_row(group, [1.0] + [-1.0] * (group.order - 1))
    assert _inversion(negative) == _loop_inversion(negative)
    assert _inversion(negative)[0] is InvalidCharFunctionError


def test_round_trip_point_and_uniform():
    g5 = make_group([5])
    e0 = point_mass(g5, elem(g5, 0))
    assert distribution_from_char(char_function(e0)) == e0
    assert distribution_from_char(char_function(uniform(g5))) == uniform(g5)


@given(group_with_distribution(orders_pool=[[7], [9], [3, 3]]))
def test_round_trip_random(gd):
    group, mu = gd
    f = char_function(mu)
    oracle = _oracle_invert(f)
    for x, value in oracle.items():
        assert value.real == pytest.approx(float(mu.prob(x)), abs=1e-9)
    assert distribution_from_char(f) == mu


def test_inversion_rejects_non_positive_definite():
    g3 = make_group([3])
    f = CharFunction(
        g3, {elem(g3, 0): 1 + 0j, elem(g3, 1): -1 + 0j, elem(g3, 2): -1 + 0j}
    )
    with pytest.raises(InvalidCharFunctionError):
        distribution_from_char(f)


def test_char_function_validation():
    g3 = make_group([3])
    with pytest.raises(ValueError):
        CharFunction(g3, {elem(g3, 0): 0.5 + 0j, elem(g3, 1): 0j, elem(g3, 2): 0j})
    with pytest.raises(ValueError):
        CharFunction(
            g3, {elem(g3, 0): 1 + 0j, elem(g3, 1): 1 + 0j, elem(g3, 2): 0j}
        )


@pytest.mark.parametrize(
    "values",
    [
        [1, math.nan, math.nan],
        [math.nan, 1, 1],
        [1, 0.5, complex(math.nan, 0)],
        [1, complex(0, math.nan), 0.5],
    ],
)
def test_char_function_refuses_nan(values):
    """A NaN compares false with every tolerance, so each check fails on it."""
    g3 = make_group([3])
    with pytest.raises(ValueError):
        CharFunction(g3, dict(zip(g3.elements, values)))


# ---------------------------------------------------------------------------
# the unit level set
# ---------------------------------------------------------------------------


def test_one_set_haar():
    g9 = make_group([9])
    sub = subgroup_generated(g9, [elem(g9, 3)])
    e = one_set(char_function(haar_on(sub)))
    assert e.elements == annihilator(sub).elements


def test_one_set_point_mass():
    g9 = make_group([9])
    x = elem(g9, 3)
    e = one_set(char_function(point_mass(g9, x)))
    assert all(abs(character(x, y) - 1) < 1e-9 for y in e)
    assert len(e) == 3


def test_one_set_generic_is_trivial():
    g5 = make_group([5])
    mu = make_distribution(
        g5, {elem(g5, 0): Fraction(2, 3), elem(g5, 1): Fraction(1, 3)}
    )
    assert one_set(char_function(mu)).is_trivial


def test_one_set_ambiguity_window():
    g5 = make_group([5])
    values = {y: 0.5 + 0j for y in g5.elements}
    values[elem(g5, 0)] = 1 + 0j
    values[elem(g5, 1)] = 1 - 1e-7 + 0j
    values[elem(g5, 4)] = 1 - 1e-7 + 0j
    with pytest.raises(AmbiguousCharValueError):
        one_set(CharFunction(g5, values))


def test_one_set_must_close():
    g5 = make_group([5])
    values = {y: 0.0 + 0j for y in g5.elements}
    values[elem(g5, 0)] = 1 + 0j
    values[elem(g5, 1)] = 1 + 0j
    values[elem(g5, 4)] = 1 + 0j
    with pytest.raises(InvalidCharFunctionError):
        one_set(CharFunction(g5, values))


@given(group_with_distribution())
def test_one_set_coset_invariance_and_support_bound(gd):
    """Characteristic values are constant on cosets of the unit level set,
    and the support lies in its annihilator."""
    group, mu = gd
    f = char_function(mu)
    e = one_set(f)
    for y in group.elements:
        for h in e:
            assert abs(f(y + h) - f(y)) < 1e-9
    assert support_within_annihilator(mu, e)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_degenerate_is_idempotent_with_trivial_subgroup():
    g5 = make_group([5])
    witness = is_idempotent_shift(point_mass(g5, elem(g5, 4)))
    assert witness is not None
    assert witness.subgroup.is_trivial
    assert witness.shift == elem(g5, 4)


def test_shifted_haar_witness():
    g9 = make_group([9])
    sub = subgroup_generated(g9, [elem(g9, 3)])
    witness = is_idempotent_shift(shift(haar_on(sub), elem(g9, 1)))
    assert witness is not None
    assert witness.subgroup.elements == sub.elements
    assert witness.shift == elem(g9, 1)


def test_non_coset_support_not_idempotent():
    g5 = make_group([5])
    mu = make_distribution(
        g5, {elem(g5, 0): Fraction(1, 2), elem(g5, 1): Fraction(1, 2)}
    )
    assert is_idempotent_shift(mu) is None


def test_non_uniform_weights_not_idempotent():
    g9 = make_group([9])
    mu = make_distribution(
        g9,
        {
            elem(g9, 0): Fraction(1, 2),
            elem(g9, 3): Fraction(1, 4),
            elem(g9, 6): Fraction(1, 4),
        },
    )
    assert is_idempotent_shift(mu) is None


def test_gaussian_examples():
    g7 = make_group([7])
    assert is_gaussian(point_mass(g7, elem(g7, 2)))
    g9 = make_group([9])
    assert not is_gaussian(haar_on(subgroup_generated(g9, [elem(g9, 3)])))
    assert not is_gaussian(uniform(make_group([5])))


@given(group_with_distribution())
def test_gaussian_iff_unit_modulus_char(gd):
    """Independent route: the quadratic exponent vanishes on finite groups,
    so Gaussian means |mu-hat| == 1 everywhere, which singles out point
    masses."""
    _group, mu = gd
    unit_modulus = all(
        abs(abs(v) - 1) < 1e-9 for v in char_values_list(mu)
    )
    assert is_gaussian(mu) == unit_modulus == is_degenerate(mu)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sample_point_mass_and_determinism():
    g5 = make_group([5])
    mu = point_mass(g5, elem(g5, 3))
    assert sample(mu, 10, seed=1) == [elem(g5, 3)] * 10
    nu = uniform(g5)
    assert sample(nu, 50, seed=7) == sample(nu, 50, seed=7)
    assert sample(nu, 50, seed=7) != sample(nu, 50, seed=8)


def test_sample_uniform_frequencies():
    g5 = make_group([5])
    draws = sample(uniform(g5), 100_000, seed=13)
    emp = empirical_distribution(g5, draws)
    for x in g5.elements:
        assert abs(float(emp.prob(x)) - 0.2) < 0.01


def test_sample_tv_convergence():
    g7 = make_group([7])
    mu = make_distribution(
        g7,
        {
            elem(g7, 0): Fraction(1, 2),
            elem(g7, 2): Fraction(1, 3),
            elem(g7, 5): Fraction(1, 6),
        },
    )
    count = 100_000
    emp = empirical_distribution(g7, sample(mu, count, seed=3))
    assert float(total_variation(emp, mu)) < 4 * math.sqrt(g7.order / count)


# ---------------------------------------------------------------------------
# functions on a group as rows
# ---------------------------------------------------------------------------


def test_group_function_row_view_and_constructors():
    """The mapping constructor and from_row build equal functions; values is
    a read-only view equal to the mapping; the totality check covers both."""
    g = make_group([2, 3])
    mapping = {y: float(y.index) ** 2 for y in reversed(g.elements)}
    f = GroupFunction(g, mapping)
    assert f.row == [float(i) ** 2 for i in range(g.order)]
    assert f == GroupFunction.from_row(g, f.row) and f.values == mapping
    assert f(elem(g, 1, 2)) == 25.0 and f.max_abs() == 25.0
    with pytest.raises(TypeError):
        f.values[g.zero] = 1.0  # type: ignore[index]
    assert f != CharFunction.from_row(g, [1.0] + [0.0] * 5)
    missing = dict(mapping)
    del missing[g.zero]
    extra = {**missing, elem(make_group([6]), 0): 0.0}
    for bad in (missing, extra):
        with pytest.raises(ValueError, match="defined on every element"):
            GroupFunction(g, bad)
    with pytest.raises(ValueError, match="defined on every element"):
        GroupFunction.from_row(g, [0.0] * 5)


def test_group_function_rejects_elements_of_unequal_groups():
    g4 = make_group([4])
    f = GroupFunction.from_row(g4, [0.0, 1.0, 2.0, 3.0])
    assert f(make_group([4]).element([3])) == 3.0  # an equal group
    with pytest.raises(KeyError):
        f(make_group([2, 2]).element([1, 1]))


@pytest.mark.parametrize("kind", ["function", "char"])
def test_group_function_pickle_and_deepcopy_after_view(kind):
    g = make_group([3, 3])
    if kind == "char":
        mu = make_distribution(g, {elem(g, 0, 1): Fraction(1, 3), elem(g, 2, 2): Fraction(2, 3)})
        f = char_function(mu)
    else:
        f = GroupFunction.from_row(g, [random.Random(1).uniform(-1, 1) for _ in g.elements])
    assert f.values[elem(g, 1, 1)] == f.row[4]
    for copied in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
        assert type(copied) is type(f) and copied == f
        assert copied.values == f.values


def test_hermitian_failure_names_the_element_on_z4xz2():
    """The check pairs each element with its negative through the negation
    table: (1,1) and (3,1) are each other's negatives."""
    g = make_group([4, 2])
    row = [1.0 + 0j] + [0j] * 7
    row[g.element([1, 1]).index] = 0.5 + 0j
    row[g.element([3, 1]).index] = 0.25 + 0j
    with pytest.raises(ValueError, match=r"hermitian symmetry violated at \(1,1\)$"):
        CharFunction.from_row(g, row)
    with pytest.raises(ValueError, match=r"hermitian symmetry violated at \(1,1\)$"):
        CharFunction(g, dict(zip(reversed(g.elements), reversed(row))))
    row[g.element([3, 1]).index] = 0.5 + 0j
    assert CharFunction.from_row(g, row).row == row


def test_char_function_readers_call_no_element_operator(monkeypatch):
    """Building, inverting and taking the unit level set of a characteristic
    function, a nonclosed level set included, run on rows and index tables."""
    g = make_group([4, 2])
    calls = []
    for name in ("__add__", "__sub__", "__neg__", "__rmul__"):
        original = getattr(GroupElement, name)
        monkeypatch.setattr(
            GroupElement, name, lambda *args, _f=original, _n=name: calls.append(_n) or _f(*args)
        )
    sub = subgroup_generated(g, [elem(g, 2, 1)])
    mu = haar_on(sub)
    calls.clear()
    f = char_function(mu)
    assert CharFunction(g, dict(f.values)) == f
    assert distribution_from_char(f) == mu
    assert one_set(f).elements == annihilator(sub).elements
    values = {y: 0j for y in g.elements}
    values.update({g.zero: 1 + 0j, elem(g, 1, 0): 1 + 0j, elem(g, 3, 0): 1 + 0j})
    with pytest.raises(InvalidCharFunctionError, match=r"generates \(2,0\), which it lacks"):
        one_set(CharFunction(g, values))
    assert calls == []
