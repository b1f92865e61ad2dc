import collections
import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from dephasim import (
    CriterionReport,
    StationaryXForm,
    concurrence_xform,
    dephasing_fixed_point,
    min_pt_eigenvalue,
    mutual_information_xform,
    parse_ket_expression,
    partial_transpose,
    qutrit_sufficient_entangled,
    validate,
)
from dephasim import engine, errors, linalg, measures, states, sweep
import oracles
from oracles import (
    central_block_oracle,
    concurrence,
    criterion_report_oracle,
    mutual_information,
    random_density,
    random_pure,
    random_unitary,
    von_neumann_entropy,
)

def embed_xform(x: StationaryXForm) -> np.ndarray:
    m = np.diag([x.a, x.b, x.c, x.d]).astype(complex)
    m[1, 2] = x.f
    m[2, 1] = np.conj(x.f)
    return m


def werner(p: float) -> np.ndarray:
    singlet = parse_ket_expression("(|10> - |01>)/sqrt(2)", (2, 2)).matrix
    return p * singlet + (1 - p) * np.eye(4) / 4


@st.composite
def xforms(draw):
    """Populations from a normalized draw plus a positivity-respecting central coherence."""
    weights = draw(
        st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(lambda w: sum(w) > 0.1)
    )
    a, b, c, d = (w / sum(weights) for w in weights)
    magnitude = draw(st.floats(0.0, 1.0)) * np.sqrt(b * c)
    phase = np.exp(1j * draw(st.floats(0.0, 2 * np.pi)))
    return StationaryXForm(a, b, c, d, complex(magnitude * phase))


# Edges of the closed forms: a Bell state (a = d = 0, |f|^2 = bc), a diagonal
# product state, the maximally mixed state, and a vanishing coherence.
XFORM_EDGES = [
    StationaryXForm(0.0, 0.5, 0.5, 0.0, -0.5),
    StationaryXForm(0.0, 0.3, 0.7, 0.0, complex(0.0, np.sqrt(0.21))),
    StationaryXForm(0.42, 0.18, 0.28, 0.12, 0.0),
    StationaryXForm(0.25, 0.25, 0.25, 0.25, 0.0),
    StationaryXForm(0.1, 0.4, 0.3, 0.2, 0.0),
]


def with_edges(test):
    for x in XFORM_EDGES:
        test = example(x=x)(test)
    return test


def _ket(text, dims=(2, 2)):
    return parse_ket_expression(text, dims)


# Each known state, a DensityMatrix or an X-form; its concurrence (None for qutrits), mutual information in bits
# and least partial-transpose eigenvalue; and how far the general forms may be from them (0: exact). The closed
# forms of an X-form are exact. Werner p: concurrence max(0, (3p - 1) / 2), least eigenvalue (1 - 3p) / 4.
_KNOWN_STATES = {
    "bell-10-minus-01": (_ket("(|10> - |01>)/sqrt(2)"), 1.0, 2.0, -0.5, 1e-12),
    "bell-10-plus-01": (_ket("(|10> + |01>)/sqrt(2)"), 1.0, 2.0, -0.5, 1e-12),
    "bell-11-plus-00": (_ket("(|11> + |00>)/sqrt(2)"), 1.0, 2.0, -0.5, 1e-12),
    "bell-11-minus-00": (_ket("(|11> - |00>)/sqrt(2)"), 1.0, 2.0, -0.5, 1e-12),
    # spectrum 5/8, 1/8, 1/8, 1/8 and maximally mixed marginals
    "werner-1/2": (validate(werner(0.5), (2, 2)), 0.25, 7 / 8 + 5 / 8 * math.log2(5 / 8), -0.125, 1e-10),
    # spectrum 1/2, 1/6, 1/6, 1/6
    "werner-1/3": (validate(werner(1 / 3), (2, 2)), 0.0, 1.5 - 0.5 * math.log2(6), 0.0, 1e-10),
    "xform-singlet": (StationaryXForm(0.0, 0.5, 0.5, 0.0, -0.5), 1.0, 2.0, -0.5, 1e-12),
    "xform-maximally-mixed": (StationaryXForm(0.25, 0.25, 0.25, 0.25, 0.0), 0.0, 0.0, 0.25, 0),
    # equal populations on |11> and |00> form a classically correlated pair
    "xform-classical-pair": (StationaryXForm(0.5, 0.0, 0.0, 0.5, 0.0), 0.0, 1.0, 0.0, 1e-12),
    "qutrits-maximally-mixed": (validate(np.eye(9) / 9, (3, 3)), None, 0.0, 1 / 9, 1e-12),
    "qutrits-maximally-entangled": (_ket("(|1,1> + |0,0> + |-1,-1>)/sqrt(3)", (3, 3)), None, 2 * math.log2(3), -1 / 3,
                                    1e-12),
    "qutrits-central-sector": (_ket("(|1,-1> + |0,0> + |-1,1>)/sqrt(3)", (3, 3)), None, 2 * math.log2(3), -1 / 3,
                               1e-12),
    "qutrits-single-excitation": (_ket("(|1,0> + |0,1>)/sqrt(2)", (3, 3)), None, 2.0, -0.5, 1e-12),
    "qutrits-plus-block": (_ket("(|1,-1> + |0,0>)/sqrt(2)", (3, 3)), None, 2.0, -0.5, 1e-12),
    "qutrits-minus-block": (_ket("(|0,0> + |-1,1>)/sqrt(2)", (3, 3)), None, 2.0, -0.5, 1e-12),
    "qutrits-product": (_ket("|0,0>", (3, 3)), None, 0.0, 0.0, 1e-12),
}


@pytest.mark.parametrize("state, c, i, least, tol", _KNOWN_STATES.values(), ids=_KNOWN_STATES)
def test_a_known_state_has_its_concurrence_mutual_information_and_least_pt_eigenvalue(state, c, i, least, tol):
    if isinstance(state, StationaryXForm):
        assert concurrence_xform(state) == c and mutual_information_xform(state) == i
        state = validate(embed_xform(state), (2, 2))
    if c is not None:
        assert abs(concurrence(state) - c) <= tol
    assert abs(mutual_information(state) - i) <= tol
    assert abs(min_pt_eigenvalue(state) - least) <= tol


def test_concurrence_local_unitary_invariance():
    rng = np.random.default_rng(41)
    for _ in range(20):
        rho = random_density(rng, 4, rank=int(rng.integers(1, 5)))
        u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
        rotated = u @ rho @ u.conj().T
        c0 = concurrence(validate(rho, (2, 2)))
        c1 = concurrence(validate(rotated, (2, 2)))
        assert abs(c0 - c1) <= 1e-9
        assert 0.0 <= c0 <= 1.0


# A Wootters root of sqrt(a d) = 3.3e-8: its square sits below the noise
# floor of an eigenvalue-then-square-root evaluation, which drops it.
@example(x=StationaryXForm(1 / 3, 1 / 3, 1 / 3, 3.3e-15, 1 / 3))
@with_edges
@given(x=xforms())
def test_concurrence_xform_matches_general_form(x):
    general = concurrence(validate(embed_xform(x), (2, 2)))
    assert abs(concurrence_xform(x) - general) <= 1e-10


def _scalars(x: StationaryXForm):
    return float(x.a), float(x.b), float(x.c), float(x.d), complex(x.f)


# Populations a hair below zero, inside the positivity floor, reach both clamps.
@example(points=XFORM_EDGES + [StationaryXForm(-1e-12, 0.5, 0.5 + 1e-12, -0.0, 0.5)])
@given(points=st.lists(xforms(), min_size=1, max_size=12))
def test_closed_forms_of_a_stack_have_the_bits_of_the_scalar_forms(points):
    scalars = [_scalars(x) for x in points]
    stack = StationaryXForm(*(np.array(column) for column in zip(*scalars)))
    for closed_form, scalar_form in (
        (concurrence_xform, oracles.concurrence_xform),
        (mutual_information_xform, oracles.mutual_information_xform),
    ):
        want = np.array([scalar_form(*p) for p in scalars])
        assert np.array_equal(closed_form(stack).view(np.uint64), want.view(np.uint64))


def test_entropy_values():
    pure = _KNOWN_STATES["bell-11-plus-00"][0]
    assert von_neumann_entropy(pure) <= 1e-10
    assert abs(von_neumann_entropy(validate(np.eye(4) / 4, (2, 2))) - 2.0) <= 1e-12
    rho = validate(np.diag([0.5, 0.25, 0.25, 0.0]), (2, 2))
    assert abs(von_neumann_entropy(rho) - 1.5) <= 1e-12


def test_mutual_information_product_state():
    rng = np.random.default_rng(43)
    rho = np.kron(random_density(rng, 2), random_density(rng, 2))
    assert mutual_information(validate(rho, (2, 2))) <= 1e-10


@with_edges
@given(x=xforms())
def test_mutual_information_xform_matches_definition(x):
    definition = mutual_information(validate(embed_xform(x), (2, 2)))
    assert abs(mutual_information_xform(x) - definition) <= 1e-10
    assert -1e-12 <= mutual_information_xform(x) <= 2.0 + 1e-12


def test_min_pt_eigenvalue_separable_mixture():
    rng = np.random.default_rng(45)
    rho = np.zeros((4, 4), dtype=complex)
    for _ in range(6):
        a = random_pure(rng, 2)
        b = random_pure(rng, 2)
        product = np.kron(np.outer(a, a.conj()), np.outer(b, b.conj()))
        rho += rng.uniform(0.1, 1.0) * product
    rho /= np.trace(rho).real
    assert min_pt_eigenvalue(validate(rho, (2, 2))) >= -1e-10


# ---------------------------------------------------------------------------
# Qutrit criterion
# ---------------------------------------------------------------------------


# Each qutrit row of _KNOWN_STATES: its report's flags (the cubic, the plus and minus blocks, sufficient) and
# the cubic's coefficients xi, zeta, eta, within the row's tolerance.
_CRITERION = {
    "qutrits-maximally-mixed": ((False, False, False, False), (1 / 3, 1 / 27, -1 / 729)),
    # the central partial-transpose block is I / 3, so the cubic is (x - 1/3)^3
    "qutrits-maximally-entangled": ((False, False, False, False), (1.0, 1 / 3, -1 / 27)),
    "qutrits-central-sector": ((True, True, True, True), (1 / 3, -1 / 9, 1 / 27)),
    "qutrits-single-excitation": ((True, False, False, True), (0.0, -0.25, 0.0)),
    "qutrits-plus-block": ((False, True, False, True), (0.5, 0.0, 0.0)),
    "qutrits-minus-block": ((False, False, True, True), (0.5, 0.0, 0.0)),
    "qutrits-product": ((False, False, False, False), (1.0, 0.0, 0.0)),
}


@pytest.mark.parametrize("name", _CRITERION)
def test_a_known_qutrit_state_has_its_criterion_report(name):
    rho, _, _, least, tol = _KNOWN_STATES[name]
    flags, coefficients = _CRITERION[name]
    report = qutrit_sufficient_entangled(rho)
    got = (report.cubic_has_negative_root, report.pt_block_plus_negative, report.pt_block_minus_negative)
    assert (*got, report.sufficient_entangled) == flags
    assert all(abs(g - w) <= tol for g, w in zip((report.xi, report.zeta, report.eta), coefficients))
    assert abs(report.min_pt_eigenvalue - least) <= tol


def test_the_central_block_of_the_maximally_entangled_qutrits_is_a_third_of_the_identity():
    block = central_block_oracle(_KNOWN_STATES["qutrits-maximally-entangled"][0].matrix)
    assert np.max(np.abs(block - np.eye(3) / 3.0)) <= 1e-12


def test_cubic_is_characteristic_polynomial_of_pt_block():
    rng = np.random.default_rng(46)
    samples = np.array([-1.0, -0.3, 0.0, 0.5, 1.0])
    for _ in range(10):
        rho = validate(random_density(rng, 9), (3, 3))
        report = qutrit_sufficient_entangled(rho)
        xi, zeta, eta = report.xi, report.zeta, report.eta
        block = central_block_oracle(rho.matrix)
        for x in samples:
            char_poly = np.linalg.det(x * np.eye(3) - block).real
            cubic = x**3 - xi * x**2 + zeta * x + eta
            assert abs(char_poly - cubic) <= 1e-10


unit_floats = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def dephased_pure_states(draw):
    parts = np.array(draw(st.lists(unit_floats, min_size=18, max_size=18)))
    psi = parts[:9] + 1j * parts[9:]
    assume(np.linalg.norm(psi) > 0.1)
    psi /= np.linalg.norm(psi)
    return dephasing_fixed_point(validate(np.outer(psi, psi.conj()), (3, 3))).matrix


@st.composite
def mixed_states(draw):
    rank = draw(st.integers(1, 9))
    parts = np.array(draw(st.lists(unit_floats, min_size=18 * rank, max_size=18 * rank)))
    g = (parts[: 9 * rank] + 1j * parts[9 * rank :]).reshape(9, rank)
    rho = g @ g.conj().T
    assume(np.trace(rho).real > 0.1)
    return rho / np.trace(rho).real


def dephased_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    psi = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
    return dephasing_fixed_point(validate(np.outer(psi, psi.conj()), (3, 3))).matrix


@st.composite
def dephased_product_states(draw):
    """Dephased a (x) b: separable, with a rank-one central block (two zero eigenvalues)."""
    parts = np.array(draw(st.lists(unit_floats, min_size=12, max_size=12)))
    a, b = parts[:3] + 1j * parts[3:6], parts[6:9] + 1j * parts[9:]
    assume(min(np.linalg.norm(a), np.linalg.norm(b)) > 0.1)
    return dephased_product(a, b)


def rank_one_central_mixture() -> np.ndarray:
    """PPT state with populations 1/9 and phased coherences 1/9 whose central
    partial-transpose block (1/9) v v^dagger has the double eigenvalue 0."""
    alpha, gamma = 0.7, -1.9
    m = np.eye(9, dtype=complex) / 9.0
    for (i, j), phase in (((1, 3), alpha), ((2, 6), alpha + gamma), ((5, 7), gamma)):
        m[i, j] = np.exp(1j * phase) / 9.0
        m[j, i] = np.conj(m[i, j])
    return m


def central_population_state(p1: float) -> np.ndarray:
    """diag on |1,1>, |0,0>, |-1,-1> with the first population set to p1."""
    m = np.zeros((9, 9), dtype=complex)
    m[0, 0], m[4, 4], m[8, 8] = p1, 0.5, 0.5 - p1
    return m


@example(matrix=parse_ket_expression("(|1,-1> + |0,0>)/sqrt(2)", (3, 3)).matrix)
@example(matrix=parse_ket_expression("|0,0>", (3, 3)).matrix)
@example(matrix=central_population_state(-5e-10))
@example(matrix=dephased_product(np.array([0.6, 0.64, 0.48]), np.array([0.6, 0.64, 0.48])))
@example(matrix=rank_one_central_mixture())
@given(matrix=st.one_of(dephased_pure_states(), mixed_states(), dephased_product_states()))
def test_cubic_sign_verdict_matches_block_eigensolver(matrix):
    block_min = np.linalg.eigvalsh(central_block_oracle(matrix))[0]
    # An eigensolver is accurate to ~1e-16 times the block norm, including at
    # a double zero eigenvalue; only a draw this close to the margin may differ.
    assume(abs(block_min + 1e-12) > 1e-13)
    report = qutrit_sufficient_entangled(validate(matrix, (3, 3)))
    assert report.cubic_has_negative_root == (block_min < -1e-12)


def test_criterion_dephased_products_not_detected():
    # Their central block has two zero eigenvalues, where the determinant eta
    # is pure rounding noise; the verdict must not depend on its sign.
    rng = np.random.default_rng(49)
    amplitudes = [np.array([0.6, 0.64, 0.48])]
    amplitudes += [rng.normal(size=3) + 1j * rng.normal(size=3) for _ in range(200)]
    for a in amplitudes:
        report = qutrit_sufficient_entangled(validate(dephased_product(a, a), (3, 3)))
        assert not report.cubic_has_negative_root
        assert not report.sufficient_entangled
    report = qutrit_sufficient_entangled(validate(rank_one_central_mixture(), (3, 3)))
    assert not report.sufficient_entangled


def test_criterion_exact_on_dephased_pure_states():
    rng = np.random.default_rng(47)
    for _ in range(500):
        psi = random_pure(rng, 9)
        rho = dephasing_fixed_point(validate(np.outer(psi, psi.conj()), (3, 3)))
        report = qutrit_sufficient_entangled(rho)
        assert report.sufficient_entangled == (report.min_pt_eigenvalue < -1e-10)


def test_criterion_sound_on_arbitrary_states():
    rng = np.random.default_rng(48)
    for k in range(500):
        rho = validate(random_density(rng, 9, rank=(k % 9) + 1), (3, 3))
        report = qutrit_sufficient_entangled(rho)
        if report.sufficient_entangled:
            assert report.min_pt_eigenvalue < 1e-10


README_QUTRIT_KETS = ["(|1,-1> + |0,0> + |-1,1>)/sqrt(3)", "(|1,0> + |0,1>)/sqrt(2)"]


def _fields(report: CriterionReport) -> list:
    """Each field of a report, a float as its float.hex: == on floats calls -0.0 equal to 0.0."""
    return [(type(v), v.hex() if isinstance(v, float) else v) for v in dataclasses.astuple(report)]


def test_criterion_reports_equal_the_entry_by_entry_reference():
    # The package reads every block off one partial transpose; the reference
    # writes each entry out from rho. They must agree to the bit, signed zeros included.
    rng = np.random.default_rng(50)
    kets = [random_pure(rng, 9) for _ in range(200)]
    kets += [np.kron(random_pure(rng, 3), random_pure(rng, 3)) for _ in range(100)]
    for k in range(150):  # 1 to 3 terms with real or complex amplitudes
        ket = np.zeros(9, dtype=complex)
        picks = rng.choice(9, size=k % 3 + 1, replace=False)
        ket[picks] = rng.normal(size=picks.size) + 1j * (k % 2) * rng.normal(size=picks.size)
        kets.append(ket / np.linalg.norm(ket))
    pure = [validate(np.outer(psi, psi.conj()), (3, 3)) for psi in kets]
    pure += [parse_ket_expression(f"|{a},{b}>", (3, 3)) for a, b in itertools.product(["1", "0", "-1"], repeat=2)]
    pure += [parse_ket_expression(ket, (3, 3)) for ket in README_QUTRIT_KETS]
    states = pure + [dephasing_fixed_point(rho) for rho in pure]
    states += [validate(random_density(rng, 9, rank=(k % 9) + 1), (3, 3)) for k in range(200)]
    # a basis population with -0.0 elsewhere: xi and min_pt_eigenvalue are -0.0 off |1,1>, |0,0>, |-1,-1>
    states += [validate(np.diag(np.where(np.arange(9) == k, 1.0, -0.0)), (3, 3)) for k in range(9)]
    for rho in states:
        reference = CriterionReport(**criterion_report_oracle(rho.matrix))
        assert _fields(qutrit_sufficient_entangled(rho)) == _fields(reference)


def _layouts(m: np.ndarray) -> list[np.ndarray]:
    """m itself (C order), a Fortran-ordered copy and a strided view of a larger array: what a caller can pass."""
    larger = np.full((2 * m.shape[0], 2 * m.shape[1]), np.nan, dtype=complex)
    larger[::2, ::2] = m
    return [m, np.asfortranarray(m), larger[::2, ::2]]


def test_criterion_and_min_pt_eigenvalue_read_every_memory_layout_to_the_bit():
    # A DensityMatrix keeps its input's order (astype), and the criterion and
    # min_pt_eigenvalue read its matrix as it is: each layout gives the reference's bits.
    rng = np.random.default_rng(48)
    qutrits = [np.outer(psi, psi.conj()) for psi in (random_pure(rng, 9) for _ in range(40))]
    qutrits += [random_density(rng, 9, rank=(k % 9) + 1) for k in range(40)]
    qutrits += [np.diag(np.where(np.arange(9) == k, 1.0, -0.0)).astype(complex) for k in range(9)]
    for m in qutrits:
        reference = _fields(CriterionReport(**criterion_report_oracle(m)))
        for layout in _layouts(m):
            rho = validate(layout, (3, 3))
            assert rho.matrix.flags.f_contiguous == layout.flags.f_contiguous
            assert _fields(qutrit_sufficient_entangled(rho)) == reference
            pinched = dephasing_fixed_point(rho)
            assert _fields(qutrit_sufficient_entangled(pinched)) == _fields(
                CriterionReport(**criterion_report_oracle(pinched.matrix))
            )
    qubits = [random_density(rng, 4, rank=(k % 4) + 1) for k in range(40)]
    for dims, matrices in (((2, 2), qubits), ((3, 3), qutrits)):
        for m in matrices:
            expected = np.linalg.eigvalsh(partial_transpose(m, dims))[0].item().hex()
            for layout in _layouts(m):
                assert min_pt_eigenvalue(validate(layout, dims)).hex() == expected


def test_a_state_is_checked_once_when_built(monkeypatch):
    # One _numbers copy and one _pair dims check per state, both in DensityMatrix:
    # the fixed point, the criterion and min_pt_eigenvalue read the checked state as it is.
    calls = collections.Counter()
    for name, original in (("_numbers", errors._numbers), ("_pair", states._pair)):
        def spy(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in (errors, states, linalg, engine, measures, sweep):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy)
    rng = np.random.default_rng(48)
    qutrit_sufficient_entangled(dephasing_fixed_point(validate(random_density(rng, 9), (3, 3))))
    assert calls == {"_numbers": 1, "_pair": 1}
    for dims in ((2, 2), (3, 3)):
        calls.clear()
        min_pt_eigenvalue(validate(random_density(rng, dims[0] ** 2), dims))
        assert calls == {"_numbers": 1, "_pair": 1}
