import copy
import pickle

import numpy as np
import pytest

from bimatrix import (
    Bimatrix,
    HermiteBimatrix,
    SpectrumSet,
    arrow,
    breve,
    unarrow,
    conjugate_complete,
    e_matrix,
    h_matrix,
    is_positive_definite,
    quadratic_form_real,
)
from bimatrix import core
from bimatrix.core import (
    CONJ_PAIR_RTOL,
    _conjugate_pairing,
    _spectrum_mismatch,
    bimatrix_from_json,
    bimatrix_to_json,
    cmatrix_from_json,
    cmatrix_to_json,
    cvector_from_json,
    cvector_to_json,
)
from bimatrix.exceptions import DimensionError, SingularBimatrixError, SpectrumError

from helpers import (
    inverse_first_schur,
    inverse_second_schur,
    lift,
    power_by_squaring,
    rand_bimatrix,
    rand_cmatrix,
)


class TestApply:
    def test_identity_pair_is_the_identity_map(self, rng):
        ident = Bimatrix.identity(2)
        x = rand_cmatrix(rng, 2, 1).ravel()
        assert np.allclose(ident.apply(x), x)

    def test_pure_conjugate_action(self):
        bm = Bimatrix.antilinear([[1.0]])
        assert np.allclose(bm.apply([1j]), [-1j])

    def test_row_stack_is_checked_like_a_vector(self):
        bm = Bimatrix.identity(2)
        with pytest.raises(DimensionError, match="length 3"):
            bm.apply(np.zeros((4, 3)))
        with pytest.raises(ValueError, match="non-finite"):
            bm.apply([[1.0, np.inf]])

    def test_mixed_action_matches_definition_and_arrow_route(self):
        bm = Bimatrix([[1.0]], [[1j]])
        x = np.array([1.0 + 1.0j])
        by_definition = bm.first @ x + np.conj(bm.second) @ np.conj(x)
        via_arrow = unarrow(bm.real_representation() @ arrow(x))
        assert np.allclose(by_definition, via_arrow)
        assert np.allclose(bm.apply(x), by_definition)
        # (1+j) + (-j)(1-j) = (1+j) + (-j-1) = 0
        assert np.allclose(bm.apply(x), [0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            Bimatrix.identity(2).apply([1.0, 2.0, 3.0])


class TestArithmetic:
    def test_add_componentwise(self):
        a = Bimatrix([[1.0]], [[1j]])
        b = Bimatrix([[2.0]], [[-1j]])
        out = a + b
        assert np.allclose(out.first, [[3.0]])
        assert np.allclose(out.second, [[0.0]])

    def test_add_zero_is_identity_element(self, rng):
        a = rand_bimatrix(rng, 3, 2)
        out = a + Bimatrix.zeros(3, 2)
        assert out.allclose(a)

    def test_add_commutes(self, rng):
        a, b = rand_bimatrix(rng, 3, 3), rand_bimatrix(rng, 3, 3)
        assert (a + b).allclose(b + a)

    def test_add_shape_mismatch(self, rng):
        with pytest.raises(DimensionError):
            rand_bimatrix(rng, 2, 2) + rand_bimatrix(rng, 3, 3)

    def test_real_scalar_scaling_commutes_with_action(self, rng):
        a = rand_bimatrix(rng, 3, 3)
        x = rand_cmatrix(rng, 3, 1).ravel()
        assert np.allclose((2.5 * a).apply(x), 2.5 * a.apply(x))

    def test_complex_scalar_rejected(self, rng):
        with pytest.raises(TypeError):
            _ = 1j * rand_bimatrix(rng, 2, 2)


class TestCompose:
    def test_identity_neutral(self, rng):
        b = rand_bimatrix(rng, 2, 2)
        assert (Bimatrix.identity(2) @ b).allclose(b)

    def test_conjugate_only_product(self):
        a = Bimatrix.antilinear([[1j]])
        b = Bimatrix.antilinear([[2.0]])
        out = a @ b
        # {A1 B1 + conj(A2) B2, conj(A1) B2 + A2 B1} with A1 = B1 = 0
        assert np.allclose(out.first, [[-2j]])
        assert np.allclose(out.second, [[0.0]])

    def test_composition_agrees_with_nested_application(self, rng):
        a, b = rand_bimatrix(rng, 3, 3), rand_bimatrix(rng, 3, 3)
        x = rand_cmatrix(rng, 3, 1).ravel()
        assert np.allclose((a @ b).apply(x), a.apply(b.apply(x)), atol=1e-12)

    def test_shape_mismatch(self, rng):
        with pytest.raises(DimensionError):
            rand_bimatrix(rng, 2, 3) @ rand_bimatrix(rng, 2, 3)


class TestConjTranspose:
    def test_identity_fixed(self):
        assert Bimatrix.identity(3).H.allclose(Bimatrix.identity(3))

    def test_golden_value(self):
        bm = Bimatrix([[1j]], [[1 + 1j]])
        out = bm.H
        assert np.allclose(out.first, [[-1j]])
        assert np.allclose(out.second, [[1 + 1j]])

    def test_involution(self, rng):
        a = rand_bimatrix(rng, 3, 2)
        assert a.H.H.allclose(a)


class TestRepresentations:
    def test_identity_maps_to_identity(self):
        assert np.allclose(Bimatrix.identity(3).real_representation(), np.eye(6))
        assert np.allclose(Bimatrix.identity(3).complex_lifting(), np.eye(6))

    def test_real_representation_golden(self):
        rep = Bimatrix([[1j]], [[0.0]]).real_representation()
        assert np.allclose(rep, [[0.0, -1.0], [1.0, 0.0]])

    def test_lifting_golden(self):
        out = Bimatrix.antilinear([[0.7]]).complex_lifting()
        assert np.allclose(out, [[0.0, 0.7], [0.7, 0.0]])

    def test_action_factors_through_real_representation(self, rng):
        a = rand_bimatrix(rng, 3, 2)
        x = rand_cmatrix(rng, 2, 1).ravel()
        assert np.allclose(arrow(a.apply(x)), a.real_representation() @ arrow(x))

    def test_lifting_equals_conjugated_representation(self, rng):
        a = rand_bimatrix(rng, 3, 2)
        want = h_matrix(3) @ a.real_representation() @ h_matrix(2).conj().T
        assert np.allclose(a.complex_lifting(), want, atol=1e-12)

    def test_homomorphism_add_and_mul(self, rng):
        a, b = rand_bimatrix(rng, 3, 3), rand_bimatrix(rng, 3, 3)
        assert np.allclose(
            (a + b).real_representation(),
            a.real_representation() + b.real_representation(),
        )
        assert np.allclose(
            (a @ b).real_representation(),
            a.real_representation() @ b.real_representation(),
            atol=1e-12,
        )
        assert np.allclose(
            (a @ b).complex_lifting(),
            a.complex_lifting() @ b.complex_lifting(),
            atol=1e-12,
        )

    def test_transpose_compatibility(self, rng):
        a = rand_bimatrix(rng, 3, 2)
        assert np.allclose(a.H.real_representation(), a.real_representation().T)
        assert np.allclose(a.H.complex_lifting(), a.complex_lifting().conj().T)

    def test_e_symmetry(self, rng):
        a = rand_bimatrix(rng, 3, 2)
        lifted = a.complex_lifting()
        assert np.allclose(e_matrix(2) @ lifted.T, lifted.conj().T @ e_matrix(3))


class TestHMatrix:
    def test_golden_n1(self):
        want = np.array([[1.0, 1j], [1.0, -1j]]) / np.sqrt(2.0)
        assert np.allclose(h_matrix(1), want)

    def test_unitary(self):
        h = h_matrix(3)
        assert np.allclose(h @ h.conj().T, np.eye(6))

    def test_h_ht_is_block_anti_identity(self):
        h = h_matrix(2)
        assert np.allclose(h @ h.T, e_matrix(2))


class TestFromRealRepresentation:
    def test_identity(self):
        bm = Bimatrix.from_real_representation(np.eye(4))
        assert np.allclose(bm.first, np.eye(2))
        assert np.count_nonzero(bm.second) == 0

    def test_golden_rotation_block(self):
        bm = Bimatrix.from_real_representation([[0.0, -1.0], [1.0, 0.0]])
        assert np.allclose(bm.first, [[1j]])
        assert np.count_nonzero(bm.second) == 0

    def test_round_trip(self, rng):
        a = rand_bimatrix(rng, 3, 2)
        back = Bimatrix.from_real_representation(a.real_representation())
        assert back.allclose(a, atol=1e-14)

    def test_agrees_with_unitary_extraction(self, rng):
        mat = rng.standard_normal((6, 4))
        stack = h_matrix(3) @ mat @ h_matrix(2).conj().T @ np.vstack(
            [np.eye(2), np.zeros((2, 2))]
        )
        bm = Bimatrix.from_real_representation(mat)
        assert np.allclose(bm.first, stack[:3], atol=1e-12)
        assert np.allclose(bm.second, stack[3:], atol=1e-12)

    def test_odd_dimensions_rejected(self):
        with pytest.raises(DimensionError):
            Bimatrix.from_real_representation(np.eye(3))

    def test_complex_input_rejected(self):
        with pytest.raises(ValueError):
            Bimatrix.from_real_representation(np.eye(2) * (1 + 1j))


class TestInverse:
    def test_normal_pair(self, rng):
        a1 = rand_cmatrix(rng, 3, 3) + 3 * np.eye(3)
        inv = Bimatrix.normal(a1).inverse()
        assert np.allclose(inv.first, np.linalg.inv(a1))
        assert np.allclose(inv.second, 0)

    def test_conjugate_only_golden(self):
        inv = Bimatrix.antilinear([[2j]]).inverse()
        assert np.allclose(inv.first, [[0.0]])
        assert np.allclose(inv.second, [[0.5j]])
        composed = Bimatrix.antilinear([[2j]]) @ inv
        assert composed.allclose(Bimatrix.identity(1), atol=1e-14)

    def test_singular_parts_can_still_be_invertible(self):
        bm = Bimatrix(np.diag([0.0, 1.0]), np.diag([1.0, 0.0]))
        inv = bm.inverse()
        assert (bm @ inv).allclose(Bimatrix.identity(2), atol=1e-14)
        assert inv.allclose(bm, atol=1e-14)  # this pair is its own inverse

    def test_two_sided(self, rng):
        a = rand_bimatrix(rng, 3, 3)
        inv = a.inverse()
        assert (a @ inv).allclose(Bimatrix.identity(3), atol=1e-10)
        assert (inv @ a).allclose(Bimatrix.identity(3), atol=1e-10)

    def test_singular_raises(self):
        with pytest.raises(SingularBimatrixError):
            Bimatrix.zeros(2, 2).inverse()

    def test_schur_closed_forms_agree_with_lifting_route(self, rng):
        for _ in range(5):
            a = Bimatrix(
                rand_cmatrix(rng, 3, 3) + 3 * np.eye(3),
                rand_cmatrix(rng, 3, 3) + 3 * np.eye(3),
            )
            inv = a.inverse()
            assert inverse_first_schur(a).allclose(inv, atol=1e-9)
            assert inverse_second_schur(a).allclose(inv, atol=1e-9)


class TestPower:
    def test_zeroth_power(self, rng):
        a = rand_bimatrix(rng, 3, 3)
        assert a.power(0).allclose(Bimatrix.identity(3))

    def test_conjugate_only_square(self, rng):
        a2 = rand_cmatrix(rng, 3, 3)
        sq = Bimatrix.antilinear(a2).power(2)
        assert np.allclose(sq.first, np.conj(a2) @ a2)
        assert np.allclose(sq.second, 0)

    def test_lifting_homomorphism(self, rng):
        a = rand_bimatrix(rng, 2, 2, scale=0.7)
        for t in range(6):
            assert np.allclose(
                lift(a.power(t)),
                np.linalg.matrix_power(lift(a), t),
                atol=1e-10,
            )

    def test_negative_rejected(self, rng):
        with pytest.raises(ValueError):
            rand_bimatrix(rng, 2, 2).power(-1)

    def test_matches_square_and_multiply_in_pair_arithmetic(self, rng):
        for _ in range(100):
            n, k = int(rng.integers(1, 25)), int(rng.integers(0, 40))
            a = rand_bimatrix(rng, n, n, scale=1.0 / np.sqrt(n))
            got, want = a.power(k), power_by_squaring(a, k)
            err = np.hypot(np.linalg.norm(got.first - want.first),
                           np.linalg.norm(got.second - want.second))
            assert err <= 1e-13 * np.hypot(np.linalg.norm(want.first),
                                           np.linalg.norm(want.second))


class TestExponent:
    def test_time_zero(self, rng):
        a = rand_bimatrix(rng, 3, 3)
        assert a.expm(0.0).allclose(Bimatrix.identity(3))

    def test_scalar_conjugate_case_is_cosh_sinh(self):
        out = Bimatrix.antilinear([[1.0]]).expm(0.8)
        assert np.allclose(out.first, [[np.cosh(0.8)]])
        assert np.allclose(out.second, [[np.sinh(0.8)]])

    def test_semigroup(self, rng):
        a = rand_bimatrix(rng, 2, 2, scale=0.6)
        t, s = 0.37, 0.81
        assert a.expm(t + s).allclose(a.expm(t) @ a.expm(s), atol=1e-10)

    def test_inverse_is_negative_time(self, rng):
        a = rand_bimatrix(rng, 2, 2, scale=0.6)
        assert (a.expm(0.9) @ a.expm(-0.9)).allclose(Bimatrix.identity(2), atol=1e-10)

    def test_derivative_by_central_differences(self, rng):
        a = rand_bimatrix(rng, 2, 2, scale=0.6)
        t, h = 0.4, 1e-5
        num = (1.0 / (2 * h)) * (a.expm(t + h) - a.expm(t - h))
        want = a @ a.expm(t)
        scale = np.linalg.norm(want.first) + np.linalg.norm(want.second)
        err = np.linalg.norm(num.first - want.first) + np.linalg.norm(
            num.second - want.second
        )
        assert err <= 1e-6 * max(1.0, scale)


class TestEigenvalues:
    def test_normal_pair_spectrum_expands_with_conjugates(self):
        spec = Bimatrix([[1j]], [[0.0]]).eigenvalues()
        assert sorted(spec.values, key=lambda z: z.imag) == pytest.approx([-1j, 1j])

    def test_conjugate_scalar_gives_plus_minus(self):
        spec = Bimatrix.antilinear([[0.7]]).eigenvalues()
        assert np.allclose(sorted(spec.values.real), [-0.7, 0.7])
        assert np.allclose(spec.values.imag, 0)

    def test_agrees_with_lifting_spectrum(self, rng):
        a = rand_bimatrix(rng, 4, 4)
        got = a.eigenvalues()
        want = np.linalg.eigvals(lift(a))
        assert got.matches(want, rtol=1e-8)


class TestDefiniteness:
    def test_identity_pair(self):
        assert is_positive_definite(HermiteBimatrix(np.eye(2)))

    def test_hermite_but_only_semidefinite(self):
        # {1, j} is a Hermite pair, but its representation [[1,-1],[-1,1]]
        # has a zero eigenvalue.
        assert not is_positive_definite(Bimatrix([[1.0]], [[1j]]))

    def test_scalar_golden(self):
        p = HermiteBimatrix([[2.0]], [[1.0]])
        rep = p.real_representation()
        assert np.allclose(rep, [[3.0, 0.0], [0.0, 1.0]])
        assert is_positive_definite(p)

    def test_non_symmetric_representation_is_not_pd(self):
        assert not is_positive_definite(Bimatrix([[1j]], [[0.0]]))


class TestQuadraticForm:
    def test_identity_is_norm_squared(self, rng):
        p = HermiteBimatrix(np.eye(3))
        x = rand_cmatrix(rng, 3, 1).ravel()
        assert quadratic_form_real(p, x) == pytest.approx(np.linalg.norm(x) ** 2)

    def test_scalar_golden(self):
        p = HermiteBimatrix([[2.0]], [[1.0]])
        # Re((-j) (2j + conj(j))) = Re((-j) j) = 1
        assert quadratic_form_real(p, [1j]) == pytest.approx(1.0)

    def test_equals_arrow_form(self, rng):
        p1 = rand_cmatrix(rng, 3, 3)
        p2 = rand_cmatrix(rng, 3, 3)
        p = HermiteBimatrix(p1 + p1.conj().T, p2 + p2.T)
        x = rand_cmatrix(rng, 3, 1).ravel()
        want = arrow(x) @ p.real_representation() @ arrow(x)
        assert quadratic_form_real(p, x) == pytest.approx(want)


class TestVectorMaps:
    def test_norms_preserved(self, rng):
        x = rand_cmatrix(rng, 4, 1).ravel()
        assert np.linalg.norm(arrow(x)) == pytest.approx(np.linalg.norm(x))
        assert np.linalg.norm(breve(x)) == pytest.approx(np.linalg.norm(x))

    def test_arrow_round_trip(self, rng):
        x = rand_cmatrix(rng, 4, 1).ravel()
        assert np.allclose(unarrow(arrow(x)), x)

    def test_row_stack_round_trip_keeps_signed_zeros(self, rng):
        xs = rand_cmatrix(rng, 5, 3)
        xs[0] = [complex(-0.0, 1.0), complex(2.0, -0.0), complex(-0.0, -0.0)]
        stacked = arrow(xs)
        assert np.array_equal(stacked, np.hstack([xs.real, xs.imag]))
        assert np.array_equal(stacked[1], arrow(xs[1]))
        back = unarrow(stacked)
        assert back.shape == xs.shape and np.array_equal(back, xs)
        assert np.array_equal(np.signbit(back.real), np.signbit(xs.real))
        assert np.array_equal(np.signbit(back.imag), np.signbit(xs.imag))
        assert np.signbit(unarrow([-0.0, 1.0])[0].real)

    def test_row_stack_checks_of_arrow_and_unarrow(self):
        with pytest.raises(ValueError, match="non-finite"):
            arrow([[1.0, np.nan]])
        with pytest.raises(DimensionError):
            unarrow(np.zeros((2, 3)))

    def test_breve_is_h_times_arrow(self, rng):
        x = rand_cmatrix(rng, 3, 1).ravel()
        assert np.allclose(breve(x), h_matrix(3) @ arrow(x))


class TestHermiteValidation:
    def test_non_hermitian_first_part_rejected(self):
        with pytest.raises(ValueError):
            HermiteBimatrix([[0.0, 1.0], [2.0, 0.0]])

    def test_non_symmetric_second_part_rejected(self):
        with pytest.raises(ValueError):
            HermiteBimatrix(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])

    def test_scalar_j_second_part_is_hermite(self):
        # 1x1 second part is trivially symmetric
        HermiteBimatrix([[1.0]], [[1j]])


class TestImmutability:
    def test_parts_are_read_only(self, rng):
        a = rand_bimatrix(rng, 2, 2)
        with pytest.raises(ValueError):
            a.first[0, 0] = 0.0

    def test_attributes_fixed(self, rng):
        a = rand_bimatrix(rng, 2, 2)
        with pytest.raises(AttributeError):
            a.first = np.eye(2)

    def test_constructor_copies(self):
        src = np.eye(2, dtype=complex)
        bm = Bimatrix(src, np.zeros((2, 2)))
        src[0, 0] = 5.0
        assert bm.first[0, 0] == 1.0


class TestDerivedValueCaches:
    def test_representations_are_read_only(self, rng):
        a = rand_bimatrix(rng, 3, 2)
        for rep in (a.real_representation(), a.complex_lifting()):
            with pytest.raises(ValueError):
                rep[0, 0] = 0.0

    def test_fills_equal_the_block_formulas_exactly(self, rng):
        a = rand_bimatrix(rng, 3, 2)
        s, d = a.first + a.second, a.first - a.second
        want = np.block([[s.real, -s.imag], [d.imag, d.real]])
        assert np.array_equal(a.real_representation(), want)
        assert np.array_equal(a.complex_lifting(), lift(a))

    def test_repeated_calls_return_the_same_object(self, rng):
        a = rand_bimatrix(rng, 3, 3)
        assert a.real_representation() is a.real_representation()
        assert a.complex_lifting() is a.complex_lifting()
        assert a.eigenvalues() is a.eigenvalues()

    def test_fresh_pair_from_the_same_parts_agrees_exactly(self, rng):
        a = rand_bimatrix(rng, 4, 4)
        folded = Bimatrix.from_real_representation(a.real_representation())
        for bm in (a, a @ a, a.inverse(), folded):
            fresh = Bimatrix(bm.first.copy(), bm.second.copy())
            assert np.array_equal(fresh.real_representation(), bm.real_representation())
            assert np.array_equal(fresh.complex_lifting(), bm.complex_lifting())
            assert np.array_equal(fresh.eigenvalues().values, bm.eigenvalues().values)

    def test_results_of_pair_algebra_are_read_only(self, rng):
        a = rand_bimatrix(rng, 3, 3)
        for bm in (a + a, a - a, -a, 2.0 * a, a @ a, a.H, a.inverse(),
                   Bimatrix.from_real_representation(np.eye(4))):
            for part in (bm.first, bm.second):
                with pytest.raises(ValueError):
                    part[0, 0] = 0.0

    def test_overflow_in_pair_algebra_is_refused(self):
        big = Bimatrix([[1e200, 0.0], [0.0, 1.0]], np.zeros((2, 2)))
        huge = Bimatrix([[1e308]], [[0.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            for make in (lambda: big @ big, lambda: huge + huge, lambda: 1e10 * huge,
                         lambda: Bimatrix.from_real_representation([[1e308, 0.0], [0.0, -1e308]])):
                with pytest.raises(ValueError, match="non-finite"):
                    make()


class TestPickling:
    @pytest.mark.parametrize("kind", ["Bimatrix", "HermiteBimatrix", "SpectrumSet"])
    def test_round_trip(self, rng, kind):
        if kind == "SpectrumSet":
            obj = SpectrumSet([1 + 2j, 1 - 2j, -3.0])
        elif kind == "HermiteBimatrix":
            obj = HermiteBimatrix([[2.0, 1j], [-1j, 3.0]], [[0.5, 0.25], [0.25, 0.0]])
        else:
            obj = rand_bimatrix(rng, 3, 2)
        for clone in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj), copy.copy(obj)):
            assert type(clone) is type(obj)
            if kind == "SpectrumSet":
                assert np.array_equal(clone.values, obj.values)
            else:
                assert np.array_equal(clone.first, obj.first)
                assert np.array_equal(clone.second, obj.second)
                with pytest.raises(ValueError):
                    clone.first[0, 0] = 0.0

    def test_caches_are_not_pickled(self, rng):
        a = rand_bimatrix(rng, 4, 4)
        before = len(pickle.dumps(a))
        a.real_representation(), a.complex_lifting(), a.eigenvalues()
        assert len(pickle.dumps(a)) == before


class TestSpectrumSet:
    def test_rejects_unclosed_multiset(self):
        with pytest.raises(SpectrumError):
            SpectrumSet([1j, 2.0])

    @pytest.mark.parametrize("values", [[np.nan], [complex(np.inf, 1.0)],
                                        [complex(np.inf, np.inf)], [np.inf],
                                        [1j, -1j, complex(np.nan, 0.0)]])
    def test_rejects_non_finite_values(self, values):
        with pytest.raises(SpectrumError, match="finite"):
            SpectrumSet(values)
        assert _conjugate_pairing(np.asarray(values, dtype=complex))[1]

    def test_accepts_closed_multiset(self):
        s = SpectrumSet([1 + 2j, 1 - 2j, 3.0])
        assert len(s) == 3

    def test_conjugate_complete_adds_partners(self):
        out = conjugate_complete([1 + 2j, 5.0])
        assert multiset(out) == multiset([1 + 2j, 1 - 2j, 5.0])

    def test_conjugate_complete_respects_multiplicity(self):
        out = conjugate_complete([1j, 1j, -1j])
        assert multiset(out) == multiset([1j, 1j, -1j, -1j])

    def test_matches_is_multiset_equality(self, rng):
        a = SpectrumSet([1j, -1j, 2.0])
        assert a.matches([2.0 + 1e-9, 1j, -1j])
        assert not a.matches([2.0, 1j, 1j])
        assert not a.matches([2.0, 1j, -1j, 0.0])
        # shuffled, perturbed inside/outside rtol * (1 + |v|), NaN, wrong sizes:
        # matches is the length check plus the greedy mismatch
        rtol = 1e-6
        a = SpectrumSet([1j, -1j, 2.0, -3.0 + 4.0j, -3.0 - 4.0j])
        vals = np.array(a.values)
        bound = rtol * (1.0 + np.abs(vals))
        cases = {
            "shuffled": (rng.permutation(vals), True),
            "inside": (vals + 0.99 * bound * np.exp(1j * rng.uniform(0, 6.28, vals.size)), True),
            "outside": (vals + np.where(np.arange(vals.size) == 3, 1.01 * bound, 0.0), False),
            "nan": (np.where(np.arange(vals.size) == 0, np.nan, vals), False),
            "short": (vals[:-1], False),
            "long": (np.append(vals, 0.0), False),
        }
        for name, (other, expected) in cases.items():
            got = a.matches(other, rtol=rtol)
            assert got is expected, name
            if len(other) == len(vals):
                assert got == (_spectrum_mismatch(other, vals) <= rtol), name


def _spectrum_case(rng, kind):
    """A random multiset of one kind, with its expected closure verdict."""
    reals = rng.standard_normal(rng.integers(0, 5)) * 10.0 ** rng.integers(-3, 4)
    mod = 10.0 ** rng.uniform(-3, 3, rng.integers(1, 12))
    upper = mod * np.exp(1j * rng.uniform(0.1, np.pi - 0.1, mod.size))
    if kind == "repeated":
        reals, upper = np.tile(reals, 2), np.tile(upper[:3], 3)
    # the last value is the partner of upper[0]
    vals = np.concatenate([reals, upper, upper[1:].conj(), upper[:1].conj()])
    tol = CONJ_PAIR_RTOL * max(1.0, abs(upper[0]))
    # half the steps move only the imaginary part, which keeps the sort order
    step = tol * (rng.choice([-1j, 1j]) if rng.uniform() < 0.5
                  else np.exp(1j * rng.uniform(0, 2 * np.pi)))
    closed = True
    if kind == "inside":
        vals[-1] += rng.uniform(0.05, 0.9) * step
    elif kind == "outside":
        vals[-1] += rng.uniform(1.5, 10.0) * step
        closed = False
    elif kind == "unpaired":
        vals, closed = vals[:-1], False
    elif kind == "nearly real":
        # an imaginary part inside the tolerance counts as real
        vals = np.append(vals, rng.standard_normal() + 1j * rng.uniform(-0.9, 0.9) * CONJ_PAIR_RTOL)
    elif kind == "nan":
        # a non-finite value is never paired, wherever it sorts
        vals[rng.integers(vals.size)] = complex(np.nan, rng.choice([0.0, 1.0]))
        closed = False
    return rng.permutation(vals), closed


class TestSpectrumSetFastPath:
    """An exactly closed set is accepted without the pairing loop."""

    KINDS = ("exact", "repeated", "inside", "outside", "unpaired", "nearly real", "nan")

    def test_verdict_equals_pairing_loop(self):
        rng = np.random.default_rng(1201)
        for case in range(1400):
            kind = self.KINDS[case % len(self.KINDS)]
            vals, closed = _spectrum_case(rng, kind)
            loop_accepts = not _conjugate_pairing(np.sort_complex(vals))[1]
            try:
                SpectrumSet(vals)
                accepted = True
            except SpectrumError:
                accepted = False
            assert accepted == loop_accepts, (kind, vals)
            assert closed is None or accepted == closed, (kind, vals)

    @pytest.mark.parametrize("n", [1, 2, 8, 24])
    def test_eigenvalues_skip_the_pairing_loop(self, monkeypatch, n):
        def refuse(values):
            raise AssertionError("pairing loop ran on an exactly closed set")

        monkeypatch.setattr(core, "_conjugate_pairing", refuse)
        a = rand_bimatrix(np.random.default_rng(n), n, n)
        assert len(a.eigenvalues()) == 2 * n
        with pytest.raises(AssertionError):
            SpectrumSet([1j, -1j + 1e-12])


def multiset(values):
    return sorted((round(v.real, 9), round(v.imag, 9)) for v in np.asarray(values, complex))


class TestSerialization:
    def test_cmatrix_round_trip(self, rng):
        a = rand_cmatrix(rng, 2, 3)
        assert np.allclose(cmatrix_from_json(cmatrix_to_json(a)), a)

    def test_bimatrix_round_trip(self, rng):
        a = rand_bimatrix(rng, 2, 3)
        assert bimatrix_from_json(bimatrix_to_json(a)).allclose(a)

    def test_cvector_round_trip(self, rng):
        x = rand_cmatrix(rng, 4, 1).ravel()
        assert np.allclose(cvector_from_json(cvector_to_json(x)), x)

    def test_data_length_checked(self):
        with pytest.raises(ValueError, match="entries"):
            cmatrix_from_json({"rows": 2, "cols": 2, "data": [[1.0, 0.0]]})

    def test_entry_shape_checked(self):
        with pytest.raises(ValueError, match="pair"):
            cmatrix_from_json({"rows": 1, "cols": 1, "data": [[1.0]]})

    @pytest.mark.parametrize("part", ["1.5", True, "nan", None, [1.0]])
    def test_entry_part_must_be_a_json_number(self, part):
        for pair in ([part, 0.0], [0.0, part]):
            with pytest.raises(ValueError, match="entry 1 holds a non-number"):
                cvector_from_json([[1.0, 0.0], pair])

    def test_integer_parts_accepted(self):
        assert cvector_from_json([[1, -2], [0, 3.5]]).tolist() == [1 - 2j, 3.5j]

    def test_integer_beyond_float_range_is_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            cvector_from_json([[10**400, 0]])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Bimatrix([[np.inf]], [[0.0]])
