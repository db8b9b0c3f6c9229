import copy
import pickle

import numpy as np
import pytest

from bimatrix import (
    Bimatrix,
    CxSystem,
    TimeDomain,
    from_real_system,
    make_antilinear,
    make_normal,
    real_conversion_residual,
    system_from_json,
    system_to_json,
    transfer_function_eval,
)
from bimatrix.core import cmatrix_to_json
from bimatrix.exceptions import DimensionError, SingularBimatrixError

from helpers import lift, rand_bimatrix, rand_cmatrix, rand_system


def _paired_real(m11, m21, kind):
    """Assemble the two structured real block layouts used below."""
    if kind == "symmetric":
        return np.block([[m11, -m21], [m21, m11]])
    return np.block([[m11, m21], [m21, -m11]])


class TestFromRealSystem:
    def test_symmetric_structure_drops_second_parts_exactly(self, rng):
        blocks = {}
        for name, (r, c) in {"a": (2, 2), "b": (2, 1), "c": (1, 2), "d": (1, 1)}.items():
            m11, m21 = rng.standard_normal((r, c)), rng.standard_normal((r, c))
            blocks[name] = (_paired_real(m11, m21, "symmetric"), m11, m21)
        sysm = from_real_system(
            blocks["a"][0], blocks["b"][0], blocks["c"][0], blocks["d"][0],
            TimeDomain.CONTINUOUS,
        )
        for bm, name in ((sysm.a, "a"), (sysm.b, "b"), (sysm.c, "c"), (sysm.d, "d")):
            _, m11, m21 = blocks[name]
            assert np.count_nonzero(bm.second) == 0
            assert np.allclose(bm.first, m11 + 1j * m21)
        assert sysm.is_normal

    def test_antisymmetric_structure_drops_first_parts_exactly(self, rng):
        m11, m21 = rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
        b11, b21 = rng.standard_normal((2, 1)), rng.standard_normal((2, 1))
        sysm = from_real_system(
            _paired_real(m11, m21, "antisymmetric"),
            _paired_real(b11, b21, "antisymmetric"),
            _paired_real(m11, m21, "antisymmetric"),
            _paired_real(b11, b21, "antisymmetric"),
            TimeDomain.DISCRETE,
        )
        assert sysm.is_antilinear
        assert np.count_nonzero(sysm.a.first) == 0
        assert np.allclose(sysm.a.second, m11 - 1j * m21)

    def test_round_trip_from_cx_system(self, rng):
        sysm = rand_system(rng, 3, 2, 2, TimeDomain.CONTINUOUS)
        rep = sysm.real_representation()
        back = from_real_system(rep.a, rep.b, rep.c, rep.d, rep.domain)
        for got, want in zip((back.a, back.b, back.c, back.d),
                             (sysm.a, sysm.b, sysm.c, sysm.d)):
            assert got.allclose(want, atol=1e-14)

    def test_round_trip_from_arbitrary_real_system(self, rng):
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 2))
        c = rng.standard_normal((2, 4))
        d = rng.standard_normal((2, 2))
        sysm = from_real_system(a, b, c, d, "discrete")
        rep = sysm.real_representation()
        assert np.allclose(rep.a, a, atol=1e-13)
        assert np.allclose(rep.b, b, atol=1e-13)
        assert np.allclose(rep.c, c, atol=1e-13)
        assert np.allclose(rep.d, d, atol=1e-13)
        assert real_conversion_residual(a) <= 1e-12

    def test_odd_dimensions_rejected(self, rng):
        with pytest.raises(DimensionError):
            from_real_system(
                np.eye(3), np.ones((3, 2)), np.ones((2, 3)), np.ones((2, 2)),
                "continuous",
            )


class TestRepresentations:
    def test_real_normal_system_is_block_diagonal(self, rng):
        a1 = rng.standard_normal((2, 2))
        b1 = rng.standard_normal((2, 1))
        sysm = make_normal(a1, b1, np.eye(2), domain="continuous")
        rep = sysm.real_representation()
        assert np.allclose(rep.a, np.block(
            [[a1, np.zeros((2, 2))], [np.zeros((2, 2)), a1]]
        ))
        assert np.allclose(rep.b, np.block(
            [[b1, np.zeros((2, 1))], [np.zeros((2, 1)), b1]]
        ))

    def test_normal_lifting_is_block_diagonal(self, rng):
        a1 = rand_cmatrix(rng, 2, 2)
        sysm = make_normal(a1, np.ones((2, 1)), np.eye(2), domain="continuous")
        al, _, _, _ = sysm.complex_lifting()
        assert np.allclose(al[:2, :2], a1)
        assert np.allclose(al[2:, 2:], np.conj(a1))
        assert np.count_nonzero(al[:2, 2:]) == 0

    def test_antilinear_scalar_lifting(self):
        sysm = make_antilinear([[2 - 1j]], [[1.0]], domain="discrete")
        al, _, _, _ = sysm.complex_lifting()
        assert np.allclose(al, [[0.0, 2 + 1j], [2 - 1j, 0.0]])

    def test_lifting_matches_conjugated_representation(self, rng):
        sysm = rand_system(rng, 2, 2, 1, TimeDomain.DISCRETE)
        rep = sysm.real_representation()
        for lifted, bm in zip(sysm.complex_lifting(), (sysm.a, sysm.b, sysm.c, sysm.d)):
            assert np.allclose(lifted, lift(bm), atol=1e-12)
        assert np.allclose(
            sysm.complex_lifting()[0],
            _h(sysm.n) @ rep.a @ _h(sysm.n).conj().T,
            atol=1e-12,
        )

    def test_spectrum_from_both_pictures_agrees(self, rng):
        sysm = rand_system(rng, 3, 1, 1, TimeDomain.CONTINUOUS)
        assert sysm.spectrum().matches(np.linalg.eigvals(lift(sysm.a)), rtol=1e-8)


class TestSharedDerivedValues:
    def test_real_representation_blocks_are_read_only_and_shared(self, rng):
        sysm = rand_system(rng, 3, 2, 2, TimeDomain.DISCRETE)
        rep = sysm.real_representation()
        with pytest.raises(ValueError):
            rep.a[0, 0] = 0.0
        for got, bm in ((rep.a, sysm.a), (rep.b, sysm.b), (rep.c, sysm.c), (rep.d, sysm.d)):
            assert got is bm.real_representation()
        for got, bm in zip(sysm.complex_lifting(), (sysm.a, sysm.b, sysm.c, sysm.d)):
            assert got is bm.complex_lifting()
        assert sysm.spectrum() is sysm.a.eigenvalues() is sysm.spectrum()

    def test_pickle_and_deepcopy_round_trip(self, rng):
        sysm = rand_system(rng, 3, 2, 1, TimeDomain.CONTINUOUS)
        sysm.spectrum()
        for clone in (pickle.loads(pickle.dumps(sysm)), copy.deepcopy(sysm)):
            assert clone.domain is sysm.domain
            for got, want in ((clone.a, sysm.a), (clone.b, sysm.b), (clone.c, sysm.c),
                              (clone.d, sysm.d)):
                assert np.array_equal(got.first, want.first)
                assert np.array_equal(got.second, want.second)
            assert np.array_equal(clone.spectrum().values, sysm.spectrum().values)


def _h(n):
    from bimatrix import h_matrix

    return h_matrix(n)


class TestConstructors:
    def test_make_normal_zero_fills(self, rng):
        sysm = make_normal(np.eye(2), np.ones((2, 1)), np.eye(2), domain="discrete")
        assert sysm.is_normal and not sysm.is_antilinear
        assert np.count_nonzero(sysm.a.second) == 0
        assert np.count_nonzero(sysm.d.first) == 0  # default feedthrough is zero

    def test_make_antilinear_zero_fills(self):
        sysm = make_antilinear([[0.5]], [[1.0]], domain="discrete")
        assert sysm.is_antilinear and not sysm.is_normal
        assert np.count_nonzero(sysm.a.first) == 0

    def test_shape_validation(self, rng):
        with pytest.raises(DimensionError):
            CxSystem(
                rand_bimatrix(rng, 2, 2),
                rand_bimatrix(rng, 3, 1),
                rand_bimatrix(rng, 1, 2),
                rand_bimatrix(rng, 1, 1),
                TimeDomain.DISCRETE,
            )

    def test_domain_coercion(self):
        sysm = make_antilinear([[0.5]], [[1.0]], domain="discrete")
        assert sysm.domain is TimeDomain.DISCRETE
        with pytest.raises(ValueError):
            make_antilinear([[0.5]], [[1.0]], domain="sometimes")


class TestTransferFunction:
    def test_scalar_normal_resolvent(self):
        sysm = make_normal([[-1.0]], [[1.0]], [[1.0]], domain="continuous")
        g = transfer_function_eval(sysm, 2.0)
        assert np.allclose(g.first, [[1.0 / 3.0]])
        assert np.allclose(g.second, [[0.0]])

    def test_matches_real_representation_resolvent(self, rng):
        sysm = rand_system(rng, 3, 2, 2, TimeDomain.CONTINUOUS)
        s = 2.37
        g = transfer_function_eval(sysm, s)
        rep = sysm.real_representation()
        want = rep.c @ np.linalg.solve(s * np.eye(6) - rep.a, rep.b) + rep.d
        assert np.allclose(g.real_representation(), want, atol=1e-9)

    def test_antilinear_scalar_matches_lifted_resolvent(self):
        a2, b2 = 0.4 + 0.3j, 1.5 - 0.2j
        sysm = make_antilinear([[a2]], [[b2]], domain="discrete")
        s = 1.9
        g = transfer_function_eval(sysm, s)
        al, bl, cl, dl = sysm.complex_lifting()
        want = cl @ np.linalg.solve(s * np.eye(2) - al, bl) + dl
        assert np.allclose(lift(g), want, atol=1e-12)

    def test_spectrum_point_rejected(self):
        sysm = make_normal([[-1.0]], [[1.0]], [[1.0]], domain="continuous")
        with pytest.raises(SingularBimatrixError):
            transfer_function_eval(sysm, -1.0)

    def test_complex_frequency_rejected(self, rng):
        sysm = rand_system(rng, 2, 1, 1, TimeDomain.CONTINUOUS)
        with pytest.raises(ValueError):
            transfer_function_eval(sysm, 1.0 + 1.0j)


class TestJsonSchema:
    def test_round_trip(self, rng):
        sysm = rand_system(rng, 2, 1, 1, TimeDomain.DISCRETE)
        back = system_from_json(system_to_json(sysm))
        for got, want in zip((back.a, back.b, back.c, back.d),
                             (sysm.a, sysm.b, sysm.c, sysm.d)):
            assert got.allclose(want)
        assert back.domain is sysm.domain

    def test_zero_blocks_omitted_and_defaulted(self):
        sysm = make_antilinear([[0.5]], [[1.0]], domain="discrete")
        obj = system_to_json(sysm)
        assert "A1" not in obj and "A2" in obj
        back = system_from_json(obj)
        assert back.is_antilinear

    def test_antilinear_file_with_only_second_blocks(self):
        obj = {
            "domain": "discrete",
            "A2": cmatrix_to_json(np.array([[0.5]])),
            "B2": cmatrix_to_json(np.array([[1.0]])),
            "C2": cmatrix_to_json(np.array([[1.0]])),
        }
        sysm = system_from_json(obj)
        assert sysm.is_antilinear
        assert sysm.n == sysm.m == sysm.p == 1

    def test_dimension_inference_failure_names_the_gap(self):
        with pytest.raises(ValueError, match='"m"'):
            system_from_json({
                "domain": "discrete",
                "A1": cmatrix_to_json(np.eye(2)),
                "C1": cmatrix_to_json(np.eye(2)),
            })

    def test_block_shape_error_names_the_block(self):
        obj = {
            "domain": "discrete",
            "n": 2, "m": 1, "p": 1,
            "A1": cmatrix_to_json(np.eye(2)),
            "B1": cmatrix_to_json(np.eye(2)),  # wrong shape: should be 2x1
        }
        with pytest.raises(DimensionError, match="B1"):
            system_from_json(obj)

    def test_real_system_conversion_path(self, rng):
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 2))
        c = rng.standard_normal((2, 4))
        d = np.zeros((2, 2))
        obj = {
            "convert": True,
            "domain": "continuous",
            "real_system": {
                "A": cmatrix_to_json(a),
                "B": cmatrix_to_json(b),
                "C": cmatrix_to_json(c),
                "D": cmatrix_to_json(d),
            },
        }
        sysm = system_from_json(obj)
        assert sysm.n == 2 and sysm.m == 1 and sysm.p == 1
        assert np.allclose(sysm.real_representation().a, a, atol=1e-13)

    def test_real_system_requires_convert_flag(self):
        with pytest.raises(ValueError, match="convert"):
            system_from_json({"real_system": {}, "domain": "discrete"})

    def test_missing_domain_rejected(self):
        with pytest.raises(ValueError, match="domain"):
            system_from_json({"n": 1, "m": 1, "p": 1})
