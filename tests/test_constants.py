import pytest
import scipy.constants as sc

from casimirchip.constants import C, E_CHARGE, HBAR, K_B


def test_codata_values_match_scipy():
    assert HBAR == pytest.approx(sc.hbar, rel=1e-9)
    assert C == sc.c
    assert K_B == pytest.approx(sc.Boltzmann, rel=1e-12)
    assert E_CHARGE == pytest.approx(sc.elementary_charge, rel=1e-12)
