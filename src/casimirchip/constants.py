"""Physical constants (SI).

All library interfaces are SI (m, s, K, Pa, Ohm, rad/s).  Unit conversion
(nm, GHz, mK, eV, ...) happens only at the CLI/config boundary, never here.
The values are the 2018 recommended ones (exact in the 2019 SI except for
the rounding of hbar), fixed at build time so that derived numbers are
reproducible; they are deliberately not configurable.  The Matsubara
frequencies xi_n = 2 pi n k_B T / hbar are formed where they are summed,
in ``lifshitz.plate_pressure``.
"""

HBAR = 1.054_571_817e-34      # J s
C = 299_792_458.0             # m/s
K_B = 1.380_649e-23           # J/K
E_CHARGE = 1.602_176_634e-19  # C
