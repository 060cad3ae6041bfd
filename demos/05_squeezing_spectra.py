"""Linearized squeezing spectra of the pumped cavity and the comb map.

The cascade acts like a degenerate parametric pump per round trip; below
threshold the output sidebands are squeezed most strongly on the cavity
comb lines.  Filtering by the mode cleaner only passes odd multiples of
the squeezer FSR to the detector.
"""

import numpy as np

from kerrsqueezer import (
    CavityParams,
    OperatingPoint,
    omc_sideband_transfer,
    sideband_comb_map,
    squeezing_spectrum,
    variance_to_db,
)

params = CavityParams(0.838, 0.01, 0.0019)
op = OperatingPoint(
    p_circ=23.9,
    epsilon=0.55 * params.gamma_total,
    gamma_coupler=params.gamma_coupler,
    gamma_loss=params.gamma_loss,
)
print(f"pump ratio eps/gamma = {abs(op.epsilon)/op.gamma_total:.2f}, "
      f"threshold headroom = {op.headroom:.2f}")

print("\n=== spectrum vs offset from a comb line ===")
print("  offset/gamma    squeeze (dB)   anti-squeeze (dB)")
mults = np.array([0.0, 0.5, 1.0, 2.0, 4.0])
spectrum = squeezing_spectrum(op, mults * op.gamma_total)  # one call, every offset
for mult, v_min, v_max in zip(mults, spectrum.v_min, spectrum.v_max):
    print(f"     {mult:4.1f}        {variance_to_db(v_min):8.2f}      "
          f"{variance_to_db(v_max):8.2f}")

print("\n=== absolute sideband frequencies versus the comb ===")
print("  f (MHz)    comb n   offset (MHz)   OMC transfer")
for f in (357.7e6, 715.5e6, 1073.2e6, 536.6e6):
    comb = sideband_comb_map(params.fsr, f)
    transfer = omc_sideband_transfer(params.fsr, 200.0, f)
    print(f"  {f/1e6:8.1f}     {comb.index}      {comb.omega/2/np.pi/1e6:8.3f}"
          f"        {transfer:.4f}")
print("(odd multiples reach the detector, even multiples are separated out)")

print("\n=== closed-form check: on resonance, lossless, eps = gamma/2 ===")
ideal = OperatingPoint(p_circ=1.0, epsilon=0.5, gamma_coupler=1.0, gamma_loss=0.0)
pt = squeezing_spectrum(ideal, 0.0)
print(f"v_min = {pt.v_min:.6f} (exactly 1/9 -> {variance_to_db(pt.v_min):.2f} dB), "
      f"purity v_min*v_max = {pt.v_min*pt.v_max:.12f}")
